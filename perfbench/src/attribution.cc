#include "perfbench/src/attribution.h"

#include <filesystem>

#include "src/core/content_generator.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/persist/checkpoint.h"
#include "src/persist/session_store.h"
#include "src/persist/wal.h"

namespace perfbench {
namespace {

// Each captured input is timed this many times; the metric is the mean.
constexpr int kRepeats = 5;

}  // namespace

void AttributeContent(const std::vector<SnapshotPair>& pairs, bool delta,
                      SpanRecorder* spans, std::map<std::string, double>* out) {
  uint64_t id = 0;
  for (const SnapshotPair& pair : pairs) {
    for (int r = 0; r < kRepeats; ++r) {
      std::string xml;
      {
        ScopedSpan span(spans, "attr.SerializeSnapshotXml", ++id);
        xml = rcb::SerializeSnapshotXml(pair.second);
      }
      {
        ScopedSpan span(spans, "attr.ParseSnapshotXml", id);
        auto parsed = rcb::ParseSnapshotXml(xml);
        (void)parsed;
      }
      if (!delta) {
        continue;
      }
      std::unique_ptr<rcb::Element> base;
      std::unique_ptr<rcb::Element> target;
      {
        ScopedSpan span(spans, "attr.MaterializeSnapshotTree", id);
        base = rcb::MaterializeSnapshotTree(pair.first);
      }
      {
        ScopedSpan span(spans, "attr.MaterializeSnapshotTree", id);
        target = rcb::MaterializeSnapshotTree(pair.second);
      }
      rcb::delta::PatchEnvelope envelope;
      {
        ScopedSpan span(spans, "attr.DiffTrees", id);
        envelope.patch.ops = rcb::delta::DiffTrees(*base, *target);
      }
      envelope.patch.base_doc_time_ms = pair.first.doc_time_ms;
      envelope.patch.target_doc_time_ms = pair.second.doc_time_ms;
      envelope.patch.base_digest = rcb::delta::TreeDigest(*base);
      envelope.patch.target_digest = rcb::delta::TreeDigest(*target);
      {
        ScopedSpan span(spans, "attr.SerializePatchXml", id);
        std::string patch_xml = rcb::delta::SerializePatchXml(envelope);
        (void)patch_xml;
      }
    }
  }
  (*out)["protocol.snapshot_encode_us"] =
      spans->MeanUs("attr.SerializeSnapshotXml");
  (*out)["protocol.snapshot_decode_us"] =
      spans->MeanUs("attr.ParseSnapshotXml");
  (*out)["delta.materialize_us"] =
      spans->MeanUs("attr.MaterializeSnapshotTree");
  (*out)["delta.diff_us"] = spans->MeanUs("attr.DiffTrees");
  (*out)["delta.encode_us"] = spans->MeanUs("attr.SerializePatchXml");
}

bool AttributePersist(const rcb::AgentStateExport& state,
                      const std::string& dir, SpanRecorder* spans,
                      std::map<std::string, double>* out) {
  std::filesystem::create_directories(dir);
  rcb::persist::PersistOptions options;
  options.dir = dir;
  rcb::persist::PersistCounters counters;
  rcb::persist::SessionStore store("perfbench-attr", options, &counters,
                                   nullptr);
  rcb::persist::SessionCheckpoint checkpoint;
  checkpoint.session_id = "perfbench-attr";
  checkpoint.state = state;
  uint64_t id = 0;
  bool ok = true;
  for (int r = 0; r < kRepeats; ++r) {
    ScopedSpan span(spans, "attr.WriteCheckpoint", ++id);
    ok = store.WriteCheckpoint(checkpoint).ok() && ok;
  }
  rcb::persist::WalRecord record;
  record.type = rcb::persist::WalRecordType::kSeq;
  record.pid = "p1";
  for (int r = 0; r < kRepeats * 20; ++r) {
    record.seq = static_cast<uint64_t>(r + 1);
    ScopedSpan span(spans, "attr.WalAppend", ++id);
    ok = store.Append(record).ok() && ok;
  }
  store.RemoveFiles();
  (*out)["persist.checkpoint_us"] = spans->MeanUs("attr.WriteCheckpoint");
  (*out)["persist.wal_append_us"] = spans->MeanUs("attr.WalAppend");
  return ok;
}

}  // namespace perfbench
