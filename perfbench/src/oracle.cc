#include "perfbench/src/oracle.h"

#include <cstdlib>

#include "perfbench/src/bench.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

// Versions kept per session: above the agent's delta_history (8), so every
// base a patch may name is still here. Materialized trees are large for
// Table 1 pages, so only the newest few keep theirs; an older base is
// re-materialized from its snapshot when a patch names it.
constexpr size_t kKeptVersions = 12;
constexpr size_t kKeptTrees = 4;

rcb::GeneratorTuning PaperLiteral() {
  rcb::GeneratorTuning tuning;
  tuning.incremental_serialize = false;
  return tuning;
}

}  // namespace

bool SameContent(const rcb::Snapshot& a, const rcb::Snapshot& b) {
  return a.doc_time_ms == b.doc_time_ms && a.has_content == b.has_content &&
         a.head_children == b.head_children && a.body == b.body &&
         a.frameset == b.frameset && a.noframes == b.noframes;
}

ContentOracle::ContentOracle(rcb::Browser* browser, rcb::Url agent_url)
    : generator_(browser, PaperLiteral()) {
  options_.agent_url = std::move(agent_url);
}

Reference* ContentOracle::Find(int64_t doc_time_ms) {
  for (Reference& ref : refs_) {
    if (ref.doc_time_ms == doc_time_ms) {
      return &ref;
    }
  }
  return nullptr;
}

Reference* ContentOracle::RefFor(int64_t doc_time_ms) {
  if (Reference* found = Find(doc_time_ms)) {
    return found;
  }
  Reference ref;
  ref.doc_time_ms = doc_time_ms;
  ref.snapshot = generator_.Generate(doc_time_ms, options_).snapshot;
  refs_.push_back(std::move(ref));
  if (refs_.size() > kKeptVersions) {
    refs_.pop_front();
  }
  if (refs_.size() > kKeptTrees) {
    refs_[refs_.size() - kKeptTrees - 1].tree.reset();
  }
  return &refs_.back();
}

void ContentOracle::Materialize(Reference* ref) {
  if (ref->tree == nullptr) {
    ref->tree = rcb::MaterializeSnapshotTree(ref->snapshot);
    ref->digest = rcb::delta::TreeDigest(*ref->tree);
  }
}

int64_t ServedDocTime(const std::string& body) {
  // Both newContent and newPatch open with <docTime>: the version served
  // (patch target), or for an actions-only reply the version the poll acked.
  const std::string_view head = std::string_view(body).substr(0, 256);
  const std::string_view tag = "<docTime>";
  size_t at = head.find(tag);
  if (at == std::string_view::npos) {
    return -2;
  }
  return std::atoll(body.c_str() + at + tag.size());
}

rcb::Snapshot ContentOracle::LiveSnapshot(int64_t doc_time_ms) {
  return generator_.Generate(doc_time_ms, options_).snapshot;
}

std::string ContentOracle::LiveDigest() {
  return rcb::delta::TreeDigest(*rcb::MaterializeSnapshotTree(LiveSnapshot(0)));
}

Verdict ContentOracle::Check(const std::string& body, int64_t acked_ms) {
  Verdict verdict;
  if (body.empty()) {
    return verdict;  // "no new content"
  }
  const int64_t served = ServedDocTime(body);
  const bool patch = rcb::delta::LooksLikePatchXml(body);
  if (served < -1) {
    verdict.error = "response carries no docTime";
    return verdict;
  }
  if (!patch && served == acked_ms) {
    // Actions-only reply: the agent serves content only to polls acking an
    // older version, so this one must carry none.
    verdict = CheckSnapshot(nullptr, body);
    if (verdict.error.empty() && verdict.content) {
      verdict.error = "content served to a poll that acked the current version";
    }
    return verdict;
  }
  // Content is always the agent's current version, and nothing has touched
  // the document since the response was built.
  Reference* ref = RefFor(served);
  for (size_t i = 0; i < ref->verified.size(); ++i) {
    if (ref->verified[i] == body) {
      verdict.content = true;
      verdict.patch = patch;
      verdict.doc_time_ms = served;
      return verdict;  // its actions were checked with the first copy
    }
  }
  verdict = patch ? CheckPatch(ref, body, acked_ms) : CheckSnapshot(ref, body);
  verdict.doc_time_ms = served;
  if (verdict.error.empty() && !verdict.content) {
    verdict.error = "a newer docTime without document content";
  }
  if (verdict.error.empty()) {
    ref->verified.push_back(body);
  }
  return verdict;
}

Verdict ContentOracle::CheckSnapshot(Reference* ref, const std::string& body) {
  Verdict verdict;
  int64_t start = SteadyNs();
  auto parsed = rcb::ParseSnapshotXml(body);
  verdict.decode_ns = SteadyNs() - start;
  if (!parsed.ok()) {
    verdict.error = "snapshot does not decode: " + parsed.status().ToString();
    return verdict;
  }
  verdict.actions = parsed->user_actions;
  verdict.content = parsed->has_content;
  if (ref == nullptr || !parsed->has_content) {
    return verdict;  // actions-only response
  }
  if (!SameContent(*parsed, ref->snapshot)) {
    verdict.error = rcb::StrFormat(
        "snapshot at doc_time %lld differs from the paper-literal reference",
        static_cast<long long>(ref->doc_time_ms));
    return verdict;
  }
  if (ref->verified.empty()) {
    // First body of this version: time the participant-side apply.
    start = SteadyNs();
    std::unique_ptr<rcb::Element> tree = rcb::MaterializeSnapshotTree(*parsed);
    verdict.apply_ns = SteadyNs() - start;
    verdict.applied = true;
  }
  return verdict;
}

Verdict ContentOracle::CheckPatch(Reference* target, const std::string& body,
                                  int64_t acked_ms) {
  Verdict verdict;
  verdict.patch = true;
  verdict.content = true;
  int64_t start = SteadyNs();
  auto envelope = rcb::delta::ParsePatchXml(body);
  verdict.decode_ns = SteadyNs() - start;
  if (!envelope.ok()) {
    verdict.error = "patch does not decode: " + envelope.status().ToString();
    return verdict;
  }
  verdict.actions = envelope->user_actions;
  const rcb::delta::Patch& patch = envelope->patch;
  Reference* base = Find(acked_ms);
  if (patch.base_doc_time_ms != acked_ms || base == nullptr) {
    verdict.error = rcb::StrFormat(
        "patch base %lld is not the acked version %lld",
        static_cast<long long>(patch.base_doc_time_ms),
        static_cast<long long>(acked_ms));
    return verdict;
  }
  if (patch.target_doc_time_ms != target->doc_time_ms) {
    verdict.error = "patch target is not the current version";
    return verdict;
  }
  Materialize(base);
  Materialize(target);
  if (patch.base_digest != base->digest) {
    verdict.error = "patch baseDigest does not match the acked mirror";
    return verdict;
  }
  if (patch.target_digest != target->digest) {
    verdict.error = "patch docDigest does not match the reference version";
    return verdict;
  }
  start = SteadyNs();
  std::unique_ptr<rcb::Node> mirror = base->tree->Clone();
  rcb::Status applied =
      rcb::delta::ApplyPatchOps(mirror->AsElement(), patch.ops);
  std::string digest =
      applied.ok() ? rcb::delta::TreeDigest(*mirror->AsElement()) : "";
  verdict.apply_ns = SteadyNs() - start;
  verdict.applied = true;
  if (!applied.ok()) {
    verdict.error = "patch ops fail on the acked mirror: " + applied.ToString();
  } else if (digest != patch.target_digest) {
    verdict.error = "patched mirror does not hash to the patch docDigest";
  }
  return verdict;
}

}  // namespace perfbench
