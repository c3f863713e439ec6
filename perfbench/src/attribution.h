// Replay attribution for layers the driver does not call directly. In a
// traced run the public functions of src/delta, src/xml (the Fig. 4 codec)
// and src/persist are timed on inputs captured from that same run.
#ifndef PERFBENCH_SRC_ATTRIBUTION_H_
#define PERFBENCH_SRC_ATTRIBUTION_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/agent_state.h"
#include "src/core/protocol.h"

namespace perfbench {

// Consecutive versions (base, target) of one session's content.
using SnapshotPair = std::pair<rcb::Snapshot, rcb::Snapshot>;

// Adds protocol.snapshot_encode_us / protocol.snapshot_decode_us and, when
// `delta` is set, delta.materialize_us / delta.diff_us / delta.encode_us
// (zero otherwise) to `out`.
void AttributeContent(const std::vector<SnapshotPair>& pairs, bool delta,
                      SpanRecorder* spans, std::map<std::string, double>* out);

// Adds persist.checkpoint_us (EncodeCheckpoint + SessionStore::
// WriteCheckpoint) and persist.wal_append_us (EncodeWalRecord +
// SessionStore::Append) measured in `dir` on `state`. False when a write
// failed (the figures then mean nothing).
bool AttributePersist(const rcb::AgentStateExport& state,
                      const std::string& dir, SpanRecorder* spans,
                      std::map<std::string, double>* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ATTRIBUTION_H_
