// Output oracle: checks every content response the host sends against the
// paper-literal reference — a second ContentGenerator with incremental
// serialization off, run on the same document version — and checks every
// patch by applying it to a mirror of the tree the participant last acked.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/content_generator.h"
#include "src/core/protocol.h"

namespace perfbench {

// The reference content of one document version.
struct Reference {
  int64_t doc_time_ms = -1;
  rcb::Snapshot snapshot;
  // Materialized canonical tree and its digest (built on first need).
  std::unique_ptr<rcb::Element> tree;
  std::string digest;
  // Response bodies already checked against this version: an identical
  // later body needs no second decode.
  std::vector<std::string> verified;
};

// What the oracle found in one response body.
struct Verdict {
  std::string error;  // empty = correct
  bool content = false;  // carried document content (snapshot or patch)
  bool patch = false;
  int64_t doc_time_ms = -1;  // version served, when content
  std::vector<rcb::UserAction> actions;
  // Participant-side cost of this body, measured on the driver's mirror:
  // decode, and for the first body of a version the apply (Fig. 5 element
  // instantiation via MaterializeSnapshotTree, or patch ops + digest).
  int64_t decode_ns = 0;
  int64_t apply_ns = 0;
  bool applied = false;
};

class ContentOracle {
 public:
  // `browser` is the session's host browser; `agent_url` its agent's URL
  // (the base for cache-mode object rewrites). The reference uses the
  // default generator options, cache mode on, as the agents do.
  ContentOracle(rcb::Browser* browser, rcb::Url agent_url);

  // Reference for `doc_time_ms`, generated from the live document when this
  // version has not been seen; the caller guarantees the document is at
  // that version (true at response time: the driver is the only thread).
  Reference* RefFor(int64_t doc_time_ms);
  Reference* Find(int64_t doc_time_ms);
  // Ensures ref->tree / ref->digest exist.
  static void Materialize(Reference* ref);

  // Checks a poll response body; the poll acked version `acked_ms`.
  Verdict Check(const std::string& body, int64_t acked_ms);

  // Reference content of the live document, uncached, stamped doc_time_ms.
  rcb::Snapshot LiveSnapshot(int64_t doc_time_ms);
  // Digest of the reference content of the live document, uncached: what
  // every participant's canonical document must hash to once converged.
  std::string LiveDigest();

  // The kept versions, oldest first; attribution reads its inputs here.
  const std::deque<Reference>& references() const { return refs_; }

 private:
  // `ref` null: an actions-only reply, whose actions alone are decoded.
  Verdict CheckSnapshot(Reference* ref, const std::string& body);
  Verdict CheckPatch(Reference* target, const std::string& body,
                     int64_t acked_ms);

  rcb::ContentGenOptions options_;
  rcb::ContentGenerator generator_;
  std::deque<Reference> refs_;  // newest last, bounded
};

// Version named by a response's <docTime>; -2 when absent.
int64_t ServedDocTime(const std::string& body);

// Field-by-field equality of the document content of two snapshots.
bool SameContent(const rcb::Snapshot& a, const rcb::Snapshot& b);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
