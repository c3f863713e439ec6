// Response content generation — the Fig. 3 pipeline.
//
// When the host document changes, RCB-Agent:
//   1. clones the documentElement of the current document (all later steps
//      touch only the clone, never the live page),
//   2. converts relative URLs to absolute origin-server URLs,
//   3. in cache mode, rewrites the absolute URL of every supplementary object
//      present in the browser cache to an RCB-Agent URL (/obj/<cache-key>),
//   4. rewrites event attributes (onclick/onsubmit/onchange) so participant
//      interactions are routed back through Ajax-Snippet, tagging each
//      interactive element with its pre-order index ("data-rcb-id"),
//   5. extracts the attribute lists and innerHTML of the head children and of
//      the body (or frameset/noframes) into a Snapshot (Fig. 4).
//
// Those five steps run literally only with incremental serialization off;
// that is the paper-literal reference. The default path gets the same bytes
// from one read-only walk of the live documentElement: ElementRewriter
// applies steps 2-4 to each element as it is emitted, and the SerializeCache
// splices unchanged subtrees (DESIGN.md §14). Neither path writes to the live
// page, which is the paper's reason for cloning.
#ifndef SRC_CORE_CONTENT_GENERATOR_H_
#define SRC_CORE_CONTENT_GENERATOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/browser/browser.h"
#include "src/core/protocol.h"
#include "src/html/intern.h"
#include "src/core/serialize_cache.h"
#include "src/delta/tree_diff.h"
#include "src/util/sim_time.h"

namespace rcb {

// Hot-path knobs (README "hot-path knobs" table, docs/PERF_MODEL.md). All
// change cost only, never output bytes: incremental off must be
// byte-identical to incremental on.
struct GeneratorTuning {
  // Serialize only dirty subtrees through the SerializeCache; off falls back
  // to full InnerHtml + JsEscape per generation.
  bool incremental_serialize = true;
  size_t serialize_cache_budget = 4 * 1024 * 1024;
  size_t serialize_cache_min_span = 64;
  // Cap on the process-global tag/attribute interning table. The table is
  // shared by every document in the process (interned pointers must stay
  // stable across generator lifetimes), so this knob is applied process-wide
  // at generator construction; 0 leaves the current cap unchanged.
  size_t intern_table_max = 0;
};

struct ContentGenOptions {
  bool cache_mode = true;
  Url agent_url;  // base for rewritten object URLs, e.g. http://host-pc:3000/
  // §4.1.2: the agent may "allow different objects on the same webpage to
  // use different modes". When set (and cache_mode is on), only objects this
  // predicate accepts are rewritten to agent URLs; the rest stay pointed at
  // their origins. `kind` is "image" | "stylesheet" | "script" | "frame".
  std::function<bool(const Url& url, const std::string& kind)>
      cache_object_filter;
};

struct GenerationResult {
  Snapshot snapshot;
  // Pre-escaped payload CDATA text matching `snapshot` (filled on the
  // incremental path; empty/has_content=false when incremental_serialize is
  // off). SnapshotBroadcast stores it in the slot so per-participant
  // serializations splice instead of re-escaping the page.
  SnapshotEscaped escaped;
  size_t interactive_elements = 0;
  size_t urls_absolutized = 0;
  size_t urls_cache_rewritten = 0;
  // True when Generate filled the caller's delta index: the fused walk
  // vouched that every payload parses back to its live form (DESIGN.md
  // §10.4). Otherwise the caller indexes MaterializeSnapshotTree(snapshot).
  bool indexed = false;
  // Real (not simulated) CPU time of the pipeline — the paper's M5.
  Duration wall_time;
  // Per-stage breakdown of wall_time, one field per Fig. 3 step. Only the
  // paper-literal path (incremental off) runs the clone and the three
  // rewrite passes; the fused walk reports its whole cost as stage_extract.
  // The generator stays observability-free; SnapshotBroadcast feeds the
  // stages that ran into the agent's histograms
  // (rcb_agent_gen_stage_us{stage=...}).
  Duration stage_clone;
  Duration stage_absolutize;
  Duration stage_cache_rewrite;
  Duration stage_event_rewrite;
  Duration stage_extract;
};

// Fig. 3 steps 2-4 applied at emit time to the live document. One instance
// serves one generation: it reads each element and never writes to it, and it
// keeps the pre-order state the three rewrite passes kept on the clone — the
// data-rcb-id counter, the rewrite counts, and the ObjectCache lookups in the
// order they were made (the SerializeCache records a span's share of them and
// replays it on a hit, so the object cache's stats and LRU order come out as
// if every element had been rewritten).
class ElementRewriter {
 public:
  // What the passes would change on one element: at most one URL attribute
  // and, on an interactive element, data-rcb-id plus one event attribute.
  struct Edits {
    std::string url_attr;  // empty: the URL attribute is left as it is
    std::string url_value;
    bool interactive = false;
    std::string id;                    // data-rcb-id value
    std::string_view event_attr;       // onclick | onsubmit | onchange
    std::string_view event_value;

    // Calls emit(name, value) for the element's attributes as the passes
    // leave them: a rewritten attribute keeps its place, and data-rcb-id and
    // then the event attribute are appended when the element lacks them
    // (SetAttributeKeepRev semantics).
    template <typename Emit>
    void ForEachAttribute(const Element& element, Emit&& emit) const {
      bool has_id = false;
      bool has_event = false;
      for (const auto& [name, value] : element.attributes()) {
        if (!url_attr.empty() && name == url_attr) {
          emit(name, url_value);
        } else if (interactive && name == "data-rcb-id") {
          emit(name, id);
          has_id = true;
        } else if (interactive && name == event_attr) {
          emit(name, event_value);
          has_event = true;
        } else {
          emit(name, value);
        }
      }
      if (interactive && !has_id) {
        emit(std::string_view("data-rcb-id"), id);
      }
      if (interactive && !has_event) {
        emit(event_attr, event_value);
      }
    }
  };

  // `cache` is null outside cache mode (step 3 then never runs).
  ElementRewriter(const Url& base, ObjectCache* cache,
                  const ContentGenOptions& options)
      : base_(base), cache_(cache), options_(options) {}

  // Steps 2-4 for `element`, the next element in pre-order.
  void Rewrite(const Element& element, Edits* edits);
  // Rewrites `root` and its subtree for the counters and lookups alone (html
  // children the snapshot does not carry).
  void Skip(const Element& root);
  // A spliced cache span stands for elements rewritten by an earlier
  // generation: repeat their lookups and counts in this one.
  void Replay(const std::vector<Url>& lookups, size_t interactive,
              size_t absolutized, size_t cache_rewritten);

  size_t interactive_counter() const { return interactive_counter_; }
  size_t urls_absolutized() const { return urls_absolutized_; }
  size_t urls_cache_rewritten() const { return urls_cache_rewritten_; }
  // Every lookup of this generation so far, made or replayed, in order.
  const std::vector<Url>& lookups() const { return lookups_; }

 private:
  // Step 3 for an element whose URL attribute reads `absolute_url`: looks
  // the object up (logging the lookup) and returns its /obj/<key> URL when
  // the object cache holds it and the filter lets it through.
  std::optional<std::string> AgentObjectUrl(const Element& element,
                                            std::string_view absolute_url);

  const Url& base_;
  ObjectCache* cache_;
  const ContentGenOptions& options_;
  size_t interactive_counter_ = 0;
  size_t urls_absolutized_ = 0;
  size_t urls_cache_rewritten_ = 0;
  std::vector<Url> lookups_;
};

class ContentGenerator {
 public:
  explicit ContentGenerator(Browser* host_browser, GeneratorTuning tuning = {})
      : browser_(host_browser),
        tuning_(tuning),
        serialize_cache_(SerializeCache::Tuning{
            tuning.serialize_cache_budget, tuning.serialize_cache_min_span}) {
    if (tuning.intern_table_max != 0) {
      SetTagInternCap(tuning.intern_table_max);
    }
  }

  // Runs the five-step pipeline against the host browser's current document.
  // `doc_time_ms` stamps the snapshot (§4.1.1 timestamp mechanism).
  // Non-const: the serialization cache persists across calls — that reuse is
  // where the incremental win comes from. With `index` (the delta path), the
  // fused walk also builds the version's canonical index there, equal to
  // IndexTree(MaterializeSnapshotTree(snapshot)), and sets result.indexed;
  // it leaves `index` unspecified when it cannot vouch for the version.
  GenerationResult Generate(int64_t doc_time_ms,
                            const ContentGenOptions& options,
                            delta::TreeIndex* index = nullptr);

  // True for elements whose events RCB rewrites (anchors with href, forms,
  // form fields, buttons).
  static bool IsInteractive(const Element& element);

  // Pre-order enumeration of interactive elements. Index i in this vector is
  // the element that carries data-rcb-id="i" in generated snapshots; the
  // agent re-runs this on the live host document to resolve participant
  // action targets.
  static std::vector<Element*> InteractiveElements(Node* root);

  const GeneratorTuning& tuning() const { return tuning_; }
  const SerializeCache::Stats& serialize_cache_stats() const {
    return serialize_cache_.stats();
  }

 private:
  Browser* browser_;
  GeneratorTuning tuning_;
  SerializeCache serialize_cache_;
  // Previous update's main-payload (body/frameset) sizes, used to reserve
  // the raw and escaped output strings instead of growing them per append.
  size_t main_payload_raw_hint_ = 0;
  size_t main_payload_escaped_hint_ = 0;
  // Delta index of the body, frameset and noframes children (Generate with
  // an index), kept so their span buffers are reused across generations.
  SerializeCache::ChildIndex main_payload_index_[3];
};

// Materializes a snapshot into the canonical tree (src/delta/tree_diff.h) a
// participant's live document reduces to after a full Fig. 5 apply: payload
// elements are instantiated exactly as the snippet instantiates them
// (attributes in payload order, children via SetInnerHtml), so the agent's
// delta indexes and the participant's live tree digest-match by
// construction — parser quirks cancel out because both sides run the same
// parse. Indexed, it is the delta reference for a version the fused walk
// cannot vouch for, and for the paper-literal configuration.
std::unique_ptr<Element> MaterializeSnapshotTree(const Snapshot& snapshot);

}  // namespace rcb

#endif  // SRC_CORE_CONTENT_GENERATOR_H_
