// SerializeCache: dirty-subtree incremental serialization for the Fig. 3
// extract step (docs/PERF_MODEL.md).
//
// Extraction is the page-proportional tail of the pipeline: innerHTML
// serialization of the whole body plus a JsEscape of every byte, repeated on
// every document version even when one text node changed. This cache makes
// that cost proportional to the change.
//
// The cache sits inside the fused Fig. 3 walk: ContentGenerator walks the
// live document once, read-only, and ElementRewriter applies the absolutize,
// cache-mode and event rewrites to each element as this cache emits it.
//
// How it stays byte-identical to the paper-literal clone path:
//
//   * Identity. Every Node carries a revision (src/html/dom.h): mutations
//     restamp the node and its ancestors with fresh, globally unique values.
//     The walk reads the live nodes, so a cache entry keyed by rev names one
//     (node, subtree state) and can never alias a different state. (A clone
//     carries its source's revs, so the key is the same one the clone path
//     would use.) A miss is always safe; the bet is only on hit *rate*,
//     never on correctness of a hit... except for the inputs below, which
//     the key or the entry must also cover.
//
//   * Generation config. The rewritten bytes also depend on the absolutize
//     base URL, the cache mode, the agent URL, the ObjectCache contents
//     (which URLs map to /obj/<key>), and the presence of a cache-object
//     filter. The caller folds all of those into `config_fingerprint`; it is
//     part of the key. The filter itself must be pure and stable for a given
//     fingerprint (AgentConfig sets it once at construction).
//
//   * data-rcb-id numbering. Interactive elements are numbered by global
//     pre-order position, so an *unchanged* subtree serializes differently if
//     an interactive element was inserted before it. Each entry records the
//     pre-order interactive counter at its start (`id_base`) plus how many
//     interactive elements it contains; a hit requires the running counter to
//     equal the recorded base. Within a subtree ids are contiguous in
//     pre-order, so base equality implies every embedded id matches.
//
//   * Side effects. Step 3 looks objects up in the browser's ObjectCache,
//     which counts hits and misses and reorders its LRU list. Each entry
//     records the lookups its miss made (its subtrees' replays included) and
//     its rewrite counts; a hit replays them in pre-order, so the object
//     cache and GenerationResult's totals end up as a full rewrite leaves
//     them.
//
//   * Escape splicing. JsEscape and HtmlEscape are stateless per byte
//     (src/util/escape.h), so each entry stores the raw span *and* its
//     JsEscape image, built in lockstep; splicing cached escaped spans is
//     byte-identical to escaping the full serialization.
//
//   * Delta index. When the caller asks for it (the owning broadcast has
//     delta on), the walk also places every node of the canonical tree a
//     participant will parse from these bytes (src/delta/tree_diff.h), and
//     counts the constructs that would not survive that parse unchanged
//     (DESIGN.md §10.4). An entry keeps its span table relative to its own
//     start and whether its subtree held such a construct; a hit appends
//     the table shifted.
//
// Entries are plain copies (never pointers into a DOM), LRU evicted against a
// byte budget of their raw and escaped spans and span tables. Spans smaller
// than `min_span_bytes` are not cached: they are cheaper to re-serialize than
// to track.
#ifndef SRC_CORE_SERIALIZE_CACHE_H_
#define SRC_CORE_SERIALIZE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/html/dom.h"
#include "src/html/serializer.h"
#include "src/http/url.h"

namespace rcb {

class ElementRewriter;

class SerializeCache {
 public:
  struct Tuning {
    size_t budget_bytes = 4 * 1024 * 1024;  // serialize_cache_budget
    size_t min_span_bytes = 64;             // spans below this are not cached
  };

  // Mirrors ObjectCache::Stats: the shared budget-metric convention
  // (DESIGN.md §14) is {hits, misses, evictions, evicted_bytes} counters plus
  // a current-bytes and a current-entry-count gauge per cache.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t hit_bytes = 0;   // raw bytes served by splicing cached spans
    uint64_t miss_bytes = 0;  // raw bytes serialized the slow way
    size_t bytes = 0;         // current footprint (raw + escaped spans)
    size_t spans = 0;         // current entry count
  };

  SerializeCache() = default;
  explicit SerializeCache(Tuning tuning) : tuning_(tuning) {}
  SerializeCache(const SerializeCache&) = delete;
  SerializeCache& operator=(const SerializeCache&) = delete;

  // Where the children of one payload root land in the canonical tree that
  // ParseFragment rebuilds from their bytes: one span per canonical node in
  // pre-order (adjacent text merged, empty text dropped), positions in the
  // `raw` string, `next` counted from the first child. `refusals` counts the
  // constructs whose parse would differ from the live subtree; the spans
  // describe the parse only when it is 0.
  struct ChildIndex {
    std::vector<NodeSpan> spans;
    size_t refusals = 0;
  };

  // Serializes `element`'s children (its innerHTML) through the cache with
  // every element rewritten by `rewriter`, appending the raw bytes to `raw`
  // and their JsEscape image to `escaped`. Byte-identical to
  // SerializeChildren + JsEscape of the rewritten clone — asserted by
  // serialize_cache_test over random mutation schedules. With `index`, also
  // fills it for these children as a payload root's (parsed under a scratch
  // <div>).
  //
  // The rewriter carries the running pre-order data-rcb-id counter; the
  // caller threads one rewriter through the whole document in DOM order (see
  // ContentGenerator::Generate). It is read for hit validity and advanced
  // past every element either way.
  void AppendChildrenHtml(const Element& element, uint64_t config_fingerprint,
                          ElementRewriter* rewriter, std::string* raw,
                          std::string* escaped, ChildIndex* index = nullptr);

  // Drops every entry (e.g. when the owning generator is re-targeted).
  void Clear();

  const Stats& stats() const { return stats_; }
  const Tuning& tuning() const { return tuning_; }

 private:
  struct Key {
    uint64_t rev;
    uint64_t fingerprint;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix-style mix; revs are sequential so spread them.
      uint64_t x = k.rev * 0x9E3779B97F4A7C15ull ^ k.fingerprint;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    std::string raw;
    std::string escaped;
    size_t id_base = 0;            // interactive counter at span start
    size_t interactive_count = 0;  // interactive elements inside the span
    std::vector<Url> lookups;      // ObjectCache lookups inside the span
    size_t urls_absolutized = 0;
    size_t urls_cache_rewritten = 0;
    // Delta index of the span (see ChildIndex), kept only when the miss
    // that made the entry built one: begin/end relative to the span start,
    // next relative to the first entry of the table.
    bool indexed = false;
    bool refused = false;  // the subtree holds a construct the parse changes
    std::vector<NodeSpan> spans;
    std::list<Key>::iterator lru;

    size_t bytes() const {
      return raw.size() + escaped.size() + spans.size() * sizeof(NodeSpan);
    }
  };
  // Where a span began: the output sizes and the rewriter's counters.
  struct SpanStart {
    size_t raw = 0;
    size_t escaped = 0;
    size_t id_base = 0;
    size_t lookups = 0;
    size_t absolutized = 0;
    size_t cache_rewritten = 0;
    size_t spans = 0;
    size_t refusals = 0;
  };
  // One AppendChildrenHtml call's fixed arguments.
  struct Walk {
    uint64_t fingerprint;
    ElementRewriter* rewriter;
    std::string* raw;
    std::string* escaped;
    ChildIndex* index;  // null: no delta index wanted
  };

  void AppendChildren(const Element& element, bool payload_root,
                      const Walk& walk);
  void AppendNode(const Node& node, bool raw_text_parent, const Walk& walk);
  void AppendElement(const Element& element, const Walk& walk);
  // Appends the cached span for `key` if present, id-valid and indexed when
  // the walk indexes, and replays its lookups and counts through the
  // rewriter.
  bool TryAppendHit(const Key& key, const Walk& walk);
  static SpanStart StartSpan(const Walk& walk);
  // Index spans of a comment, doctype or element as the walk emits it: Open
  // places the node at the current output end, Close ends it there.
  static size_t OpenSpan(NodeType type, const Walk& walk);
  static void CloseSpan(size_t span, const Walk& walk);
  // Accounts a freshly serialized span (from `start` to the current output
  // end) and caches it when it clears the size floor and fits the budget.
  void RecordMissSpan(const Key& key, const SpanStart& start,
                      const Walk& walk);
  void Insert(Key key, Entry entry);
  void EvictToBudget();

  Tuning tuning_;
  Stats stats_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  // front = most recent
};

}  // namespace rcb

#endif  // SRC_CORE_SERIALIZE_CACHE_H_
