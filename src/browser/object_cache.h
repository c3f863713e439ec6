// Browser object cache — the stand-in for Mozilla's cache service.
//
// RCB-Agent's cache mode (Fig. 2 "object request" path) keeps a mapping
// table from request-URIs to cache keys and serves cached supplementary
// objects (images, CSS, scripts) directly to participant browsers. This
// cache exposes exactly that interface: entries are keyed by URL, carry an
// opaque cache key, and can be looked up by either.
//
// An optional byte budget bounds the cache: when set, inserts that push
// total_bytes past the budget evict least-recently-used entries (Lookup,
// LookupByKey, and Put all count as use) until the cache fits again. The
// newest entry is never evicted, even when it alone exceeds the budget.
#ifndef SRC_BROWSER_OBJECT_CACHE_H_
#define SRC_BROWSER_OBJECT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>

#include "src/http/url.h"
#include "src/util/status.h"

namespace rcb {

struct CacheEntry {
  std::string cache_key;     // opaque key, stable for the entry's lifetime
  std::string url;           // canonical absolute URL
  std::string content_type;  // e.g. "image/png"
  std::string body;
};

class ObjectCache {
 public:
  ObjectCache() = default;

  // Inserts or replaces the entry for `url`; returns its cache key.
  // May evict LRU entries when a byte budget is configured.
  std::string Put(const Url& url, std::string_view content_type,
                  std::string_view body);

  // Lookup by canonical URL. nullptr on miss. Counts hit/miss stats and
  // refreshes the entry's LRU position.
  const CacheEntry* Lookup(const Url& url);
  // Lookup by cache key (the agent's mapping-table path).
  const CacheEntry* LookupByKey(std::string_view cache_key);

  bool Contains(const Url& url) const;

  void Clear();
  size_t size() const { return by_url_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

  // 0 (default) disables eviction. Shrinking the budget evicts immediately.
  void set_byte_budget(uint64_t budget);
  uint64_t byte_budget() const { return byte_budget_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t evicted_bytes() const { return evicted_bytes_; }

  // Bumped whenever cache *contents* change (Put, eviction, Clear) — not by
  // lookups, which only reorder the LRU list. The serialization cache folds
  // this into its config fingerprint: cached rewritten spans embed
  // /obj/<key> URLs, so they are only reusable while the mapping table is
  // unchanged.
  uint64_t change_epoch() const { return change_epoch_; }

  // Canonical URLs of the entries, most recently used first.
  const std::list<std::string>& lru_order() const { return lru_; }

 private:
  struct Slot {
    CacheEntry entry;
    std::list<std::string>::iterator lru_pos;  // position in lru_ (MRU front)
  };

  void Touch(Slot& slot);
  // Evicts from the LRU tail until within budget; `keep` (if non-empty) names
  // a URL that must survive.
  void EnforceBudget(const std::string& keep);

  std::map<std::string, Slot> by_url_;
  std::map<std::string, std::string> key_to_url_;
  std::list<std::string> lru_;  // canonical URLs, most recently used first
  uint64_t byte_budget_ = 0;
  uint64_t next_key_ = 1;
  uint64_t total_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t evicted_bytes_ = 0;
  uint64_t change_epoch_ = 0;
};

}  // namespace rcb

#endif  // SRC_BROWSER_OBJECT_CACHE_H_
