#include "src/core/serialize_cache.h"

#include "src/core/content_generator.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb {

// The raw side of this walk must stay byte-for-byte the serializer's
// (src/html/serializer.cc SerializeInto) run on the rewritten clone;
// serialize_cache_test pins the two together over the corpus and random
// mutation schedules.

void SerializeCache::AppendChildrenHtml(const Element& element,
                                        uint64_t config_fingerprint,
                                        ElementRewriter* rewriter,
                                        std::string* raw,
                                        std::string* escaped) {
  AppendChildren(element, Walk{config_fingerprint, rewriter, raw, escaped});
}

void SerializeCache::AppendChildren(const Element& element, const Walk& walk) {
  const bool raw_text =
      HtmlTokenizer::IsRawTextElement(element.tag_name());
  for (const auto& child : element.children()) {
    AppendNode(*child, raw_text, walk);
  }
}

void SerializeCache::AppendNode(const Node& node, bool raw_text_parent,
                                const Walk& walk) {
  std::string* raw = walk.raw;
  switch (node.type()) {
    case NodeType::kDocument:
      for (const auto& child : node.children()) {
        AppendNode(*child, /*raw_text_parent=*/false, walk);
      }
      break;
    case NodeType::kText: {
      // Large text spans are cached too: a big text node (or the padding
      // comment below) can sit directly under <body>, whose own span misses
      // on every update — without this, its escape cost would be paid per
      // update. Text carries no data-rcb-ids, so hits ignore the counter.
      // Spans under the size floor skip the cache entirely (no lookup, no
      // stats): they are cheaper to re-serialize than to hash.
      const std::string& data = static_cast<const Text&>(node).data();
      const bool cacheable = data.size() >= tuning_.min_span_bytes;
      const Key key{node.rev(), walk.fingerprint};
      if (cacheable && TryAppendHit(key, walk)) {
        break;
      }
      const SpanStart start = StartSpan(walk);
      if (raw_text_parent) {
        raw->append(data);  // script/style content is emitted verbatim
      } else {
        HtmlEscapeAppend(data, raw);
      }
      JsEscapeAppend(std::string_view(*raw).substr(start.raw), walk.escaped);
      if (cacheable) {
        RecordMissSpan(key, start, walk);
      }
      break;
    }
    case NodeType::kComment: {
      const std::string& data = static_cast<const Comment&>(node).data();
      const bool cacheable = data.size() >= tuning_.min_span_bytes;
      const Key key{node.rev(), walk.fingerprint};
      if (cacheable && TryAppendHit(key, walk)) {
        break;
      }
      const SpanStart start = StartSpan(walk);
      raw->append("<!--");
      raw->append(data);
      raw->append("-->");
      JsEscapeAppend(std::string_view(*raw).substr(start.raw), walk.escaped);
      if (cacheable) {
        RecordMissSpan(key, start, walk);
      }
      break;
    }
    case NodeType::kDoctype: {
      size_t start = raw->size();
      raw->append("<!");
      raw->append(static_cast<const Doctype&>(node).data());
      raw->append(">");
      JsEscapeAppend(std::string_view(*raw).substr(start), walk.escaped);
      break;
    }
    case NodeType::kElement:
      AppendElement(static_cast<const Element&>(node), walk);
      break;
  }
}

void SerializeCache::AppendElement(const Element& element, const Walk& walk) {
  const Key key{element.rev(), walk.fingerprint};
  if (TryAppendHit(key, walk)) {
    return;
  }
  // Miss (or an id-shifted entry, which will be overwritten with the current
  // numbering): rewrite and serialize this subtree, then keep the spans.
  std::string* raw = walk.raw;
  const SpanStart start = StartSpan(walk);
  ElementRewriter::Edits edits;
  walk.rewriter->Rewrite(element, &edits);
  raw->push_back('<');
  raw->append(element.tag_name());
  edits.ForEachAttribute(element,
                         [raw](std::string_view name, std::string_view value) {
                           raw->push_back(' ');
                           raw->append(name);
                           raw->append("=\"");
                           HtmlEscapeAppend(value, raw);
                           raw->push_back('"');
                         });
  raw->push_back('>');
  JsEscapeAppend(std::string_view(*raw).substr(start.raw), walk.escaped);
  if (!IsVoidElement(element.tag_name())) {
    AppendChildren(element, walk);
    size_t close_start = raw->size();
    raw->append("</");
    raw->append(element.tag_name());
    raw->push_back('>');
    JsEscapeAppend(std::string_view(*raw).substr(close_start), walk.escaped);
  }
  RecordMissSpan(key, start, walk);
}

bool SerializeCache::TryAppendHit(const Key& key, const Walk& walk) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  Entry& entry = it->second;
  // A span containing no interactive elements embeds no data-rcb-ids, so its
  // bytes are independent of the counter; only id-bearing spans must match.
  if (entry.interactive_count != 0 &&
      entry.id_base != walk.rewriter->interactive_counter()) {
    return false;
  }
  walk.raw->append(entry.raw);
  walk.escaped->append(entry.escaped);
  walk.rewriter->Replay(entry.lookups, entry.interactive_count,
                        entry.urls_absolutized, entry.urls_cache_rewritten);
  ++stats_.hits;
  stats_.hit_bytes += entry.raw.size();
  lru_.splice(lru_.begin(), lru_, entry.lru);
  return true;
}

SerializeCache::SpanStart SerializeCache::StartSpan(const Walk& walk) {
  const ElementRewriter& rewriter = *walk.rewriter;
  return SpanStart{walk.raw->size(),
                   walk.escaped->size(),
                   rewriter.interactive_counter(),
                   rewriter.lookups().size(),
                   rewriter.urls_absolutized(),
                   rewriter.urls_cache_rewritten()};
}

void SerializeCache::RecordMissSpan(const Key& key, const SpanStart& start,
                                    const Walk& walk) {
  ++stats_.misses;
  const size_t span_bytes = walk.raw->size() - start.raw;
  stats_.miss_bytes += span_bytes;
  if (span_bytes < tuning_.min_span_bytes ||
      span_bytes > tuning_.budget_bytes) {
    return;
  }
  const ElementRewriter& rewriter = *walk.rewriter;
  Entry entry;
  entry.raw = walk.raw->substr(start.raw);
  entry.escaped = walk.escaped->substr(start.escaped);
  entry.id_base = start.id_base;
  entry.interactive_count = rewriter.interactive_counter() - start.id_base;
  entry.lookups.assign(rewriter.lookups().begin() + start.lookups,
                       rewriter.lookups().end());
  entry.urls_absolutized = rewriter.urls_absolutized() - start.absolutized;
  entry.urls_cache_rewritten =
      rewriter.urls_cache_rewritten() - start.cache_rewritten;
  Insert(key, std::move(entry));
}

void SerializeCache::Insert(Key key, Entry entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same subtree state re-serialized under a shifted id_base: replace.
    stats_.bytes -= it->second.raw.size() + it->second.escaped.size();
    lru_.erase(it->second.lru);
    --stats_.spans;
    entries_.erase(it);
  }
  stats_.bytes += entry.raw.size() + entry.escaped.size();
  ++stats_.spans;
  lru_.push_front(key);
  entry.lru = lru_.begin();
  entries_.emplace(key, std::move(entry));
  EvictToBudget();
}

void SerializeCache::EvictToBudget() {
  while (stats_.bytes > tuning_.budget_bytes && !lru_.empty()) {
    Key victim = lru_.back();
    auto it = entries_.find(victim);
    size_t victim_bytes = it->second.raw.size() + it->second.escaped.size();
    stats_.bytes -= victim_bytes;
    stats_.evicted_bytes += victim_bytes;
    ++stats_.evictions;
    --stats_.spans;
    lru_.pop_back();
    entries_.erase(it);
  }
}

void SerializeCache::Clear() {
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
  stats_.spans = 0;
}

}  // namespace rcb
