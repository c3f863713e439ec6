#include "src/core/serialize_cache.h"

#include <cctype>

#include "src/core/content_generator.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb {
namespace {

constexpr size_t kNoSpan = static_cast<size_t>(-1);

// True when ParseFragment turns `text`, standing alone, back into one text
// node holding exactly `text`: nothing in it opens markup and no entity in
// it decodes.
bool ParsesAsItself(std::string_view text) {
  for (size_t lt = text.find('<'); lt != std::string_view::npos;
       lt = text.find('<', lt + 1)) {
    if (lt + 1 < text.size() &&
        (std::isalpha(static_cast<unsigned char>(text[lt + 1])) ||
         text[lt + 1] == '/' || text[lt + 1] == '!')) {
      return false;
    }
  }
  return text.find('&') == std::string_view::npos || HtmlUnescape(text) == text;
}

}  // namespace

// The raw side of this walk must stay byte-for-byte the serializer's
// (src/html/serializer.cc SerializeInto) run on the rewritten clone;
// serialize_cache_test pins the two together over the corpus and random
// mutation schedules.

void SerializeCache::AppendChildrenHtml(const Element& element,
                                        uint64_t config_fingerprint,
                                        ElementRewriter* rewriter,
                                        std::string* raw,
                                        std::string* escaped,
                                        ChildIndex* index) {
  AppendChildren(element, /*payload_root=*/true,
                 Walk{config_fingerprint, rewriter, raw, escaped, index});
}

// With an index, also checks the parse rules between `element` and its
// children (DESIGN.md §10.4) and places its text children: adjacent text
// shares one span and empty text gets none, as NormalizeTextNodes leaves
// the parsed tree.
void SerializeCache::AppendChildren(const Element& element, bool payload_root,
                                    const Walk& walk) {
  const bool raw_text =
      HtmlTokenizer::IsRawTextElement(element.tag_name());
  ChildIndex* index = walk.index;
  if (index == nullptr) {
    for (const auto& child : element.children()) {
      AppendNode(*child, raw_text, walk);
    }
    return;
  }
  const size_t content_start = walk.raw->size();
  size_t text_span = kNoSpan;  // the span adjacent text merges into
  for (const auto& child : element.children()) {
    const Element* child_element = child->AsElement();
    // A payload root's children are parsed under a scratch <div>, which no
    // start tag closes implicitly.
    if ((raw_text && child->type() != NodeType::kText) ||
        (child_element != nullptr && !payload_root &&
         ClosesImplicitly(child_element->tag_name(), element.tag_name()))) {
      ++index->refusals;
    }
    const auto begin = static_cast<uint32_t>(walk.raw->size());
    AppendNode(*child, raw_text, walk);
    const auto end = static_cast<uint32_t>(walk.raw->size());
    if (child->type() != NodeType::kText) {
      text_span = kNoSpan;
    } else if (begin == end) {
      continue;  // empty text parses to no node
    } else if (text_span != kNoSpan) {
      index->spans[text_span].end = end;
    } else {
      text_span = index->spans.size();
      index->spans.push_back({begin, end,
                              static_cast<uint32_t>(text_span + 1),
                              NodeType::kText});
    }
  }
  if (raw_text) {
    // Raw text is lexed back up to the first "</"; under a payload root it is
    // not raw at all but parsed as markup.
    const std::string_view content =
        std::string_view(*walk.raw).substr(content_start);
    if (payload_root ? !ParsesAsItself(content)
                     : content.find("</") != std::string_view::npos) {
      ++index->refusals;
    }
  }
}

size_t SerializeCache::OpenSpan(NodeType type, const Walk& walk) {
  if (walk.index == nullptr) {
    return kNoSpan;
  }
  walk.index->spans.push_back(
      {static_cast<uint32_t>(walk.raw->size()), 0, 0, type});
  return walk.index->spans.size() - 1;
}

void SerializeCache::CloseSpan(size_t span, const Walk& walk) {
  if (span == kNoSpan) {
    return;
  }
  NodeSpan& node_span = walk.index->spans[span];
  node_span.end = static_cast<uint32_t>(walk.raw->size());
  node_span.next = static_cast<uint32_t>(walk.index->spans.size());
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
      const size_t span = OpenSpan(NodeType::kComment, walk);
      if (walk.index != nullptr &&
          (data.find("--") != std::string::npos ||
           (!data.empty() && data.back() == '-'))) {
        ++walk.index->refusals;  // "-->" would end it early or late
      }
      raw->append("<!--");
      raw->append(data);
      raw->append("-->");
      CloseSpan(span, walk);
      JsEscapeAppend(std::string_view(*raw).substr(start.raw), walk.escaped);
      if (cacheable) {
        RecordMissSpan(key, start, walk);
      }
      break;
    }
    case NodeType::kDoctype: {
      size_t start = raw->size();
      const size_t span = OpenSpan(NodeType::kDoctype, walk);
      if (walk.index != nullptr) {
        ++walk.index->refusals;  // a payload is parsed without its doctype
      }
      raw->append("<!");
      raw->append(static_cast<const Doctype&>(node).data());
      raw->append(">");
      CloseSpan(span, walk);
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
  const size_t span = OpenSpan(NodeType::kElement, walk);
  ChildIndex* index = walk.index;
  if (index != nullptr && !HtmlTokenizer::LexesAsTagName(element.tag_name())) {
    ++index->refusals;
  }
  ElementRewriter::Edits edits;
  walk.rewriter->Rewrite(element, &edits);
  raw->push_back('<');
  raw->append(element.tag_name());
  edits.ForEachAttribute(
      element, [raw, index](std::string_view name, std::string_view value) {
        if (index != nullptr && !HtmlTokenizer::LexesAsAttributeName(name)) {
          ++index->refusals;
        }
        raw->push_back(' ');
        raw->append(name);
        raw->append("=\"");
        HtmlEscapeAppend(value, raw);
        raw->push_back('"');
      });
  raw->push_back('>');
  JsEscapeAppend(std::string_view(*raw).substr(start.raw), walk.escaped);
  if (!IsVoidElement(element.tag_name())) {
    AppendChildren(element, /*payload_root=*/false, walk);
    size_t close_start = raw->size();
    raw->append("</");
    raw->append(element.tag_name());
    raw->push_back('>');
    JsEscapeAppend(std::string_view(*raw).substr(close_start), walk.escaped);
  }
  CloseSpan(span, walk);
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
  if (ChildIndex* index = walk.index; index != nullptr) {
    if (!entry.indexed) {
      return false;  // made without an index: rebuild it with one
    }
    const auto at = static_cast<uint32_t>(walk.raw->size());
    const auto first = static_cast<uint32_t>(index->spans.size());
    for (const NodeSpan& span : entry.spans) {
      index->spans.push_back(
          {span.begin + at, span.end + at, span.next + first, span.type});
    }
    index->refusals += entry.refused ? 1 : 0;
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
                   rewriter.urls_cache_rewritten(),
                   walk.index == nullptr ? 0 : walk.index->spans.size(),
                   walk.index == nullptr ? 0 : walk.index->refusals};
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
  if (const ChildIndex* index = walk.index; index != nullptr) {
    entry.indexed = true;
    entry.refused = index->refusals != start.refusals;
    const auto raw_start = static_cast<uint32_t>(start.raw);
    const auto first = static_cast<uint32_t>(start.spans);
    entry.spans.reserve(index->spans.size() - start.spans);
    for (size_t i = start.spans; i < index->spans.size(); ++i) {
      const NodeSpan& span = index->spans[i];
      entry.spans.push_back({span.begin - raw_start, span.end - raw_start,
                             span.next - first, span.type});
    }
  }
  Insert(key, std::move(entry));
}

void SerializeCache::Insert(Key key, Entry entry) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same subtree state re-serialized under a shifted id_base: replace.
    stats_.bytes -= it->second.bytes();
    lru_.erase(it->second.lru);
    --stats_.spans;
    entries_.erase(it);
  }
  stats_.bytes += entry.bytes();
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
    size_t victim_bytes = it->second.bytes();
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
