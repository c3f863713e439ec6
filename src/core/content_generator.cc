#include "src/core/content_generator.h"

#include <chrono>

#include "src/browser/resources.h"
#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/util/escape.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {

bool ContentGenerator::IsInteractive(const Element& element) {
  const std::string& tag = element.tag_name();
  if (tag == "a") {
    return element.HasAttribute("href");
  }
  return tag == "form" || tag == "input" || tag == "textarea" ||
         tag == "select" || tag == "button";
}

std::vector<Element*> ContentGenerator::InteractiveElements(Node* root) {
  std::vector<Element*> out;
  root->ForEachElement([&out](Element* element) {
    if (IsInteractive(*element)) {
      out.push_back(element);
    }
    return true;
  });
  return out;
}

void ElementRewriter::Rewrite(const Element& element, Edits* edits) {
  std::string attr;
  if (UrlAttributeFor(element, &attr)) {
    std::string_view value;
    for (const auto& [name, existing] : element.attributes()) {
      if (name == attr) {
        value = existing;
        break;
      }
    }
    bool rewritten = false;
    // Step 2: relative -> absolute.
    if (!value.empty() && !StartsWith(value, "javascript:") &&
        !StartsWith(value, "data:") && !StartsWith(value, "#") &&
        !IsAbsoluteUrl(value)) {
      auto resolved = base_.Resolve(value);
      if (resolved.ok()) {
        edits->url_value = resolved->ToStringWithFragment();
        value = edits->url_value;
        rewritten = true;
        ++urls_absolutized_;
      }
    }
    // Step 3: cached supplementary objects -> agent URLs.
    if (cache_ != nullptr && IsAbsoluteUrl(value)) {
      std::optional<std::string> object_url = AgentObjectUrl(element, value);
      if (object_url.has_value()) {
        edits->url_value = std::move(*object_url);
        rewritten = true;
        ++urls_cache_rewritten_;
      }
    }
    if (rewritten) {
      edits->url_attr = std::move(attr);
    }
  }
  // Step 4: event attributes plus the pre-order data-rcb-id.
  if (ContentGenerator::IsInteractive(element)) {
    edits->interactive = true;
    edits->id = StrFormat("%zu", interactive_counter_++);
    const std::string& tag = element.tag_name();
    if (tag == "form") {
      edits->event_attr = "onsubmit";
      edits->event_value = "return rcbSubmit(this)";
    } else if (tag == "a" || tag == "button") {
      edits->event_attr = "onclick";
      edits->event_value = "return rcbClick(this)";
    } else {
      edits->event_attr = "onchange";
      edits->event_value = "rcbFill(this)";
    }
  }
}

std::optional<std::string> ElementRewriter::AgentObjectUrl(
    const Element& element, std::string_view absolute_url) {
  std::string kind = SupplementaryKindFor(element);
  if (kind.empty()) {
    return std::nullopt;
  }
  auto url = Url::Parse(absolute_url);
  if (!url.ok() || (options_.cache_object_filter &&
                    !options_.cache_object_filter(*url, kind))) {
    return std::nullopt;
  }
  const CacheEntry* entry = cache_->Lookup(*url);
  lookups_.push_back(std::move(*url));
  if (entry == nullptr) {
    return std::nullopt;
  }
  const Url& agent_url = options_.agent_url;
  return Url::Make(agent_url.scheme(), agent_url.host(), agent_url.port(),
                   "/obj/" + entry->cache_key)
      .ToString();
}

void ElementRewriter::Skip(const Element& root) {
  Edits edits;
  Rewrite(root, &edits);
  root.ForEachElement([this](const Element* element) {
    Edits discarded;
    Rewrite(*element, &discarded);
    return true;
  });
}

void ElementRewriter::Replay(const std::vector<Url>& lookups,
                             size_t interactive, size_t absolutized,
                             size_t cache_rewritten) {
  for (const Url& url : lookups) {
    cache_->Lookup(url);
    lookups_.push_back(url);
  }
  interactive_counter_ += interactive;
  urls_absolutized_ += absolutized;
  urls_cache_rewritten_ += cache_rewritten;
}

namespace {

// Steps 2-4 as literal passes over the clone: the paper-literal reference
// path (incremental off). ElementRewriter applies the same rewrites to the
// live page at emit time; serialize_cache_test holds the two to equal bytes
// and equal object-cache side effects.

// Step 2 of Fig. 3: convert relative URLs of the cloned document to absolute
// origin-server URLs. Returns the number of attributes rewritten.
size_t AbsolutizeUrls(Element* clone_root, const Url& base) {
  size_t rewritten = 0;
  auto rewrite = [&](Element* element) {
    std::string attr;
    if (!UrlAttributeFor(*element, &attr)) {
      return true;
    }
    std::string value = element->AttrOr(attr);
    if (value.empty() || StartsWith(value, "javascript:") ||
        StartsWith(value, "data:") || StartsWith(value, "#") ||
        IsAbsoluteUrl(value)) {
      return true;
    }
    auto resolved = base.Resolve(value);
    if (resolved.ok()) {
      // KeepRev: the clone dies with this generation, so its writes draw no
      // fresh revs from the process-wide counter.
      element->SetAttributeKeepRev(attr, resolved->ToStringWithFragment());
      ++rewritten;
    }
    return true;
  };
  // The root element itself cannot carry a URL attribute (<html>), so walking
  // descendants is sufficient.
  clone_root->ForEachElement(rewrite);
  return rewritten;
}

// Step 3: rewrite cached supplementary-object URLs to agent URLs.
size_t RewriteCachedUrls(Element* clone_root, ObjectCache* cache,
                         const ContentGenOptions& options) {
  const Url& agent_url = options.agent_url;
  size_t rewritten = 0;
  clone_root->ForEachElement([&](Element* element) {
    std::string kind = SupplementaryKindFor(*element);
    if (kind.empty()) {
      return true;
    }
    std::string attr;
    if (!UrlAttributeFor(*element, &attr)) {
      return true;
    }
    std::string value = element->AttrOr(attr);
    if (!IsAbsoluteUrl(value)) {
      return true;  // absolutization step already skipped it
    }
    auto url = Url::Parse(value);
    if (!url.ok()) {
      return true;
    }
    if (options.cache_object_filter && !options.cache_object_filter(*url, kind)) {
      return true;  // this object stays in non-cache mode
    }
    const CacheEntry* entry = cache->Lookup(*url);
    if (entry == nullptr) {
      return true;  // not cached: participant fetches from the origin
    }
    Url object_url = Url::Make(agent_url.scheme(), agent_url.host(),
                               agent_url.port(), "/obj/" + entry->cache_key);
    element->SetAttributeKeepRev(attr, object_url.ToString());
    ++rewritten;
    return true;
  });
  return rewritten;
}

// Step 4: event-attribute rewriting + data-rcb-id tagging.
size_t RewriteEventAttributes(Element* clone_root) {
  std::vector<Element*> interactive =
      ContentGenerator::InteractiveElements(clone_root);
  for (size_t i = 0; i < interactive.size(); ++i) {
    Element* element = interactive[i];
    element->SetAttributeKeepRev("data-rcb-id", StrFormat("%zu", i));
    const std::string& tag = element->tag_name();
    if (tag == "form") {
      element->SetAttributeKeepRev("onsubmit", "return rcbSubmit(this)");
    } else if (tag == "a") {
      element->SetAttributeKeepRev("onclick", "return rcbClick(this)");
    } else if (tag == "button") {
      element->SetAttributeKeepRev("onclick", "return rcbClick(this)");
    } else {
      element->SetAttributeKeepRev("onchange", "rcbFill(this)");
    }
  }
  return interactive.size();
}

ElementPayload ExtractPayload(const Element& element) {
  ElementPayload payload;
  payload.tag = element.tag_name();
  payload.attributes = element.attributes();
  payload.inner_html = element.InnerHtml();
  return payload;
}

// Fused flavour: `element` is a live payload root. Its own attributes are
// rewritten here and its innerHTML goes through the serialization cache, raw
// and escaped in lockstep, with every descendant rewritten as it is emitted.
// The encoded prefix (tag + attributes, no innerHTML) is escaped straight
// into the output and the cache splices the children's escaped spans after
// it — no intermediate copy of the page-sized escaped image.
// `raw_hint`/`escaped_hint` (optional, in/out) carry the previous update's
// sizes so both strings are reserved once instead of grown through
// reallocation.
// `index` (optional) receives the delta index of the payload's children.
ElementPayload ExtractPayloadFused(const Element& element,
                                   SerializeCache* cache, uint64_t fingerprint,
                                   ElementRewriter* rewriter,
                                   EscapedPayload* escaped,
                                   SerializeCache::ChildIndex* index,
                                   size_t* raw_hint = nullptr,
                                   size_t* escaped_hint = nullptr) {
  ElementPayload payload;
  payload.tag = element.tag_name();
  ElementRewriter::Edits edits;
  rewriter->Rewrite(element, &edits);
  edits.ForEachAttribute(
      element, [&payload](std::string_view name, std::string_view value) {
        payload.attributes.emplace_back(name, value);
      });
  if (raw_hint != nullptr && *raw_hint != 0) {
    payload.inner_html.reserve(*raw_hint + *raw_hint / 8);
    escaped->escaped.reserve(*escaped_hint + *escaped_hint / 8);
  }
  const std::string prefix = EncodeElementPayloadPrefix(payload);
  JsEscapeAppend(prefix, &escaped->escaped);
  cache->AppendChildrenHtml(element, fingerprint, rewriter,
                            &payload.inner_html, &escaped->escaped, index);
  if (index != nullptr && IsVoidElement(payload.tag) &&
      !payload.inner_html.empty()) {
    // SetInnerHtml gives the element children its serialization never shows.
    ++index->refusals;
  }
  escaped->raw_bytes = prefix.size() + payload.inner_html.size();
  if (raw_hint != nullptr) {
    *raw_hint = payload.inner_html.size();
    *escaped_hint = escaped->escaped.size();
  }
  return payload;
}

// Everything outside the DOM that the rewritten clone bytes depend on; part
// of the serialization-cache key (see serialize_cache.h). The filter term is
// presence-only: AgentConfig installs the filter once at construction, so
// its behaviour is constant per generator.
uint64_t ConfigFingerprint(Browser* browser, const ContentGenOptions& options) {
  std::string basis = options.agent_url.ToString();
  basis += '\x1f';
  basis += browser->current_url().ToString();
  basis += '\x1f';
  basis += options.cache_mode ? '1' : '0';
  basis += options.cache_object_filter ? 'F' : '-';
  if (options.cache_mode) {
    // Cached spans embed /obj/<key> URLs; any mapping-table change must
    // re-key them. Non-cache-mode output never reads the object cache.
    basis += StrFormat("%llu", static_cast<unsigned long long>(
                                   browser->cache().change_epoch()));
  }
  return StableHash64(basis);
}

// Appends a payload root and its children to `index` as IndexTree lays
// them out in the materialized tree: the root is built by MakeElement and
// SetAttribute (its start tag is the payload's), its children are the parse
// of its innerHTML, which `children` places relative to that string.
void AppendPayloadIndex(const ElementPayload& payload,
                        const SerializeCache::ChildIndex& children,
                        delta::TreeIndex* index) {
  std::string& bytes = index->bytes;
  const size_t root = index->spans.size();
  index->spans.push_back(
      {static_cast<uint32_t>(bytes.size()), 0, 0, NodeType::kElement});
  bytes += '<';
  bytes += payload.tag;
  for (const auto& [name, value] : payload.attributes) {
    bytes += ' ';
    bytes += name;
    bytes += "=\"";
    HtmlEscapeAppend(value, &bytes);
    bytes += '"';
  }
  bytes += '>';
  if (!IsVoidElement(payload.tag)) {
    const auto at = static_cast<uint32_t>(bytes.size());
    const auto first = static_cast<uint32_t>(index->spans.size());
    bytes += payload.inner_html;
    for (const NodeSpan& span : children.spans) {
      index->spans.push_back(
          {span.begin + at, span.end + at, span.next + first, span.type});
    }
    bytes += "</";
    bytes += payload.tag;
    bytes += '>';
  }
  index->spans[root].end = static_cast<uint32_t>(bytes.size());
  index->spans[root].next = static_cast<uint32_t>(index->spans.size());
}

// The canonical index of a snapshot the fused walk produced: <html> holding
// <head> (the head payloads) and then the body, frameset and noframes
// payloads, in MaterializeSnapshotTree's order.
void BuildSnapshotIndex(
    const Snapshot& snapshot,
    const std::vector<SerializeCache::ChildIndex>& head_children,
    const SerializeCache::ChildIndex (&main_children)[3],
    delta::TreeIndex* index) {
  const std::optional<ElementPayload>* mains[3] = {
      &snapshot.body, &snapshot.frameset, &snapshot.noframes};
  // Room for the payloads' inner HTML and spans, plus slack for the wrapper
  // and the payload roots' tags.
  size_t bytes = 1024;
  size_t spans = 64;
  for (size_t i = 0; i < head_children.size(); ++i) {
    bytes += snapshot.head_children[i].inner_html.size();
    spans += head_children[i].spans.size();
  }
  for (size_t i = 0; i < 3; ++i) {
    if (mains[i]->has_value()) {
      bytes += (*mains[i])->inner_html.size();
      spans += main_children[i].spans.size();
    }
  }
  index->bytes.clear();
  index->bytes.reserve(bytes);
  index->spans.clear();
  index->spans.reserve(spans);
  index->spans.push_back({0, 0, 0, NodeType::kElement});
  index->bytes += "<html>";
  index->spans.push_back({6, 0, 0, NodeType::kElement});
  index->bytes += "<head>";
  for (size_t i = 0; i < head_children.size(); ++i) {
    AppendPayloadIndex(snapshot.head_children[i], head_children[i], index);
  }
  index->bytes += "</head>";
  index->spans[1].end = static_cast<uint32_t>(index->bytes.size());
  index->spans[1].next = static_cast<uint32_t>(index->spans.size());
  for (size_t i = 0; i < 3; ++i) {
    if (mains[i]->has_value()) {
      AppendPayloadIndex(**mains[i], main_children[i], index);
    }
  }
  index->bytes += "</html>";
  index->spans[0].end = static_cast<uint32_t>(index->bytes.size());
  index->spans[0].next = static_cast<uint32_t>(index->spans.size());
  index->canonical_size = index->spans[0].end;
}

}  // namespace

GenerationResult ContentGenerator::Generate(int64_t doc_time_ms,
                                            const ContentGenOptions& options,
                                            delta::TreeIndex* index) {
  auto start = std::chrono::steady_clock::now();
  auto stage_start = start;
  auto end_stage = [&stage_start]() {
    auto now = std::chrono::steady_clock::now();
    Duration elapsed = Duration::Micros(
        std::chrono::duration_cast<std::chrono::microseconds>(now - stage_start)
            .count());
    stage_start = now;
    return elapsed;
  };
  GenerationResult result;
  result.snapshot.doc_time_ms = doc_time_ms;

  Document* document = browser_->document();
  if (document == nullptr || document->document_element() == nullptr) {
    result.snapshot.has_content = false;
    return result;
  }
  const Element& root = *document->document_element();
  result.snapshot.has_content = true;

  if (tuning_.incremental_serialize) {
    // One read-only walk in DOM order: steps 2-4 happen as each element is
    // emitted, step 5 splices cached spans for unchanged subtrees. The
    // rewriter numbers data-rcb-ids in the same pre-order as the event pass,
    // so cached spans can assert their embedded ids are still current
    // (serialize_cache.h).
    result.escaped.has_content = true;
    const uint64_t fingerprint = ConfigFingerprint(browser_, options);
    ElementRewriter rewriter(browser_->current_url(),
                             options.cache_mode ? &browser_->cache() : nullptr,
                             options);
    // Delta indexes of the payloads' children: head payloads in order, then
    // body, frameset, noframes (a later duplicate replaces an earlier one,
    // as in the snapshot). The page-sized main ones keep their buffers
    // across generations.
    std::vector<SerializeCache::ChildIndex> head_index;
    auto index_slot = [index](SerializeCache::ChildIndex* slot) {
      if (index == nullptr) {
        return static_cast<SerializeCache::ChildIndex*>(nullptr);
      }
      slot->spans.clear();
      slot->refusals = 0;
      return slot;
    };
    for (SerializeCache::ChildIndex& slot : main_payload_index_) {
      index_slot(&slot);  // an absent payload carries nothing over
    }
    for (const auto& child : root.children()) {
      const Element* element = child->AsElement();
      if (element == nullptr) {
        continue;
      }
      const std::string& tag = element->tag_name();
      if (tag == "head") {
        ElementRewriter::Edits unused;
        rewriter.Rewrite(*element, &unused);
        for (const auto& head_child : element->children()) {
          if (const Element* head_element = head_child->AsElement()) {
            EscapedPayload escaped;
            result.snapshot.head_children.push_back(ExtractPayloadFused(
                *head_element, &serialize_cache_, fingerprint, &rewriter,
                &escaped,
                index == nullptr ? nullptr : &head_index.emplace_back()));
            result.escaped.head_children.push_back(std::move(escaped));
          }
        }
      } else if (tag == "body") {
        EscapedPayload escaped;
        result.snapshot.body = ExtractPayloadFused(
            *element, &serialize_cache_, fingerprint, &rewriter, &escaped,
            index_slot(&main_payload_index_[0]), &main_payload_raw_hint_,
            &main_payload_escaped_hint_);
        result.escaped.body = std::move(escaped);
      } else if (tag == "frameset") {
        EscapedPayload escaped;
        result.snapshot.frameset = ExtractPayloadFused(
            *element, &serialize_cache_, fingerprint, &rewriter, &escaped,
            index_slot(&main_payload_index_[1]), &main_payload_raw_hint_,
            &main_payload_escaped_hint_);
        result.escaped.frameset = std::move(escaped);
      } else if (tag == "noframes") {
        EscapedPayload escaped;
        result.snapshot.noframes = ExtractPayloadFused(
            *element, &serialize_cache_, fingerprint, &rewriter, &escaped,
            index_slot(&main_payload_index_[2]));
        result.escaped.noframes = std::move(escaped);
      } else {
        // Not carried by the snapshot, but the passes would rewrite it: keep
        // the counter, the counts and the object-cache lookups in step.
        rewriter.Skip(*element);
      }
    }
    if (index != nullptr) {
      size_t refusals = 0;
      for (const SerializeCache::ChildIndex& payload : head_index) {
        refusals += payload.refusals;
      }
      for (const SerializeCache::ChildIndex& payload : main_payload_index_) {
        refusals += payload.refusals;
      }
      if (refusals == 0) {
        BuildSnapshotIndex(result.snapshot, head_index, main_payload_index_,
                           index);
        result.indexed = true;
      }
    }
    result.interactive_elements = rewriter.interactive_counter();
    result.urls_absolutized = rewriter.urls_absolutized();
    result.urls_cache_rewritten = rewriter.urls_cache_rewritten();
    result.stage_extract = end_stage();
  } else {
    // The paper-literal reference: step 1 clones the documentElement and
    // everything below mutates the clone.
    std::unique_ptr<Node> clone_owned = root.Clone();
    Element* clone = clone_owned->AsElement();
    result.stage_clone = end_stage();

    // Step 2: relative -> absolute URLs.
    result.urls_absolutized = AbsolutizeUrls(clone, browser_->current_url());
    result.stage_absolutize = end_stage();

    // Step 3: cache mode only — absolute -> agent URLs for cached objects.
    if (options.cache_mode) {
      result.urls_cache_rewritten =
          RewriteCachedUrls(clone, &browser_->cache(), options);
    }
    result.stage_cache_rewrite = end_stage();

    // Step 4: event-attribute rewriting.
    result.interactive_elements = RewriteEventAttributes(clone);
    result.stage_event_rewrite = end_stage();

    // Step 5: extraction in DOM order.
    for (const auto& child : clone->children()) {
      const Element* element = child->AsElement();
      if (element == nullptr) {
        continue;
      }
      if (element->tag_name() == "head") {
        for (const auto& head_child : element->children()) {
          if (const Element* head_element = head_child->AsElement()) {
            result.snapshot.head_children.push_back(
                ExtractPayload(*head_element));
          }
        }
      } else if (element->tag_name() == "body") {
        result.snapshot.body = ExtractPayload(*element);
      } else if (element->tag_name() == "frameset") {
        result.snapshot.frameset = ExtractPayload(*element);
      } else if (element->tag_name() == "noframes") {
        result.snapshot.noframes = ExtractPayload(*element);
      }
    }
    result.stage_extract = end_stage();
  }

  auto end = std::chrono::steady_clock::now();
  result.wall_time = Duration::Micros(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
  return result;
}

std::unique_ptr<Element> MaterializeSnapshotTree(const Snapshot& snapshot) {
  auto materialize = [](const ElementPayload& payload) {
    auto element = MakeElement(payload.tag);
    for (const auto& [name, value] : payload.attributes) {
      element->SetAttribute(name, value);
    }
    element->SetInnerHtml(payload.inner_html);
    return element;
  };
  auto root = MakeElement("html");
  auto head = MakeElement("head");
  for (const ElementPayload& payload : snapshot.head_children) {
    head->AppendChild(materialize(payload));
  }
  root->AppendChild(std::move(head));
  if (snapshot.body.has_value()) {
    root->AppendChild(materialize(*snapshot.body));
  }
  if (snapshot.frameset.has_value()) {
    root->AppendChild(materialize(*snapshot.frameset));
  }
  if (snapshot.noframes.has_value()) {
    root->AppendChild(materialize(*snapshot.noframes));
  }
  delta::NormalizeTextNodes(root.get());
  return root;
}

}  // namespace rcb
