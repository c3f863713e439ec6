#include "src/delta/tree_diff.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb::delta {
namespace {

// One attribute as a start tag spells it: the name, and the value with its
// HTML escapes still in place (equal escaped values mean equal values).
struct Attribute {
  std::string_view name;
  std::string_view escaped_value;
};

// `<tag name="value" ...>`: names never hold a space, `=` or `"`, and
// values are escaped, so no `"` or `>` occurs inside one.
std::string_view TagName(std::string_view start_tag) {
  return start_tag.substr(1, start_tag.find_first_of(" >", 1) - 1);
}

// Calls visit(attribute) for each attribute of `start_tag` in order until
// it returns true.
template <typename Visit>
void VisitAttributes(std::string_view start_tag, Visit&& visit) {
  size_t pos = 1 + TagName(start_tag).size();
  while (pos < start_tag.size() && start_tag[pos] == ' ') {
    const size_t name_end = start_tag.find("=\"", pos + 1);
    if (name_end == std::string_view::npos) {
      return;  // a name holding '>' cut the start tag short
    }
    const size_t value_end = start_tag.find('"', name_end + 2);
    if (value_end == std::string_view::npos) {
      return;
    }
    if (visit(Attribute{
            start_tag.substr(pos + 1, name_end - pos - 1),
            start_tag.substr(name_end + 2, value_end - name_end - 2)})) {
      return;
    }
    pos = value_end + 1;
  }
}

std::vector<Attribute> DecodeAttributes(std::string_view start_tag) {
  std::vector<Attribute> attributes;
  VisitAttributes(start_tag, [&attributes](const Attribute& attribute) {
    attributes.push_back(attribute);
    return false;
  });
  return attributes;
}

const Attribute* FindAttribute(const std::vector<Attribute>& attributes,
                               std::string_view name) {
  for (const Attribute& attribute : attributes) {
    if (attribute.name == name) {
      return &attribute;
    }
  }
  return nullptr;
}

// The attribute-order contract of SetAttribute: existing names keep their
// position, new names append. An attribute diff can therefore only reproduce
// `target`'s order when [base∩target in base order] + [target-only names in
// target order] equals the target order; otherwise the differ falls back to
// replacing the whole element so the digest still matches.
bool AttributeOrderCompatible(const std::vector<Attribute>& base,
                              const std::vector<Attribute>& target) {
  std::vector<std::string_view> predicted;
  for (const Attribute& attribute : base) {
    if (FindAttribute(target, attribute.name) != nullptr) {
      predicted.push_back(attribute.name);
    }
  }
  for (const Attribute& attribute : target) {
    if (FindAttribute(base, attribute.name) == nullptr) {
      predicted.push_back(attribute.name);
    }
  }
  if (predicted.size() != target.size()) {
    return false;
  }
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] != target[i].name) {
      return false;
    }
  }
  return true;
}

void DiffAttributes(const std::vector<Attribute>& base,
                    const std::vector<Attribute>& target,
                    const std::vector<uint32_t>& path,
                    std::vector<PatchOp>* ops) {
  for (const Attribute& attribute : base) {
    if (FindAttribute(target, attribute.name) == nullptr) {
      PatchOp op;
      op.type = PatchOpType::kRemoveAttr;
      op.path = path;
      op.name = attribute.name;
      ops->push_back(std::move(op));
    }
  }
  for (const Attribute& attribute : target) {
    const Attribute* base_attribute = FindAttribute(base, attribute.name);
    if (base_attribute == nullptr ||
        base_attribute->escaped_value != attribute.escaped_value) {
      PatchOp op;
      op.type = PatchOpType::kSetAttr;
      op.path = path;
      op.name = attribute.name;
      op.value = HtmlUnescape(attribute.escaped_value);
      ops->push_back(std::move(op));
    }
  }
}

// Reconciliation key (see file comment). `text` views the index: the
// escaped data-rcb-id value for kind 'i', the start tag's bytes for kind 'e'.
struct Key {
  char kind;
  std::string_view text;
  bool operator==(const Key&) const = default;
};

class IndexedDiff {
 public:
  IndexedDiff(const TreeIndex& base, const TreeIndex& target,
              std::vector<PatchOp>* ops)
      : base_(base), target_(target), ops_(ops) {}

  // Diffs base node `base` against target node `target`; `raw_text_parent`
  // says their parents are raw-text elements, whose text is not escaped.
  void DiffNodePair(uint32_t base, uint32_t target, bool raw_text_parent,
                    std::vector<uint32_t>* path);

 private:
  static std::string_view Bytes(const TreeIndex& index, uint32_t id) {
    const NodeSpan& span = index.spans[id];
    return std::string_view(index.bytes).substr(span.begin,
                                                span.end - span.begin);
  }

  // `<tag attr="value" ...>`: attribute values are escaped, so the first
  // '>' closes the start tag.
  static std::string_view StartTag(const TreeIndex& index, uint32_t id) {
    std::string_view bytes = Bytes(index, id);
    return bytes.substr(0, bytes.find('>') + 1);
  }

  // The serialized subtree an insert or replace carries: the node's bytes,
  // except that text under a raw-text element is escaped the way it
  // serializes on its own.
  static std::string SubtreeHtml(const TreeIndex& index, uint32_t id,
                                 bool raw_text_parent) {
    if (raw_text_parent && index.spans[id].type == NodeType::kText) {
      return HtmlEscape(Bytes(index, id));
    }
    return std::string(Bytes(index, id));
  }

  // True when `id`'s subtree holds a node whose bytes cannot stand for it
  // in a byte comparison: an empty text node (it shows no bytes) or a child
  // of a void element (serialized apart from its parent).
  static bool HasHiddenNode(const TreeIndex& index, uint32_t id) {
    for (uint32_t i = id; i < index.spans[id].next; ++i) {
      const NodeSpan& span = index.spans[i];
      if (span.begin == span.end || span.end > index.canonical_size) {
        return true;
      }
    }
    return false;
  }

  // Equal canonical bytes mean equal subtrees — same tag, same attributes
  // in the same order, same children — so a full diff would emit no op
  // here. Not so when either subtree holds a hidden node: such pairs are
  // diffed in full.
  bool SameSubtree(uint32_t base, uint32_t target) const {
    return Bytes(base_, base) == Bytes(target_, target) &&
           !HasHiddenNode(base_, base) && !HasHiddenNode(target_, target);
  }

  static Key NodeKey(const TreeIndex& index, uint32_t id) {
    switch (index.spans[id].type) {
      case NodeType::kText:
        return {'t', {}};
      case NodeType::kComment:
        return {'c', {}};
      case NodeType::kDoctype:
        return {'d', {}};
      case NodeType::kDocument:
        return {'D', {}};
      case NodeType::kElement:
        break;
    }
    Key key{'e', StartTag(index, id)};
    VisitAttributes(key.text, [&key](const Attribute& attribute) {
      if (attribute.name != "data-rcb-id") {
        return false;
      }
      key = {'i', attribute.escaped_value};
      return true;
    });
    return key;
  }

  static std::vector<uint32_t> Children(const TreeIndex& index,
                                        uint32_t parent) {
    std::vector<uint32_t> children;
    for (uint32_t id = parent + 1; id < index.spans[parent].next;
         id = index.spans[id].next) {
      children.push_back(id);
    }
    return children;
  }

  void ReconcileChildren(uint32_t base, uint32_t target, bool raw_text,
                         std::vector<uint32_t>* path);

  const TreeIndex& base_;
  const TreeIndex& target_;
  std::vector<PatchOp>* ops_;
};

// Reconciles the children of one matched element pair: keyed LCS keeps the
// stable spine, leftovers are re-paired by key (moves) and then by tag
// (attribute-drifted elements), the rest become removals/insertions.
// Removals run in descending index order, then moves/insertions finalize
// positions left to right (so every move satisfies from >= to), and only
// then does the differ recurse into the matched pairs at their final
// indexes — keeping every emitted path valid at apply time.
//
// The LCS traceback pairs equal keys greedily from the front, so the common
// prefix of equal keys is paired up front and the table covers only the
// rest. The common suffix is not trimmed: that would change which of two
// equal-keyed children gets paired.
void IndexedDiff::ReconcileChildren(uint32_t base, uint32_t target,
                                    bool raw_text,
                                    std::vector<uint32_t>* path) {
  const std::vector<uint32_t> base_children = Children(base_, base);
  const std::vector<uint32_t> target_children = Children(target_, target);
  const size_t m = base_children.size();
  const size_t n = target_children.size();
  std::vector<Key> base_keys(m), target_keys(n);
  for (size_t i = 0; i < m; ++i) {
    base_keys[i] = NodeKey(base_, base_children[i]);
  }
  for (size_t j = 0; j < n; ++j) {
    target_keys[j] = NodeKey(target_, target_children[j]);
  }
  size_t prefix = 0;
  while (prefix < m && prefix < n &&
         base_keys[prefix] == target_keys[prefix]) {
    ++prefix;
  }

  std::vector<int> pair_of_target(n, -1);  // base index matched to target j
  std::vector<bool> base_matched(m, false);
  for (size_t k = 0; k < prefix; ++k) {
    pair_of_target[k] = static_cast<int>(k);
    base_matched[k] = true;
  }

  // Longest common subsequence over the remaining keys, one flat table:
  // lcs(i, j) covers base[prefix + i..] and target[prefix + j..].
  const size_t rm = m - prefix;
  const size_t rn = n - prefix;
  if (rm > 0 && rn > 0) {
    const size_t width = rn + 1;
    std::vector<uint32_t> lcs((rm + 1) * width, 0);
    auto at = [&](size_t i, size_t j) -> uint32_t& {
      return lcs[i * width + j];
    };
    for (size_t i = rm; i-- > 0;) {
      for (size_t j = rn; j-- > 0;) {
        at(i, j) = base_keys[prefix + i] == target_keys[prefix + j]
                       ? at(i + 1, j + 1) + 1
                       : std::max(at(i + 1, j), at(i, j + 1));
      }
    }
    size_t i = 0, j = 0;
    while (i < rm && j < rn) {
      if (base_keys[prefix + i] == target_keys[prefix + j]) {
        pair_of_target[prefix + j] = static_cast<int>(prefix + i);
        base_matched[prefix + i] = true;
        ++i;
        ++j;
      } else if (at(i + 1, j) >= at(i, j + 1)) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  // Crossing pairs the LCS dropped: re-pair each leftover target with the
  // first leftover base of the same key (becomes a move), then element
  // leftovers by tag (attribute churn on unkeyed elements — the recursion
  // emits the attr ops).
  for (size_t j = prefix; j < n; ++j) {
    if (pair_of_target[j] >= 0) {
      continue;
    }
    for (size_t i = prefix; i < m; ++i) {
      if (!base_matched[i] && base_keys[i] == target_keys[j]) {
        pair_of_target[j] = static_cast<int>(i);
        base_matched[i] = true;
        break;
      }
    }
  }
  for (size_t j = prefix; j < n; ++j) {
    if (pair_of_target[j] >= 0 ||
        target_.spans[target_children[j]].type != NodeType::kElement) {
      continue;
    }
    const std::string_view tag =
        TagName(StartTag(target_, target_children[j]));
    for (size_t i = prefix; i < m; ++i) {
      if (!base_matched[i] &&
          base_.spans[base_children[i]].type == NodeType::kElement &&
          TagName(StartTag(base_, base_children[i])) == tag) {
        pair_of_target[j] = static_cast<int>(i);
        base_matched[i] = true;
        break;
      }
    }
  }

  // Phase 1: removals, highest index first so earlier indexes stay valid.
  for (size_t i = m; i-- > prefix;) {
    if (base_matched[i]) {
      continue;
    }
    PatchOp op;
    op.type = PatchOpType::kRemove;
    op.path = *path;
    op.index = static_cast<uint32_t>(i);
    ops_->push_back(std::move(op));
  }

  // Working order of the surviving base children after the removals; the
  // prefix already sits at its final positions, so `work[k]` is position
  // prefix + k.
  std::vector<int> work;
  work.reserve(rn);
  for (size_t i = prefix; i < m; ++i) {
    if (base_matched[i]) {
      work.push_back(static_cast<int>(i));
    }
  }

  // Phase 2: left-to-right, put the right node at each target position.
  // Positions < j are already final, so a paired node always sits at >= j
  // and every move is backward (from >= to).
  for (size_t j = prefix; j < n; ++j) {
    const size_t slot = j - prefix;
    int paired = pair_of_target[j];
    if (paired >= 0) {
      size_t p = slot;
      while (p < work.size() && work[p] != paired) {
        ++p;
      }
      if (p != slot) {
        PatchOp op;
        op.type = PatchOpType::kMove;
        op.path = *path;
        op.from = static_cast<uint32_t>(prefix + p);
        op.to = static_cast<uint32_t>(j);
        ops_->push_back(std::move(op));
        work.erase(work.begin() + static_cast<long>(p));
        work.insert(work.begin() + static_cast<long>(slot), paired);
      }
    } else {
      PatchOp op;
      op.type = PatchOpType::kInsert;
      op.path = *path;
      op.index = static_cast<uint32_t>(j);
      op.html = SubtreeHtml(target_, target_children[j], raw_text);
      ops_->push_back(std::move(op));
      work.insert(work.begin() + static_cast<long>(slot), -1);
    }
  }

  // Phase 3: recurse into matched pairs at their final positions.
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired < 0) {
      continue;
    }
    path->push_back(static_cast<uint32_t>(j));
    DiffNodePair(base_children[static_cast<size_t>(paired)],
                 target_children[j], raw_text, path);
    path->pop_back();
  }
}

void IndexedDiff::DiffNodePair(uint32_t base, uint32_t target,
                               bool raw_text_parent,
                               std::vector<uint32_t>* path) {
  if (SameSubtree(base, target)) {
    return;
  }
  const NodeType base_type = base_.spans[base].type;
  const NodeType target_type = target_.spans[target].type;
  if (base_type == NodeType::kElement && target_type == NodeType::kElement) {
    // Byte-equal start tags: same tag and attribute list, nothing to do
    // before the children.
    const std::string_view base_tag = StartTag(base_, base);
    const std::string_view target_tag = StartTag(target_, target);
    if (base_tag != target_tag) {
      const std::vector<Attribute> base_attributes = DecodeAttributes(base_tag);
      const std::vector<Attribute> target_attributes =
          DecodeAttributes(target_tag);
      if (TagName(base_tag) != TagName(target_tag) ||
          !AttributeOrderCompatible(base_attributes, target_attributes)) {
        // Same data-rcb-id can land on a different element across
        // generations; attribute reordering cannot be expressed with
        // set-attr ops. Both are rare — replace the subtree wholesale.
        PatchOp op;
        op.type = PatchOpType::kReplace;
        op.path = *path;
        op.html = SubtreeHtml(target_, target, raw_text_parent);
        ops_->push_back(std::move(op));
        return;
      }
      DiffAttributes(base_attributes, target_attributes, *path, ops_);
    }
    ReconcileChildren(
        base, target,
        HtmlTokenizer::IsRawTextElement(TagName(target_tag)), path);
    return;
  }
  if (Bytes(base_, base) == Bytes(target_, target)) {
    return;
  }
  PatchOp op;
  op.path = *path;
  if (base_type == NodeType::kText && target_type == NodeType::kText) {
    op.type = PatchOpType::kSetText;
    op.value = raw_text_parent ? std::string(Bytes(target_, target))
                               : HtmlUnescape(Bytes(target_, target));
  } else {
    // Comment / doctype pairs: replace when their serialization differs.
    op.type = PatchOpType::kReplace;
    op.html = SubtreeHtml(target_, target, raw_text_parent);
  }
  ops_->push_back(std::move(op));
}

// Serializes the children of every void element in `id`'s subtree after
// the bytes already in `index` (SerializeNodeInto gave them empty spans).
void IndexHiddenChildren(const Node& node, uint32_t id, TreeIndex* index) {
  const Element* element = node.AsElement();
  const bool hidden = element != nullptr && IsVoidElement(element->tag_name());
  uint32_t child_id = id + 1;
  for (const auto& child : node.children()) {
    if (hidden) {
      std::vector<NodeSpan> spans;
      SerializeNodeInto(*child, &index->bytes, &spans);
      for (size_t i = 0; i < spans.size(); ++i) {
        spans[i].next += child_id;
        index->spans[child_id + i] = spans[i];
      }
    }
    IndexHiddenChildren(*child, child_id, index);
    child_id = index->spans[child_id].next;
  }
}

}  // namespace

bool IsSnippetBootstrapScript(const Node& node) {
  const Element* element = node.AsElement();
  return element != nullptr && element->tag_name() == "script" &&
         element->AttrOr("id") == "rcb-snippet";
}

void NormalizeTextNodes(Element* root) {
  size_t i = 0;
  while (i < root->child_count()) {
    Node* child = root->child_at(i);
    if (child->type() == NodeType::kText) {
      Text* text = static_cast<Text*>(child);
      while (i + 1 < root->child_count() &&
             root->child_at(i + 1)->type() == NodeType::kText) {
        text->set_data(text->data() +
                       static_cast<Text*>(root->child_at(i + 1))->data());
        root->RemoveChild(root->child_at(i + 1));
      }
      if (text->data().empty()) {
        root->RemoveChild(text);
        continue;  // the next child slid into index i
      }
    } else if (Element* element = child->AsElement()) {
      NormalizeTextNodes(element);
    }
    ++i;
  }
}

std::unique_ptr<Element> CanonicalizeDocument(const Document& document) {
  const Element* root = document.document_element();
  if (root == nullptr) {
    return nullptr;
  }
  auto canonical = MakeElement("html");
  auto head = MakeElement("head");
  if (const Element* live_head = root->ChildByTag("head")) {
    for (const auto& child : live_head->children()) {
      if (IsSnippetBootstrapScript(*child)) {
        continue;
      }
      head->AppendChild(child->Clone());
    }
  }
  canonical->AppendChild(std::move(head));
  for (const char* tag : {"body", "frameset", "noframes"}) {
    if (const Element* element = root->ChildByTag(tag)) {
      canonical->AppendChild(element->Clone());
    }
  }
  NormalizeTextNodes(canonical.get());
  return canonical;
}

void IndexTree(const Element& canonical_root, TreeIndex* index) {
  index->bytes.clear();
  index->spans.clear();
  SerializeNodeInto(canonical_root, &index->bytes, &index->spans);
  index->canonical_size = static_cast<uint32_t>(index->bytes.size());
  for (const NodeSpan& span : index->spans) {
    if (span.begin == span.end) {  // an empty text node or a hidden child
      IndexHiddenChildren(canonical_root, 0, index);
      break;
    }
  }
}

std::string TreeDigest(const Element& canonical_root) {
  // One digest runs per document version per mode; the serialization is the
  // page-sized allocation on that path, so the buffer keeps its capacity
  // across calls instead of growing from empty every time.
  static thread_local std::string scratch;
  scratch.clear();
  SerializeNodeInto(canonical_root, &scratch);
  return Sha256::HexDigest(scratch);
}

std::string TreeDigest(const TreeIndex& index) {
  return Sha256::HexDigest(
      std::string_view(index.bytes).substr(0, index.canonical_size));
}

std::vector<PatchOp> DiffTrees(const TreeIndex& base, const TreeIndex& target) {
  std::vector<PatchOp> ops;
  std::vector<uint32_t> path;
  IndexedDiff(base, target, &ops)
      .DiffNodePair(0, 0, /*raw_text_parent=*/false, &path);
  return ops;
}

std::vector<PatchOp> DiffTrees(const Element& base, const Element& target) {
  // Page-sized buffers, kept across calls like TreeDigest's.
  static thread_local TreeIndex base_index;
  static thread_local TreeIndex target_index;
  IndexTree(base, &base_index);
  IndexTree(target, &target_index);
  return DiffTrees(base_index, target_index);
}

std::string SummarizeOps(const std::vector<PatchOp>& ops) {
  static constexpr const char* kKindNames[] = {
      "ins", "rm", "mv", "repl", "attr", "rmattr", "text"};
  size_t counts[7] = {};
  for (const PatchOp& op : ops) {
    ++counts[static_cast<size_t>(op.type)];
  }
  std::string out;
  for (size_t i = 0; i < 7; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (!out.empty()) {
      out += ',';
    }
    out += kKindNames[i];
    out += '=';
    out += std::to_string(counts[i]);
  }
  return out.empty() ? "none" : out;
}

}  // namespace rcb::delta
