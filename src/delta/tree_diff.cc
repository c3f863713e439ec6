#include "src/delta/tree_diff.h"

#include <algorithm>
#include <deque>
#include <string_view>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/html/serializer.h"
#include "src/util/strings.h"

namespace rcb::delta {
namespace {

// The attribute-order contract of SetAttribute: existing names keep their
// position, new names append. An attribute diff can therefore only reproduce
// `target`'s order when [base∩target in base order] + [target-only names in
// target order] equals the target order; otherwise the differ falls back to
// replacing the whole element so the digest still matches.
bool AttributeOrderCompatible(const Element& base, const Element& target) {
  std::vector<std::string> predicted;
  for (const auto& [name, value] : base.attributes()) {
    if (target.HasAttribute(name)) {
      predicted.push_back(name);
    }
  }
  for (const auto& [name, value] : target.attributes()) {
    if (!base.HasAttribute(name)) {
      predicted.push_back(name);
    }
  }
  if (predicted.size() != target.attributes().size()) {
    return false;
  }
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] != target.attributes()[i].first) {
      return false;
    }
  }
  return true;
}

void DiffAttributes(const Element& base, const Element& target,
                    const std::vector<uint32_t>& path,
                    std::vector<PatchOp>* ops) {
  for (const auto& [name, value] : base.attributes()) {
    if (!target.HasAttribute(name)) {
      PatchOp op;
      op.type = PatchOpType::kRemoveAttr;
      op.path = path;
      op.name = name;
      ops->push_back(std::move(op));
    }
  }
  for (const auto& [name, value] : target.attributes()) {
    auto base_value = base.GetAttribute(name);
    if (!base_value.has_value() || *base_value != value) {
      PatchOp op;
      op.type = PatchOpType::kSetAttr;
      op.path = path;
      op.name = name;
      op.value = value;
      ops->push_back(std::move(op));
    }
  }
}

void EmitReplace(const Node& target, const std::vector<uint32_t>& path,
                 std::vector<PatchOp>* ops) {
  PatchOp op;
  op.type = PatchOpType::kReplace;
  op.path = path;
  op.html = SerializeNode(target);
  ops->push_back(std::move(op));
}

// One node of an indexed tree: the node and its pre-order index.
struct IndexedNode {
  const Node* node;
  uint32_t id;
};

// Reconciliation key (see file comment). `text` views the indexed tree: the
// data-rcb-id value for kind 'i', the start tag's bytes for kind 'e'.
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

  void DiffNodePair(IndexedNode base, IndexedNode target,
                    std::vector<uint32_t>* path);

 private:
  static std::string_view Bytes(const TreeIndex& index, uint32_t id) {
    const NodeSpan& span = index.spans[id];
    return std::string_view(index.bytes).substr(span.begin,
                                                span.end - span.begin);
  }

  // `<tag attr="value" ...>`: attribute values are escaped, so the first
  // '>' closes the start tag. Empty for an element under a void element.
  static std::string_view StartTag(const TreeIndex& index, uint32_t id) {
    std::string_view bytes = Bytes(index, id);
    return bytes.substr(0, bytes.find('>') + 1);
  }

  // Equal canonical bytes mean equal subtrees — same tag, same attributes
  // in the same order, same children — so a full diff would emit no op
  // here. Not so when a node in either subtree emits no bytes of its own
  // (an empty text node, or a child of a void element): such pairs are
  // diffed in full.
  bool SameSubtree(IndexedNode base, IndexedNode target) const {
    if (Bytes(base_, base.id) != Bytes(target_, target.id)) {
      return false;
    }
    for (const auto& [index, root] : {std::pair{&base_, base.id},
                                      std::pair{&target_, target.id}}) {
      for (uint32_t i = root; i < index->spans[root].next; ++i) {
        if (index->spans[i].begin == index->spans[i].end) {
          return false;
        }
      }
    }
    return true;
  }

  Key NodeKey(const TreeIndex& index, IndexedNode indexed) {
    switch (indexed.node->type()) {
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
    const Element& element = *indexed.node->AsElement();
    for (const auto& [name, value] : element.attributes()) {
      if (EqualsIgnoreCase(name, "data-rcb-id")) {
        return {'i', value};
      }
    }
    if (std::string_view start_tag = StartTag(index, indexed.id);
        !start_tag.empty()) {
      return {'e', start_tag};
    }
    // Under a void element nothing is serialized; spell the key out. All
    // siblings are in the same case, so keys within one child list agree.
    std::string& material = unserialized_keys_.emplace_back(element.tag_name());
    for (const auto& [name, value] : element.attributes()) {
      material += '\x1f';
      material += name;
      material += '=';
      material += value;
    }
    return {'e', material};
  }

  static std::vector<IndexedNode> Children(IndexedNode parent,
                                           const TreeIndex& index) {
    std::vector<IndexedNode> children;
    children.reserve(parent.node->child_count());
    uint32_t id = parent.id + 1;
    for (const auto& child : parent.node->children()) {
      children.push_back({child.get(), id});
      id = index.spans[id].next;
    }
    return children;
  }

  void ReconcileChildren(IndexedNode base, IndexedNode target,
                         std::vector<uint32_t>* path);

  const TreeIndex& base_;
  const TreeIndex& target_;
  std::vector<PatchOp>* ops_;
  std::deque<std::string> unserialized_keys_;  // stable storage for Key::text
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
void IndexedDiff::ReconcileChildren(IndexedNode base, IndexedNode target,
                                    std::vector<uint32_t>* path) {
  const std::vector<IndexedNode> base_children = Children(base, base_);
  const std::vector<IndexedNode> target_children = Children(target, target_);
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
    const Element* el = target_children[j].node->AsElement();
    if (pair_of_target[j] >= 0 || el == nullptr) {
      continue;
    }
    for (size_t i = prefix; i < m; ++i) {
      const Element* base_el = base_children[i].node->AsElement();
      if (!base_matched[i] && base_el != nullptr &&
          base_el->tag_name() == el->tag_name()) {
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
      op.html = SerializeNode(*target_children[j].node);
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
                 target_children[j], path);
    path->pop_back();
  }
}

void IndexedDiff::DiffNodePair(IndexedNode base, IndexedNode target,
                               std::vector<uint32_t>* path) {
  if (SameSubtree(base, target)) {
    return;
  }
  const Element* base_el = base.node->AsElement();
  const Element* target_el = target.node->AsElement();
  if (base_el != nullptr && target_el != nullptr) {
    // Byte-equal start tags: same tag and attribute list, nothing to do
    // before the children.
    std::string_view base_tag = StartTag(base_, base.id);
    if (base_tag.empty() || base_tag != StartTag(target_, target.id)) {
      if (base_el->tag_name() != target_el->tag_name() ||
          !AttributeOrderCompatible(*base_el, *target_el)) {
        // Same data-rcb-id can land on a different element across
        // generations; attribute reordering cannot be expressed with
        // set-attr ops. Both are rare — replace the subtree wholesale.
        EmitReplace(*target.node, *path, ops_);
        return;
      }
      DiffAttributes(*base_el, *target_el, *path, ops_);
    }
    ReconcileChildren(base, target, path);
    return;
  }
  if (base.node->type() == NodeType::kText &&
      target.node->type() == NodeType::kText) {
    const auto& base_text = static_cast<const Text&>(*base.node);
    const auto& target_text = static_cast<const Text&>(*target.node);
    if (base_text.data() != target_text.data()) {
      PatchOp op;
      op.type = PatchOpType::kSetText;
      op.path = *path;
      op.value = target_text.data();
      ops_->push_back(std::move(op));
    }
    return;
  }
  // Comment / doctype pairs: replace when their serialization differs.
  if (SerializeNode(*base.node) != SerializeNode(*target.node)) {
    EmitReplace(*target.node, *path, ops_);
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
  return Sha256::HexDigest(index.bytes);
}

std::vector<PatchOp> DiffTrees(const Element& base, const TreeIndex& base_index,
                               const Element& target,
                               const TreeIndex& target_index) {
  std::vector<PatchOp> ops;
  std::vector<uint32_t> path;
  IndexedDiff(base_index, target_index, &ops)
      .DiffNodePair({&base, 0}, {&target, 0}, &path);
  return ops;
}

std::vector<PatchOp> DiffTrees(const Element& base, const Element& target) {
  // Page-sized buffers, kept across calls like TreeDigest's.
  static thread_local TreeIndex base_index;
  static thread_local TreeIndex target_index;
  IndexTree(base, &base_index);
  IndexTree(target, &target_index);
  return DiffTrees(base, base_index, target, target_index);
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
