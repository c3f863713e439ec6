#include "tests/reference_tree_diff.h"

#include <algorithm>
#include <map>
#include <string>

#include "src/crypto/sha256.h"
#include "src/html/serializer.h"

namespace rcb::delta::reference {
namespace {

std::string NodeKey(const Node& node) {
  switch (node.type()) {
    case NodeType::kText:
      return "t";
    case NodeType::kComment:
      return "c";
    case NodeType::kDoctype:
      return "d";
    case NodeType::kDocument:
      return "D";
    case NodeType::kElement:
      break;
  }
  const Element& element = *node.AsElement();
  if (auto id = element.GetAttribute("data-rcb-id"); id.has_value()) {
    return "i:" + *id;
  }
  std::string material = element.tag_name();
  for (const auto& [name, value] : element.attributes()) {
    material += '\x1f';
    material += name;
    material += '=';
    material += value;
  }
  return "e:" + element.tag_name() + ':' +
         Sha256::HexDigest(material).substr(0, 12);
}

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

void DiffNodePair(const Node& base, const Node& target,
                  std::vector<uint32_t>* path, std::vector<PatchOp>* ops);

// Reconciles the children of one matched element pair: keyed LCS keeps the
// stable spine, leftovers are re-paired by key (moves) and then by tag
// (attribute-drifted elements), the rest become removals/insertions.
// Removals run in descending index order, then moves/insertions finalize
// positions left to right (so every move satisfies from >= to), and only
// then does the differ recurse into the matched pairs at their final
// indexes — keeping every emitted path valid at apply time.
void ReconcileChildren(const Element& base, const Element& target,
                       std::vector<uint32_t>* path, std::vector<PatchOp>* ops) {
  const size_t m = base.child_count();
  const size_t n = target.child_count();
  std::vector<std::string> base_keys(m), target_keys(n);
  for (size_t i = 0; i < m; ++i) {
    base_keys[i] = NodeKey(*base.child_at(i));
  }
  for (size_t j = 0; j < n; ++j) {
    target_keys[j] = NodeKey(*target.child_at(j));
  }

  // Longest common subsequence over keys.
  std::vector<std::vector<uint32_t>> lcs(m + 1,
                                         std::vector<uint32_t>(n + 1, 0));
  for (size_t i = m; i-- > 0;) {
    for (size_t j = n; j-- > 0;) {
      lcs[i][j] = base_keys[i] == target_keys[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::vector<int> pair_of_target(n, -1);  // base index matched to target j
  std::vector<bool> base_matched(m, false);
  {
    size_t i = 0, j = 0;
    while (i < m && j < n) {
      if (base_keys[i] == target_keys[j]) {
        pair_of_target[j] = static_cast<int>(i);
        base_matched[i] = true;
        ++i;
        ++j;
      } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  // Crossing pairs the LCS dropped: re-pair leftovers by key (becomes a
  // move), then element leftovers by tag (attribute churn on unkeyed
  // elements — the recursion emits the attr ops).
  std::map<std::string, std::vector<size_t>> spare_by_key;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      spare_by_key[base_keys[i]].push_back(i);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] >= 0) {
      continue;
    }
    auto it = spare_by_key.find(target_keys[j]);
    if (it != spare_by_key.end() && !it->second.empty()) {
      size_t i = it->second.front();
      it->second.erase(it->second.begin());
      pair_of_target[j] = static_cast<int>(i);
      base_matched[i] = true;
    }
  }
  std::map<std::string, std::vector<size_t>> spare_by_tag;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      if (const Element* el = base.child_at(i)->AsElement()) {
        spare_by_tag[el->tag_name()].push_back(i);
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] >= 0) {
      continue;
    }
    const Element* el = target.child_at(j)->AsElement();
    if (el == nullptr) {
      continue;
    }
    auto it = spare_by_tag.find(el->tag_name());
    if (it != spare_by_tag.end() && !it->second.empty()) {
      size_t i = it->second.front();
      it->second.erase(it->second.begin());
      pair_of_target[j] = static_cast<int>(i);
      base_matched[i] = true;
    }
  }

  // Phase 1: removals, highest index first so earlier indexes stay valid.
  for (size_t i = m; i-- > 0;) {
    if (base_matched[i]) {
      continue;
    }
    PatchOp op;
    op.type = PatchOpType::kRemove;
    op.path = *path;
    op.index = static_cast<uint32_t>(i);
    ops->push_back(std::move(op));
  }

  // Working order of the surviving base children after the removals.
  std::vector<int> work;
  work.reserve(n);
  for (size_t i = 0; i < m; ++i) {
    if (base_matched[i]) {
      work.push_back(static_cast<int>(i));
    }
  }

  // Phase 2: left-to-right, put the right node at each target position.
  // Positions < j are already final, so a paired node always sits at >= j
  // and every move is backward (from >= to).
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired >= 0) {
      size_t p = j;
      while (p < work.size() && work[p] != paired) {
        ++p;
      }
      if (p != j) {
        PatchOp op;
        op.type = PatchOpType::kMove;
        op.path = *path;
        op.from = static_cast<uint32_t>(p);
        op.to = static_cast<uint32_t>(j);
        ops->push_back(std::move(op));
        work.erase(work.begin() + static_cast<long>(p));
        work.insert(work.begin() + static_cast<long>(j), paired);
      }
    } else {
      PatchOp op;
      op.type = PatchOpType::kInsert;
      op.path = *path;
      op.index = static_cast<uint32_t>(j);
      op.html = SerializeNode(*target.child_at(j));
      ops->push_back(std::move(op));
      work.insert(work.begin() + static_cast<long>(j), -1);
    }
  }

  // Phase 3: recurse into matched pairs at their final positions.
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired < 0) {
      continue;
    }
    path->push_back(static_cast<uint32_t>(j));
    DiffNodePair(*base.child_at(static_cast<size_t>(paired)),
                 *target.child_at(j), path, ops);
    path->pop_back();
  }
}

void DiffNodePair(const Node& base, const Node& target,
                  std::vector<uint32_t>* path, std::vector<PatchOp>* ops) {
  const Element* base_el = base.AsElement();
  const Element* target_el = target.AsElement();
  if (base_el != nullptr && target_el != nullptr) {
    if (base_el->tag_name() != target_el->tag_name() ||
        !AttributeOrderCompatible(*base_el, *target_el)) {
      // Same data-rcb-id can land on a different element across generations;
      // attribute reordering cannot be expressed with set-attr ops. Both are
      // rare — replace the subtree wholesale.
      EmitReplace(target, *path, ops);
      return;
    }
    DiffAttributes(*base_el, *target_el, *path, ops);
    ReconcileChildren(*base_el, *target_el, path, ops);
    return;
  }
  if (base.type() == NodeType::kText && target.type() == NodeType::kText) {
    const auto& base_text = static_cast<const Text&>(base);
    const auto& target_text = static_cast<const Text&>(target);
    if (base_text.data() != target_text.data()) {
      PatchOp op;
      op.type = PatchOpType::kSetText;
      op.path = *path;
      op.value = target_text.data();
      ops->push_back(std::move(op));
    }
    return;
  }
  // Comment / doctype pairs: replace when their serialization differs.
  if (SerializeNode(base) != SerializeNode(target)) {
    EmitReplace(target, *path, ops);
  }
}

}  // namespace

std::vector<PatchOp> ReferenceDiffTrees(const Element& base,
                                        const Element& target) {
  std::vector<PatchOp> ops;
  std::vector<uint32_t> path;
  DiffNodePair(base, target, &path, &ops);
  return ops;
}

}  // namespace rcb::delta::reference
