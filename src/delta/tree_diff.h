// Keyed DOM tree diff — the engine behind delta snapshots.
//
// Instead of shipping the full Fig. 4 snapshot on every document change, the
// agent can diff the previous and current generated content and ship only a
// patch (src/delta/patch_codec.h). Both sides of the wire reduce their
// document to the same *canonical tree* — an attribute-less <html> holding
// the head children (minus the Ajax-Snippet bootstrap script) and the
// body/frameset/noframes elements, with text nodes normalized — so a digest
// over the canonical serialization agrees between the agent's generated
// content and the participant's live page.
//
// Node identity during child reconciliation:
//   * elements carrying data-rcb-id (assigned by the Fig. 3 event-rewriting
//     pass) are keyed by it — stable across attribute edits, which is what
//     turns a form co-fill into a one-op set-attr patch,
//   * other elements are keyed by their tag and attributes in order (the
//     start tag's canonical bytes, compared directly — nothing is hashed),
//   * all text nodes share one key (edits become set-text, not churn),
//   * comments and doctypes each share a per-type key.
//
// Each version is serialized once into a TreeIndex; its digest hashes those
// bytes and the diff reads everything it needs from them: subtrees compare
// by their bytes, so a subtree that did not change costs one byte
// comparison, and tag, attributes and text are decoded only for the nodes
// the diff visits (DESIGN.md §10.1). The agent's Fig. 3 walk builds the
// index of each version it can vouch for directly; other versions are
// indexed from their materialized tree.
#ifndef SRC_DELTA_TREE_DIFF_H_
#define SRC_DELTA_TREE_DIFF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/html/dom.h"
#include "src/html/serializer.h"

namespace rcb::delta {

// One mutation step. `path` addresses a node as a child-index chain from the
// canonical <html> root (empty path = the root itself); for insert/remove/
// move the path names the *parent*. DiffTrees orders ops so that each op's
// path is valid once all preceding ops have been applied.
enum class PatchOpType {
  kInsert,      // insert serialized subtree under `path` at `index`
  kRemove,      // remove child `index` of `path`
  kMove,        // move child of `path` from index `from` to index `to`
  kReplace,     // replace the node at `path` with a serialized subtree
  kSetAttr,     // set attribute `name`=`value` on the element at `path`
  kRemoveAttr,  // remove attribute `name` from the element at `path`
  kSetText,     // replace the text-node data at `path` with `value`
};

struct PatchOp {
  PatchOpType type = PatchOpType::kInsert;
  std::vector<uint32_t> path;
  uint32_t index = 0;          // insert/remove position
  uint32_t from = 0;           // move source (>= to by construction)
  uint32_t to = 0;             // move destination
  std::string name;            // attribute name
  std::string value;           // attribute value / set-text data
  std::string html;            // insert/replace payload (serialized subtree)

  bool operator==(const PatchOp&) const = default;
};

// True for the <script id="rcb-snippet"> bootstrap element the Fig. 5 apply
// procedure preserves; canonicalization excludes it on both sides.
bool IsSnippetBootstrapScript(const Node& node);

// Merges adjacent text nodes and drops empty ones, recursively. Canonical
// trees are normalized so agent-side materialization and participant-side
// live documents serialize identically.
void NormalizeTextNodes(Element* root);

// Canonicalizes a live document (see file comment). Returns nullptr when the
// document has no root element.
std::unique_ptr<Element> CanonicalizeDocument(const Document& document);

// A canonical tree serialized once. `bytes` starts with its canonical
// serialization (what TreeDigest hashes, `canonical_size` bytes) and
// `spans` places every node in pre-order (SerializeNodeInto). The children
// of a void element, which that serialization never shows, are serialized
// after it, so every node's own bytes are in `bytes`.
struct TreeIndex {
  std::string bytes;
  uint32_t canonical_size = 0;
  std::vector<NodeSpan> spans;

  bool operator==(const TreeIndex&) const = default;
};

// Serializes `canonical_root` into `index`, reusing its buffers.
void IndexTree(const Element& canonical_root, TreeIndex* index);

// Hex SHA-256 over the canonical serialization — the integrity digest the
// patch header carries as baseDigest/docDigest. The index overload hashes
// the bytes already serialized; both give the same digest for one tree.
std::string TreeDigest(const Element& canonical_root);
std::string TreeDigest(const TreeIndex& index);

// Diffs two indexed canonical trees: the returned ops transform the base
// into a tree that serializes identically to the target. Insert and replace
// payloads are the target's bytes. The two-tree form indexes both trees
// first and returns the same ops.
std::vector<PatchOp> DiffTrees(const TreeIndex& base, const TreeIndex& target);
std::vector<PatchOp> DiffTrees(const Element& base, const Element& target);

// Compact per-kind op tally, e.g. "ins=1,attr=2" (kinds in PatchOpType
// order, zero counts omitted; empty ops -> "none"). The patch-shape summary
// causal trace spans carry (DESIGN.md §11).
std::string SummarizeOps(const std::vector<PatchOp>& ops);

}  // namespace rcb::delta

#endif  // SRC_DELTA_TREE_DIFF_H_
