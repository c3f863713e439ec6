// HTML serialization (outerHTML / innerHTML string production).
#ifndef SRC_HTML_SERIALIZER_H_
#define SRC_HTML_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/html/dom.h"

namespace rcb {

// Where one node landed in a serialization: its bytes are out[begin, end),
// and `next` is the pre-order index just past its subtree, so a node's
// children start at its own index + 1 and each sibling follows the previous
// one's `next`. `type` tells the node's kind, which its bytes alone cannot
// (raw text may look like markup). Children of a void element are never
// serialized; they get empty spans at the position after the element.
struct NodeSpan {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t next = 0;
  NodeType type = NodeType::kElement;

  bool operator==(const NodeSpan&) const = default;
};

// Serializes a node and its subtree (outerHTML for elements).
std::string SerializeNode(const Node& node);

// Append variant: same bytes, into a caller-owned buffer. Lets hot callers
// (the delta tree index, the serialize-cache miss path) reuse one page-sized
// buffer instead of reallocating it per call. With `spans`, also appends one
// NodeSpan per node of the subtree, in pre-order, starting with `node`.
void SerializeNodeInto(const Node& node, std::string* out,
                       std::vector<NodeSpan>* spans = nullptr);

// Serializes only the children (innerHTML).
std::string SerializeChildren(const Node& node);

}  // namespace rcb

#endif  // SRC_HTML_SERIALIZER_H_
