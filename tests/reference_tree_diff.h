// The reference tree diff: the keyed-LCS differ as it ran before the delta
// path indexed each version, kept verbatim as a test oracle. It serializes
// nothing up front, keys unkeyed elements by a hash of tag + attributes, and
// reconciles every child list in full, unchanged subtrees included.
// delta::DiffTrees must return exactly the same ops (delta_test).
#ifndef TESTS_REFERENCE_TREE_DIFF_H_
#define TESTS_REFERENCE_TREE_DIFF_H_

#include <vector>

#include "src/delta/tree_diff.h"

namespace rcb::delta::reference {

std::vector<PatchOp> ReferenceDiffTrees(const Element& base,
                                        const Element& target);

}  // namespace rcb::delta::reference

#endif  // TESTS_REFERENCE_TREE_DIFF_H_
