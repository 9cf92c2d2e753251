#ifndef XRTREE_JOIN_STACK_TREE_DESC_H_
#define XRTREE_JOIN_STACK_TREE_DESC_H_

#include "common/result.h"
#include "join/join_types.h"
#include "storage/element_file.h"
#include "xml/element.h"
#include "xrtree/xrtree.h"

namespace xrtree {

/// Stack-Tree-Desc (Al-Khalifa, Srivastava et al., ICDE'02) — the paper's
/// "no-index" baseline: one sequential merge over both start-sorted lists
/// with an in-memory stack of open ancestors. Every element of both inputs
/// is scanned whether or not it joins; output is sorted by descendant.
Result<JoinOutput> StackTreeDescJoin(const ElementFile& ancestors,
                                     const ElementFile& descendants,
                                     const JoinOptions& options = {});

/// The same merge over two XR-trees' leaf levels (XrTree::Cursor walks):
/// the leaf-scan baseline XR-stack's skipping must beat (bench/skip_scan).
Result<JoinOutput> StackTreeDescJoin(const XrTree& ancestors,
                                     const XrTree& descendants,
                                     const JoinOptions& options = {});

/// In-memory variant over plain lists (used by tests and the workload
/// pipeline; identical logic, no storage engine underneath).
JoinOutput StackTreeDescJoinVectors(const ElementList& ancestors,
                                    const ElementList& descendants,
                                    const JoinOptions& options = {});

}  // namespace xrtree

#endif  // XRTREE_JOIN_STACK_TREE_DESC_H_
