#ifndef XRTREE_JOIN_BPLUS_SP_JOIN_H_
#define XRTREE_JOIN_BPLUS_SP_JOIN_H_

#include "btree/sptree.h"
#include "common/result.h"
#include "join/join_types.h"

namespace xrtree {

/// The B+sp structural join: Anc_Des_B+ with the ancestor-side skip served
/// by the leaf-resident sibling pointer (one page dereference) instead of
/// a fresh root-to-leaf probe. Descendant skipping is unchanged. The paper
/// reports it behaves like plain B+ (§6.1) — bench/related_work_joins
/// verifies. It shares BPlusJoin's merge loop (bplus_join.cc).
Result<JoinOutput> BPlusSpJoin(const SpTree& ancestors,
                               const SpTree& descendants,
                               const JoinOptions& options = {});

}  // namespace xrtree

#endif  // XRTREE_JOIN_BPLUS_SP_JOIN_H_
