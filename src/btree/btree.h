#ifndef XRTREE_BTREE_BTREE_H_
#define XRTREE_BTREE_BTREE_H_

#include <cstdint>

#include "btree/bplus_skeleton.h"
#include "btree/btree_page.h"
#include "common/result.h"
#include "common/status.h"
#include "xml/element.h"

namespace xrtree {

/// Tuning knobs, mainly for tests: shrinking the fanout forces deep trees
/// and frequent splits/merges on small inputs.
struct BTreeOptions {
  /// Maximum entries per leaf / internal node; 0 = fill the page.
  uint32_t leaf_capacity = 0;
  uint32_t internal_capacity = 0;
};

/// Disk-based B+-tree over region-encoded elements, keyed on start position
/// (start positions are unique within a corpus). This is the index behind
/// the Anc_Des_B+ baseline (Chien et al., VLDB'02) and the backbone that
/// the XR-tree extends.
///
/// Classic design: leaves hold Element entries and are doubly linked;
/// internal nodes hold separator keys; deletion redistributes or merges on
/// underflow. No parent pointers — mutations carry the descent path. The
/// descents, splits, rebalancing, bulk load and checker are BPlusSkeleton's
/// with every hook left at its default; BulkLoad, BulkLoadFromFile,
/// CheckConsistency, Height, the leaf cursors (LowerBound, UpperBound,
/// Begin), CountEntries and the accessors come from it too.
///
/// Thread safety (DESIGN.md §14): const lookups (Search, LowerBound,
/// UpperBound, Begin, Height) descend with R-latch coupling and return
/// snapshot iterators, so any number of reader threads may probe the tree.
/// Insert/Delete run per-page latch-crabbing descents (WriteLatchSet): any
/// number of writer threads may run concurrently with each other and with
/// readers. Readers racing an in-flight structural change see a consistent
/// (possibly momentarily stale) view — never a torn page; joins needing
/// exact results quiesce writers first. BulkLoad and
/// CheckConsistency/CountPages/CountEntries remain quiescent-only.
class BTree : public BPlusSkeleton<BTree, BTreeLayout> {
 public:
  /// Creates an accessor. If `root` is kInvalidPageId the tree starts
  /// empty and allocates its root lazily on first insert.
  BTree(BufferPool* pool, PageId root = kInvalidPageId,
        const BTreeOptions& options = {})
      : BPlusSkeleton(pool, root, options.leaf_capacity,
                      options.internal_capacity) {}

  /// Inserts `element` keyed on element.start. Duplicate keys are an error
  /// (region encoding guarantees unique starts).
  Status Insert(const Element& element);

  /// Removes the element with start == `key`; NotFound if absent.
  Status Delete(Position key);

  /// Exact lookup by start position.
  Result<Element> Search(Position key) const;

  /// All elements with start in (low, high) — FindDescendants semantics
  /// when (low, high) is an ancestor's region.
  Result<ElementList> RangeScan(Position low_exclusive,
                                Position high_exclusive) const;

  /// Number of pages (leaf + internal) in the tree.
  Result<uint64_t> CountPages() const;
};

}  // namespace xrtree

#endif  // XRTREE_BTREE_BTREE_H_
