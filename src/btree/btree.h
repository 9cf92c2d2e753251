#ifndef XRTREE_BTREE_BTREE_H_
#define XRTREE_BTREE_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "btree/btree_page.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_latch.h"
#include "xml/element.h"

namespace xrtree {

class BTreeIterator;
class ElementFile;

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
/// underflow. No parent pointers — mutations carry the descent path.
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
class BTree {
 public:
  /// Creates an accessor. If `root` is kInvalidPageId the tree starts
  /// empty and allocates its root lazily on first insert.
  BTree(BufferPool* pool, PageId root = kInvalidPageId,
        const BTreeOptions& options = {});

  /// Moves are quiescent-only (factory returns like StoredElementSet::Open):
  /// they transfer the tree identity — pool, root, cached size — while the
  /// latching state (mutexes) is freshly constructed, which is sound
  /// precisely because no operation may be in flight on either side.
  BTree(BTree&& other) noexcept
      : pool_(other.pool_),
        root_(other.root_.load(std::memory_order_acquire)),
        size_(other.size_.load(std::memory_order_acquire)),
        leaf_cap_(other.leaf_cap_),
        internal_cap_(other.internal_cap_) {}
  BTree& operator=(BTree&& other) noexcept {
    pool_ = other.pool_;
    root_.store(other.root_.load(std::memory_order_acquire),
                std::memory_order_release);
    size_.store(other.size_.load(std::memory_order_acquire),
                std::memory_order_release);
    leaf_cap_ = other.leaf_cap_;
    internal_cap_ = other.internal_cap_;
    return *this;
  }

  /// Current root page (persist this to reopen the tree later).
  PageId root() const { return root_.load(std::memory_order_acquire); }
  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  /// Recomputes size by walking leaves — for reopened trees.
  Result<uint64_t> CountEntries();

  /// Inserts `element` keyed on element.start. Duplicate keys are an error
  /// (region encoding guarantees unique starts).
  Status Insert(const Element& element);

  /// Removes the element with start == `key`; NotFound if absent.
  Status Delete(Position key);

  /// Exact lookup by start position.
  Result<Element> Search(Position key) const;

  /// Bulk-loads a start-sorted element list into a fresh tree. The tree
  /// must be empty. Leaves are packed to `fill_fraction` of capacity.
  Status BulkLoad(const ElementList& elements, double fill_fraction = 1.0);

  /// Streams a start-sorted corpus out of an on-disk ElementFile in one
  /// sequential pass, holding only a one-leaf lookahead in memory — the
  /// element list is never materialized. Same contract as BulkLoad
  /// otherwise (empty tree, sorted input).
  Status BulkLoadFromFile(const ElementFile& file, double fill_fraction = 1.0);

  /// Iterator positioned at the first element with start >= key
  /// (invalid iterator if none). The primitive behind descendant skipping.
  Result<BTreeIterator> LowerBound(Position key) const;
  /// First element with start > key.
  Result<BTreeIterator> UpperBound(Position key) const;
  /// First element of the tree.
  Result<BTreeIterator> Begin() const;

  /// All elements with start in (low, high) — FindDescendants semantics
  /// when (low, high) is an ancestor's region.
  Result<ElementList> RangeScan(Position low_exclusive,
                                Position high_exclusive) const;

  /// Validates structural invariants over the whole tree; used heavily by
  /// property tests.
  Status CheckConsistency() const;

  /// Height of the tree (0 = empty, 1 = root leaf).
  Result<uint32_t> Height() const;

  /// Number of pages (leaf + internal) in the tree.
  Result<uint64_t> CountPages() const;

  BufferPool* pool() const { return pool_; }

  uint32_t leaf_capacity() const { return leaf_cap_; }
  uint32_t internal_capacity() const { return internal_cap_; }

 private:
  friend class BTreeIterator;

  struct PathEntry {
    PageId page;
    uint32_t slot;  ///< child slot taken (0 = leftmost)
  };

  Status InitRootLeaf();

  /// Shared bulk-load engine: pulls start-sorted elements from `next`
  /// (false = exhausted) and packs leaves left to right against a bounded
  /// lookahead of leaf_capacity + min_fill elements, so callers can stream
  /// arbitrarily large corpora.
  Status BulkLoadImpl(const std::function<bool(Element*)>& next,
                      double fill_fraction);

  /// Reader descent with R-latch coupling: returns the owning leaf pinned
  /// and R-latched (an empty default on an empty tree). Retries when the
  /// root moves between the atomic load and the latch grant.
  Result<ReadLatchedPage> DescendToLeafRead(Position key) const;

  /// Writer descent with latch crabbing: W-latches from the root down into
  /// `ls`, releasing held ancestors whenever the just-latched child is safe
  /// (for_insert: has room; otherwise: above min fill). Returns the leaf;
  /// `path` records the root-to-leaf child slots (entries above the crab
  /// point refer to released pages and are never revisited).
  Result<Page*> DescendToLeafWrite(Position key, bool for_insert,
                                   WriteLatchSet& ls,
                                   std::vector<PathEntry>& path);

  Status InsertIntoParent(WriteLatchSet& ls, std::vector<PathEntry>& path,
                          Position sep_key, PageId right_child);
  /// Restructures after path[depth] underflowed: borrow from a sibling,
  /// else merge with one and collapse an emptied root, one level per pass
  /// while the parent underflows in turn. Every node it touches is held in
  /// `ls`.
  Status Rebalance(WriteLatchSet& ls, const std::vector<PathEntry>& path,
                   size_t depth);

  Status CheckNode(PageId id, bool is_root, Position lo, Position hi,
                   int* height) const;

  BufferPool* pool_;
  std::atomic<PageId> root_;
  std::atomic<uint64_t> size_{0};
  /// Serializes lazy root creation (two first-inserters racing).
  std::mutex root_init_mu_;
  uint32_t leaf_cap_;
  uint32_t internal_cap_;
};

}  // namespace xrtree

#endif  // XRTREE_BTREE_BTREE_H_
