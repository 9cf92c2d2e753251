#ifndef XRTREE_BTREE_SPTREE_H_
#define XRTREE_BTREE_SPTREE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "btree/bplus_skeleton.h"
#include "btree/btree_page.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "xml/element.h"

namespace xrtree {

/// One B+sp leaf entry: the element plus its *sibling pointer*, the leaf
/// slot of the first element that starts past this one's end (nil page
/// when none does).
struct SpEntry {
  Element element;
  PageId sib_page;
  uint32_t sib_slot;
};
static_assert(sizeof(SpEntry) == 24);

/// A leaf cursor's snapshot entry: the leaf entry and the slot it sits in,
/// which a sibling jump's landing must match.
struct SpSnapEntry : SpEntry {
  PageId page;
  uint32_t slot;
};

/// Node-layout traits of the B+sp tree for BPlusSkeleton: the B-tree's
/// header, internal entries and magics over SpEntry leaf slots.
struct SpLayout {
  using Header = BTreePageHeader;
  using InternalEntry = BTreeInternalEntry;
  using SnapEntry = SpSnapEntry;
  static constexpr const char* kName = "sptree";
  static constexpr uint32_t kLeafMagic = kBTreeLeafMagic;
  static constexpr uint32_t kInternalMagic = kBTreeInternalMagic;
  static constexpr size_t kLeafMaxEntries =
      (kPageDataSize - sizeof(BTreePageHeader)) / sizeof(SpEntry);
  static constexpr size_t kInternalMaxEntries = kBTreeInternalMaxEntries;
  static constexpr size_t kLeafMaxEntriesAnyFormat = kLeafMaxEntries;

  static Header* Hdr(Page* p) { return BTreeHeader(p); }
  static const Header* Hdr(const Page* p) { return BTreeHeader(p); }
  static SpEntry* Leaf(Page* p) {
    return reinterpret_cast<SpEntry*>(p->data() + sizeof(Header));
  }
  static const SpEntry* Leaf(const Page* p) {
    return reinterpret_cast<const SpEntry*>(p->data() + sizeof(Header));
  }
  static InternalEntry* Slots(Page* p) { return InternalSlots(p); }
  static const InternalEntry* Slots(const Page* p) { return InternalSlots(p); }
  static InternalEntry MakeEntry(Position key, PageId child) {
    return {key, child};
  }
  static Status CheckPage(const Page* p) {
    return BTreeCheckPage(p, kLeafMaxEntries);
  }
  /// Checks that `p` is a leaf and appends its entries with start >= `from`
  /// to *out, each with its slot.
  static Status CopyLeaf(const Page* p, Position from,
                         std::vector<SnapEntry>* out);
};

/// B+sp (Chien et al., VLDB'02): a B+-tree over start positions whose leaf
/// entries additionally carry a sibling pointer (SpEntry). The Anc_Des_B+
/// ancestor-side skip then follows one pointer instead of re-probing the
/// tree from the root (SpIterator::FollowSibling).
///
/// The XR-tree paper tested B+sp/B+psp and dropped them from the tables
/// because "they have similar behavior as that of B+" (§6.1);
/// bench/related_work_joins re-checks that. Sibling pointers are computed
/// at bulk-load time; dynamic maintenance (which Chien et al. handle with
/// containment-clustered splits) is out of scope here, so the index is
/// build-once: BulkLoad, BulkLoadFromFile, the descents, the leaf cursors
/// (LowerBound, UpperBound, Begin), CountEntries and the B+ checks are
/// BPlusSkeleton's, and the tree adds only the SpEntry leaf packing, the
/// pointer-wiring pass and the pointer check (DESIGN.md §5.1).
class SpTree : public BPlusSkeleton<SpTree, SpLayout> {
  using Skeleton = BPlusSkeleton<SpTree, SpLayout>;

 public:
  explicit SpTree(BufferPool* pool, PageId root = kInvalidPageId)
      : Skeleton(pool, root, 0, 0) {}

  /// The skeleton's B+ checks, then every sibling pointer's target.
  /// Quiescent-only.
  Status CheckConsistency() const;

 private:
  friend Skeleton;

  /// Writes the leaf's SpEntry slots, every pointer nil.
  Result<size_t> PackLeaf(Page* leaf, const std::deque<Element>& buf,
                          size_t take, bool exhausted, double fill_fraction);
  /// Wires every sibling pointer in one pass over the new leaves.
  Status FinishBulkLoad(PageId root, const std::vector<PageId>& leaves,
                        size_t internal_levels);
  Result<LeafSpan> LeafEntries(const Page* leaf,
                               std::vector<Element>* scratch) const;
};

/// The B+sp cursor: the skeleton's snapshot cursor, with FollowSibling.
using SpIterator = SpTree::Cursor;

}  // namespace xrtree

#endif  // XRTREE_BTREE_SPTREE_H_
