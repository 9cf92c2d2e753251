#ifndef XRTREE_XRTREE_XRTREE_H_
#define XRTREE_XRTREE_XRTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <vector>

#include "btree/bplus_skeleton.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_latch.h"
#include "xml/element.h"
#include "xrtree/page_codec.h"
#include "xrtree/stab_list.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

/// Tuning knobs, mainly for tests (small fanouts force deep trees and
/// multi-page stab chains on small inputs).
struct XrTreeOptions {
  uint32_t leaf_capacity = 0;      ///< 0 = fill the page
  uint32_t internal_capacity = 0;  ///< 0 = fill the page

  /// Ablation: pick the naive split key (first key of the right leaf)
  /// instead of the paper's stab-minimizing choice of §3.2 (the key-79
  /// vs key-80 example). Expect more stab entries.
  bool naive_split_key = false;

  /// Ablation: never build ps-directory pages (Fig. 4); multi-page stab
  /// chains are then located by scanning from the head page.
  bool disable_ps_directory = false;

  /// Emit compressed leaf and stab pages (DESIGN.md §15) from BulkLoad /
  /// Compact and stab-chain rewrites. Reads are per-page format-transparent
  /// either way; Insert/Delete decompress a compressed leaf in place before
  /// mutating it. A tree reopened without the flag still reads compressed
  /// pages correctly — it merely stops producing new ones.
  bool compressed_pages = false;
};

/// Aggregate statistics about the stab lists of a tree — the measurements
/// behind the §3.3 space study.
struct StabStats {
  uint64_t internal_nodes = 0;
  uint64_t leaf_pages = 0;
  uint64_t stab_entries = 0;
  uint64_t stab_pages = 0;
  uint64_t ps_dir_pages = 0;
  uint32_t max_stab_pages_per_node = 0;
  double avg_stab_pages_per_node = 0.0;
};

/// Node-layout traits of the XR-tree for BPlusSkeleton.
struct XrLayout {
  using Header = XrPageHeader;
  using InternalEntry = XrInternalEntry;
  static constexpr const char* kName = "xrtree";
  static constexpr uint32_t kLeafMagic = kXrLeafMagic;
  static constexpr uint32_t kInternalMagic = kXrInternalMagic;
  static constexpr size_t kLeafMaxEntries = kXrLeafMaxEntries;
  static constexpr size_t kInternalMaxEntries = kXrInternalMaxEntries;
  /// A compressed leaf holds more entries than a fixed one.
  static constexpr size_t kLeafMaxEntriesAnyFormat =
      std::max(kXrLeafMaxEntries, kXrcMaxPageEntries);

  static Header* Hdr(Page* p) { return XrHeader(p); }
  static const Header* Hdr(const Page* p) { return XrHeader(p); }
  static Element* Leaf(Page* p) { return XrLeafSlots(p); }
  static const Element* Leaf(const Page* p) { return XrLeafSlots(p); }
  static InternalEntry* Slots(Page* p) { return XrInternalSlots(p); }
  static const InternalEntry* Slots(const Page* p) {
    return XrInternalSlots(p);
  }
  /// A new key's PSL summary starts nil; WriteNodeStab refreshes it.
  static InternalEntry MakeEntry(Position key, PageId child) {
    return {key, kNilPosition, kNilPosition, child};
  }
  static Status CheckPage(const Page* p) { return XrCheckPage(p); }
  /// A leaf of either page format, checked and copied from `from`.
  static Status CopyLeaf(const Page* p, Position from,
                         std::vector<Element>* out) {
    return XrLeafAppend(p, out, from);
  }
};

/// XML Region Tree (Definition 4): a disk-based B+-tree over element start
/// positions whose internal nodes carry stab lists, supporting
///
///   * FindDescendants (Algorithm 3) in O(log_F N + R/B) I/Os, and
///   * FindAncestors  (Algorithm 4/5) in O(log_F N + R) I/Os,
///
/// both worst-case optimal (Theorems 3-4). Insertion and deletion follow
/// Algorithms 1-2, maintaining the invariant that every indexed element is
/// held by the *topmost* internal node with a stabbing key, tagged with
/// that node's *smallest* stabbing key, or is flagged InStabList=no in its
/// leaf when no internal key stabs it.
///
/// Thread safety (DESIGN.md §14): const queries descend with R-latch
/// coupling (stab chains are read under their owning node's R latch) and
/// the leaf cursors are snapshot iterators, so any number of reader threads
/// may query concurrently. Insert runs a per-page latch-crabbing descent
/// (WriteLatchSet), converting a compressed leaf inside it, and keeps the
/// node that took the element's stab entry W-latched to the end of the
/// operation, so any number of inserters run concurrently with each other
/// and with readers. Delete's stab maintenance (Algorithm 2's D31
/// reinsertion and the key-replacement sweeps) revisits subtrees OFF the
/// descent path, which breaks the pure top-down acquisition discipline
/// crabbing relies on — stage 1 therefore runs each Delete under an
/// exclusive writer gate (inserts take it shared); readers are unaffected. Stage 2 (copy-on-write snapshots,
/// ROADMAP) removes the gate. Readers racing in-flight writes see a
/// consistent but possibly momentarily stale view; joins needing exact
/// results quiesce writers first. BulkLoad and CheckConsistency /
/// ComputeStabStats / CountEntries remain quiescent-only.
///
/// Every mutator bumps a write sequence before its first latch (see
/// WriteScope). XrProbeCursor tags its copy of a probe path with it and
/// serves probes from the copy while the sequence stands still, so a run
/// of ascending FindAncestorsAbove probes mostly touches no page
/// (DESIGN.md §10).
class XrTree
    : public BPlusSkeleton<XrTree, XrLayout, std::vector<StabEntry>> {
  using Skeleton = BPlusSkeleton<XrTree, XrLayout, std::vector<StabEntry>>;

 public:
  XrTree(BufferPool* pool, PageId root = kInvalidPageId,
         const XrTreeOptions& options = {});

  /// Moves are quiescent-only (factory returns like StoredElementSet::Open):
  /// they transfer the tree identity — pool, root, cached size, split
  /// policy — while the latching state (mutexes, writer gate) is freshly
  /// constructed, which is sound precisely because no operation may be in
  /// flight on either side.
  XrTree(XrTree&& other) noexcept
      : Skeleton(std::move(other)),
        naive_split_key_(other.naive_split_key_),
        use_ps_dir_(other.use_ps_dir_),
        compressed_(other.compressed_) {}
  XrTree& operator=(XrTree&& other) noexcept {
    Skeleton::operator=(std::move(other));
    naive_split_key_ = other.naive_split_key_;
    use_ps_dir_ = other.use_ps_dir_;
    compressed_ = other.compressed_;
    // This object now names a different tree: invalidate every probe
    // cursor still holding copies of the old one.
    write_seq_.fetch_add(1, std::memory_order_acq_rel);
    return *this;
  }

  /// Algorithm 1. Inserts `element` (keyed on start; starts are unique).
  Status Insert(const Element& element);

  /// Algorithm 2. Removes the element with start == `key`.
  Status Delete(Position key);

  /// Exact lookup by start position.
  Result<Element> Search(Position key) const;

  /// Bulk-loads a start-sorted, strictly-nested element list into an empty
  /// tree: builds the backbone bottom-up, then computes stab lists in one
  /// pass. Much faster than repeated Insert for benchmark-scale sets.
  Status BulkLoad(const ElementList& elements, double fill_fraction = 1.0);

  /// Streaming bulk load: builds the tree in one sequential pass over a
  /// persistent sorted element file without materializing the ElementList
  /// in memory (ROADMAP "huge corpora build in one sequential pass"). Only
  /// a bounded lookahead window (one page's worth of entries plus the
  /// min-fill margin) is buffered. Same preconditions as BulkLoad.
  Status BulkLoadFromFile(const ElementFile& file, double fill_fraction = 1.0);

  /// Rewrites the whole tree via bulk load, recompressing every leaf and
  /// stab page when options.compressed_pages is set — the explicit
  /// compaction pass that re-packs pages diluted by incremental
  /// decompress-on-write splits. Quiescent-only (takes the writer gate
  /// exclusively; no readers may be active) and materializes the element
  /// set in memory while it runs.
  Status Compact();

  /// Algorithm 3: all elements strictly inside `ancestor`'s region,
  /// in document order. `scanned` (optional) accumulates the number of
  /// element entries examined.
  Result<ElementList> FindDescendants(const Element& ancestor,
                                      uint64_t* scanned = nullptr) const;

  /// Algorithms 4+5: all indexed elements whose region strictly contains
  /// position `sd`, in document order (outermost first).
  Result<ElementList> FindAncestors(Position sd,
                                    uint64_t* scanned = nullptr) const;

  /// XR-stack variation (§5.2): ancestors of `sd` with start > `min_start`
  /// — i.e. those above the caller's current stack top. The floor also
  /// bounds each internal node's key walk: a key <= min_start stabs only
  /// elements with start <= key, so its stab list is never searched (or
  /// fetched). min_start = 0 walks every key, as Algorithm 5 does. When
  /// `next_start` is non-null it receives the start of the first indexed
  /// element with start >= sd (the S2 scan's terminator, which becomes the
  /// join's next CurA at no extra cost; equality only occurs on self-joins
  /// where the probe position is itself an indexed start), or kNilPosition
  /// past the end of the index.
  Result<ElementList> FindAncestorsAbove(Position sd, Position min_start,
                                         uint64_t* scanned = nullptr,
                                         Position* next_start = nullptr) const;

  /// §5.3: parent-child primitives. FindChildren filters descendants to
  /// level == ancestor.level + 1; FindParent returns the unique parent of
  /// the element whose start is `sd` at level `level`, if indexed here.
  Result<ElementList> FindChildren(const Element& ancestor,
                                   uint64_t* scanned = nullptr) const;
  Result<ElementList> FindParent(Position sd, uint16_t level,
                                 uint64_t* scanned = nullptr) const;

  /// Up to `max_keys` separator keys drawn from the topmost internal levels,
  /// strictly ascending — the partition boundaries of the parallel join.
  /// Every returned key `k` is a real B+-tree separator (left starts < k <=
  /// right starts), so splitting the key space into [0,k1), [k1,k2), ...,
  /// [kn, nil) assigns each indexed element — and each internal node's stab
  /// ownership — to exactly one range. Returns fewer keys (possibly none)
  /// when the tree is too shallow to offer that many distinct separators;
  /// the descent stops at the deepest internal level that satisfies the
  /// request and thins it to an evenly spaced subset. Const and
  /// reader-concurrent like the other queries; racing a structural change
  /// it retries a few times and then degrades to fewer (possibly zero)
  /// keys rather than failing — any separator snapshot is a valid plan.
  Result<std::vector<Position>> PartitionKeys(size_t max_keys) const;

  /// Deep validation of every structural and stab invariant (B+ shape,
  /// topmost-node rule, smallest-key tagging, PSL nesting, (ps,pe)
  /// summaries, InStabList flags, ps-directory correctness). O(N log N);
  /// for tests. Quiescent-only.
  Status CheckConsistency() const;

  Result<StabStats> ComputeStabStats() const;


 private:
  friend Skeleton;
  friend class XrProbeCursor;

  /// Held by every mutator (Insert, Delete, BulkLoad, BulkLoadFromFile,
  /// Compact) from before its first latch until after its deferred frees:
  /// registers in writers_active_, then bumps write_seq_, which invalidates
  /// every XrProbeCursor copy of the tree (DESIGN.md §10).
  class WriteScope {
   public:
    explicit WriteScope(XrTree* tree) : tree_(tree) {
      tree_->writers_active_.fetch_add(1, std::memory_order_acq_rel);
      tree_->write_seq_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WriteScope() {
      tree_->writers_active_.fetch_sub(1, std::memory_order_acq_rel);
    }
    WriteScope(const WriteScope&) = delete;
    WriteScope& operator=(const WriteScope&) = delete;

   private:
    XrTree* tree_;
  };

  /// One decompress-on-write round on the leaf at path.back(), of either
  /// format (DESIGN.md §15). When its entries fit leaf_capacity it is left
  /// in the fixed layout (ReadLeafForEdit) and the result is false.
  /// Otherwise (only a compressed leaf holds more) it takes one SplitLeaf
  /// and returns true; the caller then releases and re-descends. A split
  /// needs the leaf's ancestors W-latched up to a node that can take the
  /// key: Insert's crab keeps them (an over-full leaf is unsafe), Delete
  /// holds the full path.
  Result<bool> DecompressLeafStep(WriteLatchSet& ls,
                                  const std::vector<PathEntry>& path);

  /// Reads a leaf held W-latched in `ls` for an edit. A leaf the view had
  /// to decode whose entries fit leaf_capacity is first rewritten in the
  /// layout the format rule picks for it, the fixed one, and marked dirty,
  /// so the view returned is its own slot array; a larger one comes back
  /// decoded into *scratch.
  Result<XrLeafView> ReadLeafForEdit(WriteLatchSet& ls, Page* leaf,
                                     std::vector<Element>* scratch);

  /// Removes the speculative I1 stab placement for `element` from
  /// `placed_page` (still held in `ls`): a duplicate key undoes it before
  /// reporting, and a compressed-leaf split undoes it before rewriting the
  /// stab lists on the held path.
  Status RollbackStabPlacement(WriteLatchSet& ls, PageId placed_page,
                               Position placed_key, const Element& element);

  /// Rewrites `node`'s stab chain to `entries` (sorted), updating the
  /// header references and every key's (ps, pe) summary. The caller holds
  /// the node's W-latch (or runs quiescent) and marks it dirty.
  Status WriteNodeStab(Page* node, std::vector<StabEntry> entries);
  Result<std::vector<StabEntry>> ReadNodeStab(const Page* node) const;

  /// Inserts one stab entry into `node`'s chain (Algorithm 1, step I1).
  /// Caller holds the W-latch and marks dirty.
  Status InsertStabIntoNode(Page* node, const StabEntry& entry);

  /// Demotes `entry` starting at `from` (which the caller holds in `ls`):
  /// descends toward entry.s until a node with a stabbing key is found
  /// (insert there) or the leaf is reached (clear the InStabList flag).
  /// Algorithm 2, step D31. Pages not already in `ls` are W-latch-coupled
  /// down and released as the descent moves past them.
  Status PlaceEntry(WriteLatchSet& ls, PageId from, const StabEntry& entry);

  /// Pull-up sweep for a key newly present in a node: descends from
  /// `subtree` along the path of `k`, removing stab entries stabbed by `k`
  /// (s <= k <= e) and collecting newly stabbed InStabList=no leaf
  /// elements (flag set to yes). Latching discipline as PlaceEntry.
  Status CollectStabbedDescent(WriteLatchSet& ls, PageId subtree, Position k,
                               std::vector<StabEntry>* out);

  // BPlusSkeleton hooks: the XR-tree's stab maintenance and page formats
  // on the shared B+-tree algorithms (DESIGN.md §5.1 maps each to its
  // Algorithm 1/2 step).

  /// I22: the §3.2 split key.
  Position LeafSplitKey(const std::vector<Element>& all, size_t half) const;
  /// I22: StabSet', the elements the separator newly stabs (flags set).
  std::vector<StabEntry> SplitLeafCarry(std::vector<Element>& all,
                                        Position sep);
  /// Writes a leaf in the format XrLeafFormatAfterEdit picks for `before`.
  Status WriteLeaf(Page* leaf, const Element* elems, size_t n,
                   const Page* before);
  /// I31/I32: retags the successor key's PSL entries that the new key
  /// stabs and gathers the node's stab entries with the carried StabSet'.
  Status GatherForNewKey(Page* node, uint32_t at, Position sep_key,
                         std::vector<StabEntry>& carry);
  /// I31/I4: writes the gathered entries as the node's stab chain.
  Status CommitNode(Page* node, std::vector<StabEntry>& carry);
  /// I32: StabSet'' (entries stabbed by km) travels up; the rest split
  /// between the two halves by key.
  Status SplitCarry(Page* left, Page* right, Position km,
                    std::vector<StabEntry>& carry);
  /// D22/D32: re-derives the parent's stab list over the new key set,
  /// demoting entries no key stabs and pulling up those `knew` stabs.
  Status OnSeparatorReplaced(WriteLatchSet& ls, PageId parent,
                             uint32_t key_slot, Position knew);
  /// D31 after D23/D33: PSL(removed) is retagged or demoted.
  Status OnSeparatorRemoved(WriteLatchSet& ls, PageId parent,
                            Position removed);
  /// D33: moves every entry of SL(victim) into SL(dest); victim's chain
  /// is cleared. All victim keys exceed all dest keys (left-merge order),
  /// and dest's keys already include them.
  Status MergeInternal(Page* dest, Page* victim);
  /// D4: the demotions emptied the dying root's stab chain.
  Status CheckCollapsingRoot(const Page* root);
  size_t LeafPackMax() const;
  /// Bulk-load leaf: fixed, or compressed with its own take rule.
  Result<size_t> PackLeaf(Page* leaf, const std::deque<Element>& buf,
                          size_t take, bool exhausted, double fill_fraction);
  /// The bulk-load stab pass.
  Status FinishBulkLoad(PageId root, const std::vector<PageId>& leaves,
                        size_t internal_levels);
  Result<XrLeafView> LeafEntries(const Page* leaf,
                                 std::vector<Element>* scratch) const {
    return XrLeafRead(leaf, scratch);
  }
  bool LeafMayExceedCapacity(const Page* leaf) const;
  /// Stab-chain order, smallest-key tagging, PSL nesting, (ps, pe)
  /// summaries and ps-directory agreement of one node.
  Status CheckInternalNode(const Page* node) const;

  /// Mutators started (see WriteScope) and mutators still running.
  std::atomic<uint64_t> write_seq_{0};
  std::atomic<uint32_t> writers_active_{0};
  /// Stage-1 writer gate: Insert shared; Delete (its off-path stab sweeps
  /// can deadlock against a concurrent inserter's rightward lateral
  /// latches), BulkLoad, BulkLoadFromFile and Compact exclusive. Readers
  /// never touch it.
  std::shared_mutex writer_gate_;
  bool naive_split_key_ = false;
  bool use_ps_dir_ = true;
  bool compressed_ = false;
};

}  // namespace xrtree

#endif  // XRTREE_XRTREE_XRTREE_H_
