#ifndef XRTREE_BTREE_BPLUS_SKELETON_H_
#define XRTREE_BTREE_BPLUS_SKELETON_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "btree/leaf_cursor.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/element_file.h"
#include "storage/page_latch.h"
#include "xml/element.h"

namespace xrtree {

/// Child slot for descending toward `key` over a node's `count` key slots:
/// the first slot with slots[slot].key > key, so 0 names the leftmost child
/// and i+1 the child right of slots[i]. Keys >= k live under k's right
/// child, which matches the stab convention that separator k satisfies
/// left starts < k <= right starts.
template <typename Entry>
inline uint32_t ChildSlotIn(const Entry* slots, uint32_t count, Position key) {
  uint32_t lo = 0, hi = count;
  while (lo < hi) {  // first slot with slots[slot].key > key
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// What a split posts to the parent besides the separator, for a tree whose
/// internal nodes hold nothing but keys.
struct NoCarry {};

/// The B+-tree the disk indexes run on (DESIGN.md §5.1): the XR-tree is
/// "essentially a B+-tree" whose internal nodes also carry stab lists
/// (Definition 4), the B-tree is the backbone of the Anc_Des_B+ baseline,
/// and the build-once B+sp tree (SpTree) is a B-tree whose leaf entries
/// carry sibling pointers. This template owns the algorithms they share,
/// written once:
///
///   * the reader descent (root retry, R-latch coupling, depth bound);
///   * the writer crab (W-latch crabbing with a per-call safety test);
///   * the leaf split and InsertIntoParent (Algorithm 1, I22/I31/I32/I4);
///   * Rebalance (Algorithm 2, D22/D23/D32/D33/D4);
///   * the streaming bulk load;
///   * the structural checker and the leaf-chain walk;
///   * the leaf cursors (LowerBound, UpperBound, Begin: one LeafCursor),
///     CountEntries and the read-ahead listing (ListLeaves).
///
/// `Layout` is a node-layout traits type: Header, InternalEntry, kName, the
/// leaf and internal magics and capacities, kLeafMaxEntriesAnyFormat,
/// Hdr/Leaf/Slots accessors, MakeEntry(key, child), CheckPage (magic plus
/// count bound), SnapEntry (what a cursor snapshot holds per entry) and
/// CopyLeaf (checks a leaf and appends a copy of its entries from a key;
/// the cursor calls it under the leaf's R latch). `Tree`
/// derives from this class (CRTP) and may redeclare any hook below to add
/// its per-index behaviour; a hook it leaves alone keeps the plain B+-tree
/// default. Hooks bind at compile time: no virtual call and no
/// std::function sits on any descent or per-element loop. `Carry` is what
/// a split posts to the parent with its separator (the XR-tree's StabSet').
///
/// Leaves the algorithms edit are in the fixed slot layout: a tree with
/// another leaf format converts a leaf (ReadLeafForEdit) before it hands
/// it over.
template <typename Tree, typename Layout, typename Carry = NoCarry>
class BPlusSkeleton {
 public:
  using Header = typename Layout::Header;
  using Entry = typename Layout::InternalEntry;
  using NodeLayout = Layout;
  using Cursor = LeafCursor<Tree>;

  /// Current root page (persist this to reopen the tree later).
  PageId root() const { return root_.load(std::memory_order_acquire); }
  /// Entry count, when size_tracked(): for a tree this handle built (from
  /// empty or by BulkLoad) or counted (CountEntries), followed by every
  /// insert and delete made through this handle. A handle reopened by its
  /// root alone tracks none until CountEntries: its size() stays 0 and the
  /// checker compares only a tracked count.
  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  bool size_tracked() const {
    return size_tracked_.load(std::memory_order_acquire);
  }
  BufferPool* pool() const { return pool_; }
  uint32_t leaf_capacity() const { return leaf_cap_; }
  uint32_t internal_capacity() const { return internal_cap_; }

  /// Height of the tree (0 = empty, 1 = root leaf). Every leaf sits at the
  /// same depth, so any key's descent measures it.
  Result<uint32_t> Height() const {
    uint32_t height = 0;
    XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf,
                        DescendRead(0, [&height](const Page*) {
                          ++height;
                          return Status::Ok();
                        }));
    return leaf ? height + 1 : 0;
  }

  /// Snapshot cursor on the first element with start >= key (invalid when
  /// there is none): the primitive behind descendant skipping.
  Result<Cursor> LowerBound(Position key) const {
    Cursor it(&self());
    XR_RETURN_IF_ERROR(it.Reseek(key, /*exclusive=*/false));
    return it;
  }
  /// First element with start > key.
  Result<Cursor> UpperBound(Position key) const {
    Cursor it(&self());
    XR_RETURN_IF_ERROR(it.Reseek(key, /*exclusive=*/true));
    return it;
  }
  /// First element of the tree.
  Result<Cursor> Begin() const { return LowerBound(0); }

  /// Recomputes size by walking the leaves, for reopened trees.
  /// Quiescent-only.
  Result<uint64_t> CountEntries() {
    // A stale-but-checksummed leaf chain can form a cycle among otherwise
    // valid leaves; no honest file holds more entries than every page being
    // a full leaf, so anything past that bound is corruption, not data.
    const uint64_t bound = uint64_t{pool_->disk()->num_pages()} *
                           Layout::kLeafMaxEntriesAnyFormat;
    uint64_t n = 0;
    XR_ASSIGN_OR_RETURN(Cursor it, Begin());
    while (it.Valid()) {
      if (++n > bound) return Corrupt("leaf chain cycle while counting");
      XR_RETURN_IF_ERROR(it.Next());
    }
    size_.store(n, std::memory_order_release);
    size_tracked_.store(true, std::memory_order_release);
    return n;
  }

  /// A leaf id and the lowest key its leaf can hold: its separator, or the
  /// listing's starting key for the first leaf listed.
  struct LeafRef {
    Position lo;
    PageId id;
  };

  /// Lists, with no leaf I/O, up to `max` (>= 1) leaves under the
  /// last-level internal node whose subtree holds `key`: the child that
  /// holds `key` and the later children whose key ranges start before
  /// `hi`, appended to *out. Returns the lowest key of the first leaf not
  /// listed (at or past `hi` when `hi` stopped the listing), or
  /// kNilPosition past the rightmost leaf, so a caller lists a key range
  /// at most one parent at a time on a tree of any height. `visit(node)`
  /// runs under the R latch of each internal node the listing descends
  /// through, the last-level one included. Reader-concurrent: the ids are
  /// for read-ahead only, and a concurrent writer can make them stale.
  ///
  /// The last internal level is found from the height hint. A hint that a
  /// writer through another handle made stale lists internal ids, or stops
  /// on a leaf it reads (and corrects the hint); a handle reopened by its
  /// root measures the height once, with one leaf read.
  template <typename Visit>
  Result<Position> ListLeaves(Position key, Position hi, size_t max,
                              std::vector<LeafRef>* out, Visit&& visit) const {
    uint32_t height = height_.load(std::memory_order_relaxed);
    if (height == 0) {
      XR_ASSIGN_OR_RETURN(height, Height());
      if (height == 0) return kNilPosition;  // empty tree
      height_.store(height, std::memory_order_relaxed);
    }
    // The separator after the taken slot, at the deepest level that has
    // one, bounds the listed node from above.
    Position upper = kNilPosition;
    uint32_t internal = 0;
    auto above = [&](const Page* node) {
      ++internal;
      const uint32_t slot = ChildSlot(node, key);
      if (slot < Layout::Hdr(node)->count) {
        upper = Layout::Slots(node)[slot].key;
      }
      return visit(node);
    };
    // The last internal level sits at depth height - 2 (the root is 0).
    XR_ASSIGN_OR_RETURN(
        ReadLatchedPage node,
        DescendRead(key, above, static_cast<int>(height) - 2));
    if (!node) return kNilPosition;  // empty tree
    const Page* raw = node.get();
    if (Layout::Hdr(raw)->is_leaf) {
      // The tree shrank under the hint (or is one leaf): this is the leaf.
      height_.store(internal + 1, std::memory_order_relaxed);
      out->push_back({key, raw->page_id()});
      return upper;
    }
    XR_RETURN_IF_ERROR(visit(raw));
    const uint32_t count = Layout::Hdr(raw)->count;
    const Entry* slots = Layout::Slots(raw);
    uint32_t slot = ChildSlot(raw, key);
    out->push_back({key, ChildAt(raw, slot)});
    for (size_t listed = 1; slot < count; ++slot, ++listed) {
      if (listed == max || slots[slot].key >= hi) return slots[slot].key;
      out->push_back({slots[slot].key, slots[slot].child});
    }
    return upper;
  }

  /// Bulk-loads a start-sorted element list into an empty tree, packing
  /// leaves to `fill_fraction` of capacity. Quiescent-only.
  Status BulkLoad(const ElementList& elements, double fill_fraction = 1.0) {
    XR_RETURN_IF_ERROR(CheckBulkLoadArgs(fill_fraction));
    if (!std::is_sorted(elements.begin(), elements.end())) {
      return Status::InvalidArgument("BulkLoad input must be sorted by start");
    }
    return BulkLoadImpl(ListSource{&elements}, fill_fraction);
  }

  /// Streams a start-sorted corpus out of an on-disk ElementFile in one
  /// sequential pass; only the bounded lookahead of BulkLoadImpl is held in
  /// memory. Same contract as BulkLoad otherwise.
  Status BulkLoadFromFile(const ElementFile& file,
                          double fill_fraction = 1.0) {
    XR_RETURN_IF_ERROR(CheckBulkLoadArgs(fill_fraction));
    ElementFile::Scanner scanner = file.NewScanner();
    XR_RETURN_IF_ERROR(BulkLoadImpl(
        [&scanner](Element* e) {
          if (!scanner.Valid()) return false;
          *e = scanner.Get();
          scanner.Next();
          return true;
        },
        fill_fraction));
    // An I/O or corruption stop looks like EOF to the pull source; surface
    // it (the partially built tree is garbage at that point).
    return scanner.status();
  }

  /// Validates the B+-tree invariants: node checks, key order, subtree
  /// bounds, fill, equal leaf depths, and a leaf chain that ascends, links
  /// back through `prev` and holds size() entries. Quiescent-only.
  Status CheckConsistency() const {
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return Status::Ok();
    int height = 0;
    XR_RETURN_IF_ERROR(CheckNode(root_id, true, 0, kNilPosition, &height));
    return CheckLeafChain(root_id);
  }

 protected:
  friend Cursor;

  struct PathEntry {
    PageId page;
    uint32_t slot;  ///< child slot taken FROM this node (0 = leftmost)
  };

  /// The entries of a leaf in the fixed slot layout.
  struct LeafSpan {
    const Element* data;
    uint32_t size;
  };

  BPlusSkeleton(BufferPool* pool, PageId root, uint32_t leaf_capacity,
                uint32_t internal_capacity)
      : pool_(pool),
        root_(root),
        size_tracked_(root == kInvalidPageId),
        leaf_cap_(leaf_capacity == 0
                      ? static_cast<uint32_t>(Layout::kLeafMaxEntries)
                      : std::min<uint32_t>(leaf_capacity,
                                           Layout::kLeafMaxEntries)),
        internal_cap_(internal_capacity == 0
                          ? static_cast<uint32_t>(Layout::kInternalMaxEntries)
                          : std::min<uint32_t>(internal_capacity,
                                               Layout::kInternalMaxEntries)) {
    assert(leaf_cap_ >= 2 && internal_cap_ >= 2);
  }

  /// Moves are quiescent-only: they transfer the tree identity (pool,
  /// root, cached size, capacities) while the latching state is freshly
  /// constructed, which is sound because no operation may be in flight on
  /// either side.
  BPlusSkeleton(BPlusSkeleton&& other) noexcept
      : pool_(other.pool_),
        root_(other.root_.load(std::memory_order_acquire)),
        size_(other.size_.load(std::memory_order_acquire)),
        size_tracked_(other.size_tracked_.load(std::memory_order_acquire)),
        height_(other.height_.load(std::memory_order_relaxed)),
        leaf_cap_(other.leaf_cap_),
        internal_cap_(other.internal_cap_) {}
  BPlusSkeleton& operator=(BPlusSkeleton&& other) noexcept {
    pool_ = other.pool_;
    root_.store(other.root_.load(std::memory_order_acquire),
                std::memory_order_release);
    size_.store(other.size_.load(std::memory_order_acquire),
                std::memory_order_release);
    size_tracked_.store(other.size_tracked_.load(std::memory_order_acquire),
                        std::memory_order_release);
    height_.store(other.height_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    leaf_cap_ = other.leaf_cap_;
    internal_cap_ = other.internal_cap_;
    return *this;
  }

  // -------------------------------------------------------------------------
  // Node access
  // -------------------------------------------------------------------------

  static uint32_t ChildSlot(const Page* node, Position key) {
    return ChildSlotIn(Layout::Slots(node), Layout::Hdr(node)->count, key);
  }
  static PageId ChildAt(const Page* node, uint32_t child_slot) {
    return child_slot == 0 ? Layout::Hdr(node)->leftmost
                           : Layout::Slots(node)[child_slot - 1].child;
  }
  /// First slot of a fixed-layout leaf whose start >= key.
  static uint32_t LeafLowerBound(const Page* leaf, Position key) {
    const Element* slots = Layout::Leaf(leaf);
    uint32_t lo = 0, hi = Layout::Hdr(leaf)->count;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (slots[mid].start < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  /// Stamps a fresh (zeroed) page as an empty node of the given kind; the
  /// header's defaults leave every link unset. Callers set what differs.
  static Header* InitNode(Page* page, bool leaf) {
    Header* hdr = Layout::Hdr(page);
    *hdr = Header{};
    hdr->magic = leaf ? Layout::kLeafMagic : Layout::kInternalMagic;
    hdr->is_leaf = leaf ? 1 : 0;
    return hdr;
  }

  static Status Corrupt(const std::string& what) {
    return Status::Corruption(Layout::kName + (": " + what));
  }

  /// Crab safety tests. A node with room left cannot pass a split up; a
  /// node above min fill cannot pass an underflow up.
  bool HasRoom(const Header* node) const {
    return node->count < (node->is_leaf ? leaf_cap_ : internal_cap_);
  }
  bool AboveMinFill(const Header* node) const {
    return node->count > (node->is_leaf ? leaf_cap_ : internal_cap_) / 2;
  }

  // -------------------------------------------------------------------------
  // Descents
  // -------------------------------------------------------------------------

  /// The one reader descent toward `key`: loads the root and retries until
  /// the root it latched is still root_, checks each page, couples R
  /// latches down and bounds the depth. Calls `visit(node)` (returning
  /// Status) under each internal node's R latch and returns the leaf still
  /// R-latched, or an empty handle for an empty tree. A descent given a
  /// `stop_depth` (the root is depth 0) returns the internal node it meets
  /// there instead, latched and not visited. A retry happens only before
  /// the root is visited, so no node is visited twice.
  template <typename Visit>
  Result<ReadLatchedPage> DescendRead(Position key, Visit&& visit,
                                      int stop_depth = kMaxTreeDepth) const {
    for (;;) {
      PageId root_id = root_.load(std::memory_order_acquire);
      if (root_id == kInvalidPageId) return ReadLatchedPage();
      auto fetched = pool_->FetchPage(root_id);
      if (!fetched.ok()) {
        // The root can only have moved under us (a grow/shrink recycled the
        // id); a stale id surfacing any error while the root has moved is a
        // retry, anything else is real.
        if (root_.load(std::memory_order_acquire) != root_id) continue;
        return fetched.status();
      }
      ReadLatchedPage cur(pool_, *fetched);
      // Validate after latching: a root split that completed between the
      // load and the latch grant W-held this page throughout, so either we
      // blocked and now see a non-root node (root_ changed: retry) or we
      // raced ahead of it entirely.
      if (root_.load(std::memory_order_acquire) != root_id) continue;
      for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
        Page* raw = cur.get();
        XR_RETURN_IF_ERROR(Layout::CheckPage(raw));
        if (Layout::Hdr(raw)->is_leaf || depth == stop_depth) return cur;
        XR_RETURN_IF_ERROR(visit(static_cast<const Page*>(raw)));
        PageId child = ChildAt(raw, ChildSlot(raw, key));
        // Couple: latch the child while the parent latch pins the link.
        XR_ASSIGN_OR_RETURN(Page * craw, pool_->FetchPage(child));
        ReadLatchedPage next(pool_, craw);
        cur = std::move(next);
      }
      return Corrupt("descent did not reach a leaf");
    }
  }

  Result<ReadLatchedPage> DescendToLeafRead(Position key) const {
    return DescendRead(key, [](const Page*) { return Status::Ok(); });
  }

  /// The one writer descent (latch crabbing) toward `key`: W-latches from
  /// the root down into `ls` and returns the leaf. Whenever the just-latched
  /// child passes `safe(child_header)`, every held ancestor is released
  /// except the one page `visit` named. `visit(node, &keep)` runs on each
  /// internal node before the descent leaves it and may set `keep` to a
  /// page that stays latched to the end. `path` records the root-to-leaf
  /// child slots; entries above the crab point name released pages and are
  /// never revisited. Retries only before the root is visited, when the
  /// root moved between the load and the latch grant.
  template <typename Safe, typename Visit>
  Result<Page*> DescendWrite(Position key, WriteLatchSet& ls,
                             std::vector<PathEntry>& path, Safe&& safe,
                             Visit&& visit) {
    for (;;) {
      path.clear();
      PageId root_id = root_.load(std::memory_order_acquire);
      if (root_id == kInvalidPageId) return Status::NotFound("empty tree");
      auto fetched = ls.Acquire(root_id);
      if (!fetched.ok()) {
        if (root_.load(std::memory_order_acquire) != root_id) continue;
        return fetched.status();
      }
      if (root_.load(std::memory_order_acquire) != root_id) {
        // Blocked on the old root's latch while another writer moved the
        // root; what we hold is no longer the top of the tree.
        ls.ReleaseAll();
        continue;
      }
      Page* node = *fetched;
      PageId keep = kInvalidPageId;
      for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
        XR_RETURN_IF_ERROR(Layout::CheckPage(node));
        if (Layout::Hdr(node)->is_leaf) {
          path.push_back({node->page_id(), 0});
          return node;
        }
        XR_RETURN_IF_ERROR(visit(node, &keep));
        const uint32_t slot = ChildSlot(node, key);
        path.push_back({node->page_id(), slot});
        const PageId child_id = ChildAt(node, slot);
        XR_ASSIGN_OR_RETURN(Page * child, ls.Acquire(child_id));
        if (safe(static_cast<const Header*>(Layout::Hdr(child)))) {
          if (keep == kInvalidPageId) {
            ls.ReleaseAllExcept({child_id});
          } else {
            ls.ReleaseAllExcept({child_id, keep});
          }
        }
        node = child;
      }
      return Corrupt("descent did not reach a leaf");
    }
  }

  static Status NoVisit(Page*, PageId*) { return Status::Ok(); }

  // -------------------------------------------------------------------------
  // Insertion (Algorithm 1)
  // -------------------------------------------------------------------------

  /// Serializes lazy root creation (two first-inserters racing).
  Status EnsureRoot() {
    if (root_.load(std::memory_order_acquire) != kInvalidPageId) {
      return Status::Ok();
    }
    std::lock_guard<std::mutex> init(root_init_mu_);
    if (root_.load(std::memory_order_acquire) != kInvalidPageId) {
      return Status::Ok();
    }
    return InitRootLeaf();
  }

  Status InitRootLeaf() {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    PageGuard page(pool_, raw);
    page.MarkDirty();
    // W-latch before formatting: the id may be recycled, and a stale reader
    // still holding it from an old snapshot must block rather than observe
    // a half-formatted node.
    raw->WLatch();
    InitNode(raw, /*leaf=*/true);
    height_.store(1, std::memory_order_relaxed);
    root_.store(raw->page_id(), std::memory_order_release);
    raw->WUnlatch();
    return Status::Ok();
  }

  /// I2: puts `element` at slot `at` of the fixed-layout leaf at
  /// path.back(), splitting the leaf (I22) when it is full. The crab kept
  /// every ancestor a split can reach.
  Status PutInLeaf(WriteLatchSet& ls, std::vector<PathEntry>& path,
                   uint32_t at, const Element& element) {
    const PageId leaf_id = path.back().page;
    Page* leaf = ls.Get(leaf_id);
    if (leaf == nullptr) return Corrupt("leaf not held for insert");
    Header* hdr = Layout::Hdr(leaf);
    Element* slots = Layout::Leaf(leaf);
    if (hdr->count < leaf_cap_) {
      std::memmove(slots + at + 1, slots + at,
                   (hdr->count - at) * sizeof(Element));
      slots[at] = element;
      ++hdr->count;
      ls.MarkDirty(leaf_id);
    } else {
      std::vector<Element> all(slots, slots + hdr->count);
      all.insert(all.begin() + at, element);
      XR_RETURN_IF_ERROR(SplitLeaf(ls, std::move(path), std::move(all)));
    }
    if (size_tracked()) size_.fetch_add(1, std::memory_order_acq_rel);
    return Status::Ok();
  }

  /// The one leaf split (I22): the leaf at path.back() is replaced by
  /// `all` (its entries after the edit) cut in half. The tree picks the
  /// separator (LeafSplitKey), what travels up with it (SplitLeafCarry)
  /// and how each half is written (WriteLeaf).
  Status SplitLeaf(WriteLatchSet& ls, std::vector<PathEntry> path,
                   std::vector<Element> all) {
    const PageId leaf_id = path.back().page;
    path.pop_back();
    Page* left = ls.Get(leaf_id);
    if (left == nullptr) return Corrupt("leaf not held for its split");
    Header* hdr = Layout::Hdr(left);
    const size_t half = all.size() / 2;
    const Position sep = self().LeafSplitKey(all, half);
    Carry carry = self().SplitLeafCarry(all, sep);

    XR_ASSIGN_OR_RETURN(Page * right, pool_->NewPage());
    ls.AdoptNew(right);  // latched before any formatting
    ls.MarkDirty(right->page_id());
    Header* rhdr = InitNode(right, /*leaf=*/true);
    rhdr->next = hdr->next;
    rhdr->prev = leaf_id;
    XR_RETURN_IF_ERROR(
        self().WriteLeaf(right, all.data() + half, all.size() - half, left));
    XR_RETURN_IF_ERROR(self().WriteLeaf(left, all.data(), half, left));
    const PageId old_next = rhdr->next;
    hdr->next = right->page_id();
    ls.MarkDirty(leaf_id);

    if (old_next != kInvalidPageId) {
      // Rightward lateral acquisition, the one lateral direction of the
      // latch order, so no writer-writer cycle.
      XR_ASSIGN_OR_RETURN(Page * next, ls.Acquire(old_next));
      Layout::Hdr(next)->prev = right->page_id();
      ls.MarkDirty(old_next);
    }
    return InsertIntoParent(ls, path, sep, right->page_id(),
                            std::move(carry));
  }

  /// Posts (sep_key, right_child) and its carry to the parent at
  /// path.back(): I31 when the parent has room, I32 (split, the middle key
  /// moves up) when it is full, I4 (a new root) past the top.
  Status InsertIntoParent(WriteLatchSet& ls, std::vector<PathEntry>& path,
                          Position sep_key, PageId right_child, Carry carry) {
    for (;;) {
      if (path.empty()) {
        // I4: grow the tree. We hold the old root's W-latch (it was unsafe
        // the whole way), which is what makes the root_ store safe against
        // the readers' validate-after-latch retry.
        const PageId old_root = root_.load(std::memory_order_acquire);
        XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
        ls.AdoptNew(raw);
        ls.MarkDirty(raw->page_id());
        Header* hdr = InitNode(raw, /*leaf=*/false);
        hdr->count = 1;
        hdr->leftmost = old_root;
        Layout::Slots(raw)[0] = Layout::MakeEntry(sep_key, right_child);
        XR_RETURN_IF_ERROR(self().CommitNode(raw, carry));
        if (const uint32_t h = height_.load(std::memory_order_relaxed)) {
          height_.store(h + 1, std::memory_order_relaxed);
        }
        root_.store(raw->page_id(), std::memory_order_release);
        return Status::Ok();
      }

      const PathEntry entry = path.back();
      path.pop_back();
      Page* raw = ls.Get(entry.page);
      if (raw == nullptr) {
        // The crab released this ancestor because a descendant was safe,
        // yet a split reached it: the safety test was wrong.
        return Corrupt("split propagated past the crab scope");
      }
      Header* hdr = Layout::Hdr(raw);
      Entry* slots = Layout::Slots(raw);
      // The new key slots in right after the child slot we descended
      // through.
      const uint32_t at = entry.slot;
      XR_RETURN_IF_ERROR(self().GatherForNewKey(raw, at, sep_key, carry));

      if (hdr->count < internal_cap_) {
        // I31: room available.
        std::memmove(slots + at + 1, slots + at,
                     (hdr->count - at) * sizeof(Entry));
        slots[at] = Layout::MakeEntry(sep_key, right_child);
        ++hdr->count;
        XR_RETURN_IF_ERROR(self().CommitNode(raw, carry));
        ls.MarkDirty(entry.page);
        return Status::Ok();
      }

      // I32: split the internal node; the middle key moves up.
      std::vector<Entry> all(slots, slots + hdr->count);
      all.insert(all.begin() + at, Layout::MakeEntry(sep_key, right_child));
      const uint32_t mid = static_cast<uint32_t>(all.size() / 2);
      const Position km = all[mid].key;

      XR_ASSIGN_OR_RETURN(Page * rraw, pool_->NewPage());
      ls.AdoptNew(rraw);
      ls.MarkDirty(rraw->page_id());
      Header* rhdr = InitNode(rraw, /*leaf=*/false);
      rhdr->count = static_cast<uint32_t>(all.size()) - mid - 1;
      rhdr->leftmost = all[mid].child;
      std::memcpy(Layout::Slots(rraw), all.data() + mid + 1,
                  rhdr->count * sizeof(Entry));
      hdr->count = mid;
      std::memcpy(slots, all.data(), mid * sizeof(Entry));
      ls.MarkDirty(entry.page);
      XR_RETURN_IF_ERROR(self().SplitCarry(raw, rraw, km, carry));

      sep_key = km;
      right_child = rraw->page_id();
    }
  }

  // -------------------------------------------------------------------------
  // Deletion (Algorithm 2)
  // -------------------------------------------------------------------------

  /// Removes and returns the element with start == key from the
  /// fixed-layout leaf at path.back(); NotFound when it is absent.
  Result<Element> TakeFromLeaf(WriteLatchSet& ls,
                               const std::vector<PathEntry>& path,
                               Position key) {
    const PageId leaf_id = path.back().page;
    Page* leaf = ls.Get(leaf_id);
    if (leaf == nullptr) return Corrupt("leaf not held for delete");
    Header* hdr = Layout::Hdr(leaf);
    Element* slots = Layout::Leaf(leaf);
    const uint32_t at = LeafLowerBound(leaf, key);
    if (at >= hdr->count || slots[at].start != key) {
      return Status::NotFound("key " + std::to_string(key));
    }
    const Element victim = slots[at];
    std::memmove(slots + at, slots + at + 1,
                 (hdr->count - at - 1) * sizeof(Element));
    --hdr->count;
    ls.MarkDirty(leaf_id);
    if (size_tracked()) size_.fetch_sub(1, std::memory_order_acq_rel);
    return victim;
  }

  /// Algorithm 2's restructuring after a delete from the leaf at
  /// path.back(): when it underflowed, borrow from a sibling (D22/D32),
  /// else merge with one (D23/D33) and shrink the root when it empties
  /// (D4), one level per pass while the parent underflows in turn. Every
  /// node it restructures is held in `ls`: an underflowing node failed the
  /// crab's safety test, so its parent was kept.
  Status Rebalance(WriteLatchSet& ls, const std::vector<PathEntry>& path) {
    const PageId leaf_id = path.back().page;
    if (leaf_id == root_.load(std::memory_order_acquire) ||
        Layout::Hdr(ls.Get(leaf_id))->count >= leaf_cap_ / 2) {
      return Status::Ok();
    }
    for (size_t depth = path.size() - 1;; --depth) {
      // path[depth] is the underflowing node, path[depth-1] its parent. An
      // entry's slot is the child slot taken FROM that node, so the node's
      // position within its parent lives on the parent's entry.
      assert(depth >= 1);
      const PageId node_id = path[depth].page;
      const PageId parent_id = path[depth - 1].page;
      const uint32_t child_slot = path[depth - 1].slot;
      const bool leaf = depth + 1 == path.size();
      Page* praw = ls.Get(parent_id);
      Page* nraw = ls.Get(node_id);
      if (praw == nullptr || nraw == nullptr) {
        return Corrupt("underflow outside the crab scope");
      }
      Header* phdr = Layout::Hdr(praw);
      Entry* pslots = Layout::Slots(praw);
      Header* nhdr = Layout::Hdr(nraw);

      // Borrow from the left sibling, then the right one. Sibling latches
      // are taken under the held parent, so no other writer can reach them
      // except from below, and a writer below a *safe* sibling never needs
      // the parent (deadlock-freedom argument, DESIGN.md §14).
      if (leaf) {
        // D22: the moved element changes the separator key.
        const uint32_t min_fill = leaf_cap_ / 2;
        Element* lslots = Layout::Leaf(nraw);
        std::vector<Element> scratch;
        if (child_slot > 0) {
          const PageId sib_id = ChildAt(praw, child_slot - 1);
          XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
          XR_ASSIGN_OR_RETURN(auto sib,
                              self().ReadLeafForEdit(ls, sraw, &scratch));
          if (sib.size > min_fill) {
            const Element moved = sib.data[sib.size - 1];
            XR_RETURN_IF_ERROR(
                self().WriteLeaf(sraw, sib.data, sib.size - 1, sraw));
            std::memmove(lslots + 1, lslots, nhdr->count * sizeof(Element));
            lslots[0] = moved;
            ++nhdr->count;
            ls.MarkDirty(node_id);
            ls.MarkDirty(sib_id);
            return ReplaceSeparator(ls, parent_id, child_slot - 1,
                                    moved.start);
          }
        }
        if (child_slot < phdr->count) {
          const PageId sib_id = ChildAt(praw, child_slot + 1);
          XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
          XR_ASSIGN_OR_RETURN(auto sib,
                              self().ReadLeafForEdit(ls, sraw, &scratch));
          if (sib.size > min_fill) {
            const Element moved = sib.data[0];
            const Position knew = sib.data[1].start;
            XR_RETURN_IF_ERROR(
                self().WriteLeaf(sraw, sib.data + 1, sib.size - 1, sraw));
            lslots[nhdr->count] = moved;
            ++nhdr->count;
            ls.MarkDirty(node_id);
            ls.MarkDirty(sib_id);
            return ReplaceSeparator(ls, parent_id, child_slot, knew);
          }
        }
      } else {
        // D32: rotate through the parent. The separator comes down into the
        // node, the sibling's boundary key goes up.
        const uint32_t imin = internal_cap_ / 2;
        Entry* nslots = Layout::Slots(nraw);
        if (child_slot > 0) {
          const PageId sib_id = ChildAt(praw, child_slot - 1);
          XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
          Header* shdr = Layout::Hdr(sraw);
          const Entry* sslots = Layout::Slots(sraw);
          if (shdr->count > imin) {
            const Position kl = sslots[shdr->count - 1].key;
            std::memmove(nslots + 1, nslots, nhdr->count * sizeof(Entry));
            nslots[0] =
                Layout::MakeEntry(pslots[child_slot - 1].key, nhdr->leftmost);
            nhdr->leftmost = sslots[shdr->count - 1].child;
            ++nhdr->count;
            --shdr->count;
            ls.MarkDirty(node_id);
            ls.MarkDirty(sib_id);
            return ReplaceSeparator(ls, parent_id, child_slot - 1, kl);
          }
        }
        if (child_slot < phdr->count) {
          const PageId sib_id = ChildAt(praw, child_slot + 1);
          XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
          Header* shdr = Layout::Hdr(sraw);
          Entry* sslots = Layout::Slots(sraw);
          if (shdr->count > imin) {
            const Position kf = sslots[0].key;
            nslots[nhdr->count] =
                Layout::MakeEntry(pslots[child_slot].key, shdr->leftmost);
            ++nhdr->count;
            shdr->leftmost = sslots[0].child;
            std::memmove(sslots, sslots + 1,
                         (shdr->count - 1) * sizeof(Entry));
            --shdr->count;
            ls.MarkDirty(node_id);
            ls.MarkDirty(sib_id);
            return ReplaceSeparator(ls, parent_id, child_slot, kf);
          }
        }
      }

      // D23/D33: merge the node with a sibling, the left one when there is
      // one. Of the pair, the left node survives and the separator between
      // them (the left node's slot) leaves the parent. Both pages are held
      // already: the borrow attempt above latched the sibling.
      const uint32_t key_slot = child_slot > 0 ? child_slot - 1 : child_slot;
      const PageId left_id = ChildAt(praw, key_slot);
      const PageId right_id = ChildAt(praw, key_slot + 1);
      XR_ASSIGN_OR_RETURN(Page * left, ls.Acquire(left_id));
      XR_ASSIGN_OR_RETURN(Page * right, ls.Acquire(right_id));
      Header* lhdr = Layout::Hdr(left);
      Header* rhdr = Layout::Hdr(right);
      if (leaf) {
        // Append the right leaf's slots and splice it out of the chain.
        std::memcpy(Layout::Leaf(left) + lhdr->count, Layout::Leaf(right),
                    rhdr->count * sizeof(Element));
        lhdr->count += rhdr->count;
        lhdr->next = rhdr->next;
        if (rhdr->next != kInvalidPageId) {
          XR_ASSIGN_OR_RETURN(Page * next, ls.Acquire(rhdr->next));
          Layout::Hdr(next)->prev = left_id;
          ls.MarkDirty(rhdr->next);
        }
        ls.MarkDirty(left_id);
      } else {
        // The separator comes down between the two key arrays; the tree
        // then merges what else the nodes hold (keys first).
        Entry* lslots = Layout::Slots(left);
        lslots[lhdr->count] =
            Layout::MakeEntry(pslots[key_slot].key, rhdr->leftmost);
        ++lhdr->count;
        std::memcpy(lslots + lhdr->count, Layout::Slots(right),
                    rhdr->count * sizeof(Entry));
        lhdr->count += rhdr->count;
        ls.MarkDirty(left_id);
        XR_RETURN_IF_ERROR(self().MergeInternal(left, right));
      }
      // The dead page is tombstoned under its held W-latch (blocked readers
      // see a dead page) and freed only after every latch drops.
      rhdr->magic = 0;
      ls.MarkDirty(right_id);
      ls.DeferFree(right_id);
      const Position removed = pslots[key_slot].key;
      std::memmove(pslots + key_slot, pslots + key_slot + 1,
                   (phdr->count - key_slot - 1) * sizeof(Entry));
      --phdr->count;
      ls.MarkDirty(parent_id);
      XR_RETURN_IF_ERROR(self().OnSeparatorRemoved(ls, parent_id, removed));

      if (parent_id == root_.load(std::memory_order_acquire)) {
        if (phdr->count > 0) return Status::Ok();
        // D4: the root emptied; its single child is the new root. We hold
        // the old root's W-latch, so readers re-validating root_ retry.
        XR_RETURN_IF_ERROR(self().CheckCollapsingRoot(praw));
        if (const uint32_t h = height_.load(std::memory_order_relaxed)) {
          height_.store(h - 1, std::memory_order_relaxed);
        }
        root_.store(phdr->leftmost, std::memory_order_release);
        phdr->magic = 0;
        ls.DeferFree(parent_id);
        return Status::Ok();
      }
      if (phdr->count >= internal_cap_ / 2) return Status::Ok();
      if (leaf) {
        // The next pass latches siblings of the parent. A leaf this pass
        // holds can be the chain successor another writer's merge waits
        // for, or the leaf a reader holding such a sibling descends to,
        // while that writer or reader holds the sibling: waiting for the
        // sibling with the leaf held would close a cycle. The leaves are
        // final, so let them go; only the ancestors stay.
        std::vector<PageId> ancestors;
        for (size_t i = 0; i < depth; ++i) ancestors.push_back(path[i].page);
        ls.ReleaseAllExcept(ancestors);
      }
    }
  }

  /// Sets the separator at `key_slot` of the held `parent` to `knew`.
  Status ReplaceSeparator(WriteLatchSet& ls, PageId parent, uint32_t key_slot,
                          Position knew) {
    Entry* slots = Layout::Slots(ls.Get(parent));
    slots[key_slot] = Layout::MakeEntry(knew, slots[key_slot].child);
    ls.MarkDirty(parent);
    return self().OnSeparatorReplaced(ls, parent, key_slot, knew);
  }

  // -------------------------------------------------------------------------
  // Bulk loading
  // -------------------------------------------------------------------------

  Status CheckBulkLoadArgs(double fill_fraction) const {
    if (root_.load(std::memory_order_acquire) != kInvalidPageId ||
        size_.load(std::memory_order_acquire) != 0) {
      return Status::InvalidArgument("BulkLoad requires an empty tree");
    }
    if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
      return Status::InvalidArgument("fill_fraction out of (0, 1]");
    }
    return Status::Ok();
  }

  /// Pull source over an in-memory start-sorted list.
  struct ListSource {
    const std::vector<Element>* list;
    size_t next = 0;
    bool operator()(Element* e) {
      if (next >= list->size()) return false;
      *e = (*list)[next++];
      return true;
    }
  };

  /// The bulk-load engine over a pull source (`next(&e)` returns false when
  /// the stream is dry). Packs leaves left to right, then builds internal
  /// levels bottom-up. Only a bounded lookahead is buffered, which is what
  /// keeps BulkLoadFromFile a streaming build.
  template <typename Next>
  Status BulkLoadImpl(Next&& next, double fill_fraction) {
    // Fill targets are clamped above the half-full invariant so bulk-loaded
    // trees always pass CheckConsistency.
    const size_t min_fill = std::max<size_t>(1, leaf_cap_ / 2);
    const uint32_t leaf_fill =
        std::max<uint32_t>(static_cast<uint32_t>(min_fill),
                           static_cast<uint32_t>(leaf_cap_ * fill_fraction));
    const uint32_t internal_fill = std::max<uint32_t>(
        std::max<uint32_t>(2, internal_cap_ / 2),
        static_cast<uint32_t>(internal_cap_ * fill_fraction));

    // The tail rules below only need to know whether fewer than one page
    // plus min_fill elements remain, so the buffer never grows past that
    // horizon: with it full, at least min_fill elements remain after any
    // cut, and each rule decides as a materialized pass would.
    const size_t horizon = self().LeafPackMax() + min_fill;
    std::deque<Element> buf;
    bool exhausted = false;
    bool seen_any = false;
    Position prev_start = 0;
    auto refill = [&]() -> Status {
      while (!exhausted && buf.size() < horizon) {
        Element e;
        if (!next(&e)) {
          exhausted = true;
          break;
        }
        if (seen_any && e.start < prev_start) {
          return Status::InvalidArgument(
              "BulkLoad input must be sorted by start");
        }
        seen_any = true;
        prev_start = e.start;
        buf.push_back(e);
      }
      return Status::Ok();
    };
    XR_RETURN_IF_ERROR(refill());
    if (buf.empty()) return InitRootLeaf();

    struct ChildRef {
      Position first_key;
      PageId page;
    };
    std::vector<ChildRef> level;
    std::vector<PageId> leaves;
    uint64_t total_loaded = 0;
    PageGuard prev;
    for (;;) {
      XR_RETURN_IF_ERROR(refill());
      if (buf.empty()) break;
      // Pack `leaf_fill` entries per page, but never leave the final page
      // below the half-full invariant: either absorb the tail into this
      // page (it fits below capacity) or leave exactly the minimum behind.
      const size_t rem = buf.size();
      size_t take = std::min<size_t>(leaf_fill, rem);
      if (exhausted && rem > take && rem - take < min_fill) {
        take = (rem <= leaf_cap_) ? rem : rem - min_fill;
      }
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
      PageGuard page(pool_, raw);
      page.MarkDirty();
      InitNode(raw, /*leaf=*/true)->prev =
          prev ? prev.page_id() : kInvalidPageId;
      XR_ASSIGN_OR_RETURN(
          take, self().PackLeaf(raw, buf, take, exhausted, fill_fraction));
      if (prev) {
        Layout::Hdr(prev.get())->next = raw->page_id();
        prev.MarkDirty();
      }
      level.push_back({buf.front().start, raw->page_id()});
      leaves.push_back(raw->page_id());
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(take));
      total_loaded += take;
      prev = std::move(page);
    }
    prev.Release();

    size_t internal_levels = 0;
    while (level.size() > 1) {
      ++internal_levels;
      std::vector<ChildRef> next_level;
      size_t i = 0;
      while (i < level.size()) {
        // This node takes children i .. i+k (k+1 children, k keys), with
        // the same tail rule as the leaves.
        const size_t total = level.size() - i;
        size_t nchildren = std::min<size_t>(internal_fill + 1ull, total);
        const size_t min_children = internal_cap_ / 2 + 1;
        if (total > nchildren && total - nchildren < min_children) {
          nchildren = (total <= internal_cap_ + 1ull) ? total
                                                      : total - min_children;
        }
        XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
        PageGuard page(pool_, raw);
        page.MarkDirty();
        Header* hdr = InitNode(raw, /*leaf=*/false);
        hdr->count = static_cast<uint32_t>(nchildren - 1);
        hdr->leftmost = level[i].page;
        Entry* slots = Layout::Slots(raw);
        for (size_t j = 1; j < nchildren; ++j) {
          slots[j - 1] =
              Layout::MakeEntry(level[i + j].first_key, level[i + j].page);
        }
        next_level.push_back({level[i].first_key, raw->page_id()});
        i += nchildren;
      }
      level = std::move(next_level);
    }
    const PageId new_root = level[0].page;
    XR_RETURN_IF_ERROR(
        self().FinishBulkLoad(new_root, leaves, internal_levels));
    height_.store(static_cast<uint32_t>(internal_levels) + 1,
                  std::memory_order_relaxed);
    root_.store(new_root, std::memory_order_release);
    size_.store(total_loaded, std::memory_order_release);
    size_tracked_.store(true, std::memory_order_release);
    return Status::Ok();
  }

  // -------------------------------------------------------------------------
  // Structural checker
  // -------------------------------------------------------------------------

  Status CheckNode(PageId id, bool is_root, Position lo, Position hi,
                   int* height) const {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard page(pool_, raw);
    XR_RETURN_IF_ERROR(Layout::CheckPage(raw));
    const Header* hdr = Layout::Hdr(raw);

    if (hdr->is_leaf) {
      std::vector<Element> scratch;
      XR_ASSIGN_OR_RETURN(auto slots, self().LeafEntries(raw, &scratch));
      if (!is_root && slots.size < leaf_cap_ / 2) {
        return Corrupt("leaf underfilled");
      }
      if (slots.size > leaf_cap_ && !self().LeafMayExceedCapacity(raw)) {
        return Corrupt("leaf overfull");
      }
      for (uint32_t i = 0; i < slots.size; ++i) {
        if (i > 0 && !(slots.data[i - 1].start < slots.data[i].start)) {
          return Corrupt("leaf keys out of order");
        }
        if (slots.data[i].start < lo || slots.data[i].start >= hi) {
          return Corrupt("leaf key outside subtree bounds");
        }
      }
      *height = 1;
      return Status::Ok();
    }

    if (!is_root && hdr->count < internal_cap_ / 2) {
      return Corrupt("internal underfilled");
    }
    if (is_root && hdr->count < 1) return Corrupt("internal root without keys");
    if (hdr->count > internal_cap_) return Corrupt("internal overfull");
    const Entry* slots = Layout::Slots(raw);
    for (uint32_t i = 0; i < hdr->count; ++i) {
      if (i > 0 && !(slots[i - 1].key < slots[i].key)) {
        return Corrupt("internal keys out of order");
      }
      if (slots[i].key < lo || slots[i].key >= hi) {
        return Corrupt("internal key outside subtree bounds");
      }
    }
    XR_RETURN_IF_ERROR(self().CheckInternalNode(raw));
    int child_height = -1;
    for (uint32_t i = 0; i <= hdr->count; ++i) {
      const Position clo = (i == 0) ? lo : slots[i - 1].key;
      const Position chi = (i == hdr->count) ? hi : slots[i].key;
      int h = 0;
      XR_RETURN_IF_ERROR(CheckNode(ChildAt(raw, i), false, clo, chi, &h));
      if (child_height == -1) child_height = h;
      if (h != child_height) return Corrupt("children at different heights");
    }
    *height = child_height + 1;
    return Status::Ok();
  }

  /// Walks the leaf chain from the leftmost leaf: keys strictly ascend
  /// across page links, each leaf's prev names the leaf before it, and the
  /// chain holds size() entries when the size is tracked. Runs after
  /// CheckNode, which bounds every descent and every leaf.
  Status CheckLeafChain(PageId root_id) const {
    PageId cur = root_id;
    for (;;) {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      PageGuard page(pool_, raw);
      if (Layout::Hdr(raw)->is_leaf) break;
      cur = Layout::Hdr(raw)->leftmost;
    }
    PageId prev = kInvalidPageId;
    Position last = 0;
    uint64_t count = 0;
    std::vector<Element> scratch;
    while (cur != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      PageGuard page(pool_, raw);
      XR_RETURN_IF_ERROR(Layout::CheckPage(raw));
      if (!Layout::Hdr(raw)->is_leaf || Layout::Hdr(raw)->prev != prev) {
        return Corrupt("leaf chain links broken");
      }
      XR_ASSIGN_OR_RETURN(auto slots, self().LeafEntries(raw, &scratch));
      for (uint32_t i = 0; i < slots.size; ++i) {
        if (count > 0 && !(last < slots.data[i].start)) {
          return Corrupt("leaf chain out of order");
        }
        last = slots.data[i].start;
        ++count;
      }
      prev = cur;
      cur = Layout::Hdr(raw)->next;
    }
    if (size_tracked_.load(std::memory_order_acquire) &&
        count != size_.load(std::memory_order_acquire)) {
      return Corrupt("size mismatch: counted " + std::to_string(count) +
                     " tracked " + std::to_string(size()));
    }
    return Status::Ok();
  }

  // -------------------------------------------------------------------------
  // Hooks: the plain B+-tree behaviour. A tree redeclares the ones it
  // extends (and befriends this class when it declares them private).
  // -------------------------------------------------------------------------

  /// I22: the separator for a leaf split at `half` (the right leaf's first
  /// start; any value in (all[half-1].start, all[half].start] separates).
  Position LeafSplitKey(const std::vector<Element>& all, size_t half) const {
    return all[half].start;
  }
  /// What the split posts with the separator; may update `all`.
  Carry SplitLeafCarry(std::vector<Element>&, Position) { return Carry{}; }
  /// Writes elems[0..n) as the whole content of a held leaf. `before` is
  /// the page whose format the write keeps (the leaf itself, or for the
  /// right half of a split, the leaf it came from, not yet rewritten).
  Status WriteLeaf(Page* leaf, const Element* elems, size_t n, const Page*) {
    std::memmove(Layout::Leaf(leaf), elems, n * sizeof(Element));
    Layout::Hdr(leaf)->count = static_cast<uint32_t>(n);
    return Status::Ok();
  }
  /// I31/I32: runs on the parent before the new key enters it at `at`.
  Status GatherForNewKey(Page*, uint32_t, Position, Carry&) {
    return Status::Ok();
  }
  /// I31/I4: the node holds its new key; commit the carry into it.
  Status CommitNode(Page*, Carry&) { return Status::Ok(); }
  /// I32: the keys are split at `km` between `left` and `right`; divide the
  /// carry and leave in it what travels up with km.
  Status SplitCarry(Page*, Page*, Position, Carry&) { return Status::Ok(); }
  /// A held leaf's entries for an edit, in the fixed layout when they fit
  /// leaf_capacity.
  Result<LeafSpan> ReadLeafForEdit(WriteLatchSet&, Page* leaf,
                                   std::vector<Element>*) {
    return LeafSpan{Layout::Leaf(leaf), Layout::Hdr(leaf)->count};
  }
  /// D22/D32: the separator at `key_slot` changed to `knew`.
  Status OnSeparatorReplaced(WriteLatchSet&, PageId, uint32_t, Position) {
    return Status::Ok();
  }
  /// D23/D33: the separator `removed` left the parent.
  Status OnSeparatorRemoved(WriteLatchSet&, PageId, Position) {
    return Status::Ok();
  }
  /// D33: `right`'s keys were appended to `left`'s.
  Status MergeInternal(Page*, Page*) { return Status::Ok(); }
  /// D4: a last check on the emptied root before it is dropped.
  Status CheckCollapsingRoot(const Page*) { return Status::Ok(); }
  /// Most entries one bulk-loaded leaf can take.
  size_t LeafPackMax() const { return leaf_cap_; }
  /// Writes one bulk-loaded leaf from the front of `buf` and returns how
  /// many entries it took; `take` is the fixed-layout answer of the fill
  /// and tail rules.
  Result<size_t> PackLeaf(Page* leaf, const std::deque<Element>& buf,
                          size_t take, bool, double) {
    std::copy(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(take),
              Layout::Leaf(leaf));
    Layout::Hdr(leaf)->count = static_cast<uint32_t>(take);
    return take;
  }
  /// Runs once the bulk-loaded levels stand, before the root is published.
  Status FinishBulkLoad(PageId, const std::vector<PageId>&, size_t) {
    return Status::Ok();
  }
  /// A checked leaf's entries for the checker.
  Result<LeafSpan> LeafEntries(const Page* leaf, std::vector<Element>*) const {
    return LeafSpan{Layout::Leaf(leaf), Layout::Hdr(leaf)->count};
  }
  bool LeafMayExceedCapacity(const Page*) const { return false; }
  /// Per-index invariants of one internal node, checked before its
  /// children.
  Status CheckInternalNode(const Page*) const { return Status::Ok(); }

  BufferPool* pool_;
  std::atomic<PageId> root_;
  std::atomic<uint64_t> size_{0};
  /// Whether size_ counts the tree's entries (see size()).
  std::atomic<bool> size_tracked_;
  /// Height as this handle last set it: BulkLoad, the first root leaf, a
  /// root split or collapse; 0 until known for a tree reopened by its root.
  /// A hint for ListLeaves only, so relaxed: writers through another handle
  /// do not update it.
  mutable std::atomic<uint32_t> height_{0};
  std::mutex root_init_mu_;
  uint32_t leaf_cap_;
  uint32_t internal_cap_;

 private:
  Tree& self() { return static_cast<Tree&>(*this); }
  const Tree& self() const { return static_cast<const Tree&>(*this); }
};

}  // namespace xrtree

#endif  // XRTREE_BTREE_BPLUS_SKELETON_H_
