#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <shared_mutex>

#include "btree/btree_iterator.h"
#include "storage/element_file.h"

namespace xrtree {

namespace {

/// First slot in a sorted leaf whose start >= key.
uint32_t LeafLowerBound(const Page* page, Position key) {
  const Element* slots = LeafSlots(page);
  uint32_t n = BTreeHeader(page)->count;
  uint32_t lo = 0, hi = n;
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

/// Child slot to descend into for `key`: 0 for the leftmost child, i+1 for
/// the child right of keys[i] (largest keys[i] <= key).
uint32_t InternalChildSlot(const Page* page, Position key) {
  const BTreeInternalEntry* slots = InternalSlots(page);
  uint32_t n = BTreeHeader(page)->count;
  uint32_t lo = 0, hi = n;
  while (lo < hi) {  // first slot with keys[slot] > key
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // descend into child index lo
}

PageId ChildAt(const Page* page, uint32_t child_slot) {
  return child_slot == 0 ? BTreeHeader(page)->leftmost
                         : InternalSlots(page)[child_slot - 1].child;
}

/// Stamps a fresh (zeroed) page as an empty node of the given kind: no
/// entries, leaf links or children. Callers set what differs.
BTreePageHeader* InitNode(Page* page, bool leaf) {
  auto* hdr = BTreeHeader(page);
  hdr->magic = leaf ? kBTreeLeafMagic : kBTreeInternalMagic;
  hdr->is_leaf = leaf ? 1 : 0;
  hdr->count = 0;
  hdr->next = kInvalidPageId;
  hdr->prev = kInvalidPageId;
  hdr->leftmost = kInvalidPageId;
  return hdr;
}

}  // namespace

BTree::BTree(BufferPool* pool, PageId root, const BTreeOptions& options)
    : pool_(pool), root_(root) {
  leaf_cap_ = options.leaf_capacity == 0
                  ? static_cast<uint32_t>(kBTreeLeafMaxEntries)
                  : std::min<uint32_t>(options.leaf_capacity,
                                       kBTreeLeafMaxEntries);
  internal_cap_ = options.internal_capacity == 0
                      ? static_cast<uint32_t>(kBTreeInternalMaxEntries)
                      : std::min<uint32_t>(options.internal_capacity,
                                           kBTreeInternalMaxEntries);
  assert(leaf_cap_ >= 2 && internal_cap_ >= 2);
}

Status BTree::InitRootLeaf() {
  XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
  PageGuard page(pool_, raw);
  page.MarkDirty();
  // W-latch before formatting: the id may be recycled, and a stale reader
  // still holding it from an old snapshot must block rather than observe a
  // half-formatted node.
  raw->WLatch();
  InitNode(raw, /*leaf=*/true);
  root_.store(raw->page_id(), std::memory_order_release);
  raw->WUnlatch();
  return Status::Ok();
}

Result<ReadLatchedPage> BTree::DescendToLeafRead(Position key) const {
  for (;;) {
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return ReadLatchedPage();
    auto fetched = pool_->FetchPage(root_id);
    if (!fetched.ok()) {
      // The root moved (split/collapse) between the load and the fetch;
      // the old id may already be tombstoned or freed. Retry from the top.
      if (root_.load(std::memory_order_acquire) != root_id) continue;
      return fetched.status();
    }
    ReadLatchedPage cur(pool_, *fetched);
    if (root_.load(std::memory_order_acquire) != root_id) continue;
    // Bound the descent: a healthy tree is a few levels deep, so a longer
    // walk means a child pointer escaped into a cycle or a foreign page.
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      const auto* hdr = BTreeHeader(cur.get());
      if (hdr->magic != kBTreeLeafMagic && hdr->magic != kBTreeInternalMagic) {
        return Status::Corruption("btree: descent hit a foreign page");
      }
      if (hdr->is_leaf) return cur;
      PageId child_id = ChildAt(cur.get(), InternalChildSlot(cur.get(), key));
      auto child = pool_->FetchPage(child_id);
      if (!child.ok()) return child.status();
      // Latch-couple: R-latch the child before dropping the parent, so no
      // writer can restructure the step we just took.
      ReadLatchedPage next(pool_, *child);
      cur = std::move(next);
    }
    return Status::Corruption("btree: descent did not reach a leaf");
  }
}

Result<Page*> BTree::DescendToLeafWrite(Position key, bool for_insert,
                                        WriteLatchSet& ls,
                                        std::vector<PathEntry>& path) {
  for (;;) {
    path.clear();
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return Status::NotFound("empty tree");
    auto fetched = ls.Acquire(root_id);
    if (!fetched.ok()) {
      ls.ReleaseAll();
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
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      const auto* hdr = BTreeHeader(node);
      if (hdr->magic != kBTreeLeafMagic && hdr->magic != kBTreeInternalMagic) {
        ls.ReleaseAll();
        return Status::Corruption("btree: descent hit a foreign page");
      }
      if (hdr->is_leaf) {
        path.push_back({node->page_id(), 0});
        return node;
      }
      uint32_t slot = InternalChildSlot(node, key);
      path.push_back({node->page_id(), slot});
      PageId child_id = ChildAt(node, slot);
      auto child = ls.Acquire(child_id);
      if (!child.ok()) {
        ls.ReleaseAll();
        return child.status();
      }
      const auto* chdr = BTreeHeader(*child);
      bool safe;
      if (for_insert) {
        // Room for one more entry: a split below cannot propagate here.
        uint32_t cap = chdr->is_leaf ? leaf_cap_ : internal_cap_;
        safe = chdr->count < cap;
      } else {
        // Above min fill: losing one entry below cannot underflow here.
        uint32_t min_fill = chdr->is_leaf ? leaf_cap_ / 2 : internal_cap_ / 2;
        safe = chdr->count > min_fill;
      }
      if (safe) ls.ReleaseAllExcept({child_id});
      node = *child;
    }
    ls.ReleaseAll();
    return Status::Corruption("btree: descent did not reach a leaf");
  }
}

Status BTree::Insert(const Element& element) {
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
    std::lock_guard<std::mutex> init(root_init_mu_);
    if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
      XR_RETURN_IF_ERROR(InitRootLeaf());
    }
  }

  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  XR_ASSIGN_OR_RETURN(Page * raw,
                      DescendToLeafWrite(element.start, true, ls, path));
  PageId leaf_id = raw->page_id();
  auto* hdr = BTreeHeader(raw);
  Element* slots = LeafSlots(raw);
  uint32_t at = LeafLowerBound(raw, element.start);
  if (at < hdr->count && slots[at].start == element.start) {
    return Status::InvalidArgument("duplicate key " +
                                   std::to_string(element.start));
  }

  if (hdr->count < leaf_cap_) {
    std::memmove(slots + at + 1, slots + at,
                 (hdr->count - at) * sizeof(Element));
    slots[at] = element;
    ++hdr->count;
    ls.MarkDirty(leaf_id);
    size_.fetch_add(1, std::memory_order_acq_rel);
    return Status::Ok();
  }

  // Leaf is full: split. Assemble the overflowing sequence, then divide.
  std::vector<Element> all(slots, slots + hdr->count);
  all.insert(all.begin() + at, element);
  uint32_t left_n = static_cast<uint32_t>(all.size() / 2);

  XR_ASSIGN_OR_RETURN(Page * rraw, pool_->NewPage());
  ls.AdoptNew(rraw);  // latched before any formatting
  ls.MarkDirty(rraw->page_id());
  auto* rhdr = InitNode(rraw, /*leaf=*/true);
  rhdr->count = static_cast<uint32_t>(all.size()) - left_n;
  rhdr->next = hdr->next;
  rhdr->prev = leaf_id;
  std::memcpy(LeafSlots(rraw), all.data() + left_n,
              rhdr->count * sizeof(Element));

  hdr->count = left_n;
  std::memcpy(slots, all.data(), left_n * sizeof(Element));
  PageId old_next = rhdr->next;
  hdr->next = rraw->page_id();
  ls.MarkDirty(leaf_id);

  if (old_next != kInvalidPageId) {
    // Rightward lateral acquisition (allowed by the latch order).
    XR_ASSIGN_OR_RETURN(Page * nraw, ls.Acquire(old_next));
    BTreeHeader(nraw)->prev = rraw->page_id();
    ls.MarkDirty(old_next);
  }

  Position sep = LeafSlots(rraw)[0].start;
  PageId right_id = rraw->page_id();
  path.pop_back();  // drop the leaf from the path
  XR_RETURN_IF_ERROR(InsertIntoParent(ls, path, sep, right_id));
  size_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

Status BTree::InsertIntoParent(WriteLatchSet& ls,
                               std::vector<PathEntry>& path, Position sep_key,
                               PageId right_child) {
  if (path.empty()) {
    // Split reached the root: grow the tree. We hold the old root's
    // W-latch (it was unsafe the whole way), which is what makes the
    // root_ store safe against the readers' validate-after-latch retry.
    PageId old_root = root_.load(std::memory_order_acquire);
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    ls.AdoptNew(raw);
    ls.MarkDirty(raw->page_id());
    auto* hdr = InitNode(raw, /*leaf=*/false);
    hdr->count = 1;
    hdr->leftmost = old_root;
    InternalSlots(raw)[0] = {sep_key, right_child};
    root_.store(raw->page_id(), std::memory_order_release);
    return Status::Ok();
  }

  PathEntry entry = path.back();
  path.pop_back();
  // The crab invariant guarantees the split can only propagate into nodes
  // the descent kept latched (a released ancestor had room below it).
  Page* raw = ls.Get(entry.page);
  if (raw == nullptr) {
    return Status::Corruption("btree: split propagated past the crab scope");
  }
  auto* hdr = BTreeHeader(raw);
  BTreeInternalEntry* slots = InternalSlots(raw);
  // The new key slots in right after the child slot we descended through.
  uint32_t at = entry.slot;

  if (hdr->count < internal_cap_) {
    std::memmove(slots + at + 1, slots + at,
                 (hdr->count - at) * sizeof(BTreeInternalEntry));
    slots[at] = {sep_key, right_child};
    ++hdr->count;
    ls.MarkDirty(entry.page);
    return Status::Ok();
  }

  // Split the internal node: middle key moves up.
  std::vector<BTreeInternalEntry> all(slots, slots + hdr->count);
  all.insert(all.begin() + at, {sep_key, right_child});
  uint32_t mid = static_cast<uint32_t>(all.size() / 2);
  Position promote = all[mid].key;

  XR_ASSIGN_OR_RETURN(Page * rraw, pool_->NewPage());
  ls.AdoptNew(rraw);
  ls.MarkDirty(rraw->page_id());
  auto* rhdr = InitNode(rraw, /*leaf=*/false);
  rhdr->count = static_cast<uint32_t>(all.size()) - mid - 1;
  rhdr->leftmost = all[mid].child;
  std::memcpy(InternalSlots(rraw), all.data() + mid + 1,
              rhdr->count * sizeof(BTreeInternalEntry));

  hdr->count = mid;
  std::memcpy(slots, all.data(), mid * sizeof(BTreeInternalEntry));
  ls.MarkDirty(entry.page);

  return InsertIntoParent(ls, path, promote, rraw->page_id());
}

Status BTree::Delete(Position key) {
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
    return Status::NotFound("empty tree");
  }
  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  XR_ASSIGN_OR_RETURN(Page * raw, DescendToLeafWrite(key, false, ls, path));
  PageId leaf_id = raw->page_id();
  auto* hdr = BTreeHeader(raw);
  Element* slots = LeafSlots(raw);
  uint32_t at = LeafLowerBound(raw, key);
  if (at >= hdr->count || slots[at].start != key) {
    return Status::NotFound("key " + std::to_string(key));
  }
  std::memmove(slots + at, slots + at + 1,
               (hdr->count - at - 1) * sizeof(Element));
  --hdr->count;
  ls.MarkDirty(leaf_id);
  size_.fetch_sub(1, std::memory_order_acq_rel);

  uint32_t min_fill = leaf_cap_ / 2;
  bool is_root_leaf = (leaf_id == root_.load(std::memory_order_acquire));
  bool underflow = !is_root_leaf && hdr->count < min_fill;
  if (!underflow) return Status::Ok();
  return Rebalance(ls, path, path.size() - 1);
}

Status BTree::Rebalance(WriteLatchSet& ls, const std::vector<PathEntry>& path,
                        size_t depth) {
  for (;; --depth) {
    // path[depth] is the underflowing node, path[depth-1] its parent. Both
    // are still W-latched: the node underflowed, so the descent found it
    // unsafe and kept its parent. An entry's slot is the child slot taken
    // FROM that node, so the node's position within its parent lives on
    // the parent's entry.
    assert(depth >= 1);
    const PageId node_id = path[depth].page;
    const PageId parent_id = path[depth - 1].page;
    const uint32_t child_slot = path[depth - 1].slot;
    const bool leaf = depth + 1 == path.size();
    Page* praw = ls.Get(parent_id);
    Page* nraw = ls.Get(node_id);
    if (praw == nullptr || nraw == nullptr) {
      return Status::Corruption("btree: underflow outside the crab scope");
    }
    auto* phdr = BTreeHeader(praw);
    BTreeInternalEntry* pslots = InternalSlots(praw);
    auto* nhdr = BTreeHeader(nraw);

    // Try to redistribute from the left sibling, then the right sibling.
    // Sibling latches are taken under the held parent, so no other writer
    // can reach them except from below — and a writer below a *safe*
    // sibling never needs the parent (deadlock-freedom argument, DESIGN.md
    // §14).
    if (leaf) {
      const uint32_t min_fill = leaf_cap_ / 2;
      Element* lslots = LeafSlots(nraw);
      if (child_slot > 0) {
        PageId sib_id = ChildAt(praw, child_slot - 1);
        XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
        auto* shdr = BTreeHeader(sraw);
        if (shdr->count > min_fill) {
          // Move the tail entry of the left sibling to the front of the
          // leaf.
          Element* sslots = LeafSlots(sraw);
          std::memmove(lslots + 1, lslots, nhdr->count * sizeof(Element));
          lslots[0] = sslots[shdr->count - 1];
          ++nhdr->count;
          --shdr->count;
          pslots[child_slot - 1].key = lslots[0].start;
          ls.MarkDirty(node_id);
          ls.MarkDirty(sib_id);
          ls.MarkDirty(parent_id);
          return Status::Ok();
        }
      }
      if (child_slot < phdr->count) {
        PageId sib_id = ChildAt(praw, child_slot + 1);
        XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
        auto* shdr = BTreeHeader(sraw);
        if (shdr->count > min_fill) {
          // Move the head entry of the right sibling to the tail of the
          // leaf.
          Element* sslots = LeafSlots(sraw);
          lslots[nhdr->count] = sslots[0];
          ++nhdr->count;
          std::memmove(sslots, sslots + 1,
                       (shdr->count - 1) * sizeof(Element));
          --shdr->count;
          pslots[child_slot].key = sslots[0].start;
          ls.MarkDirty(node_id);
          ls.MarkDirty(sib_id);
          ls.MarkDirty(parent_id);
          return Status::Ok();
        }
      }
    } else {
      const uint32_t imin = internal_cap_ / 2;
      BTreeInternalEntry* nslots = InternalSlots(nraw);
      if (child_slot > 0) {
        PageId sib_id = ChildAt(praw, child_slot - 1);
        XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
        auto* shdr = BTreeHeader(sraw);
        BTreeInternalEntry* sslots = InternalSlots(sraw);
        if (shdr->count > imin) {
          // Rotate right through the parent: parent separator comes down in
          // front of node; sibling's last key goes up.
          Position sep = pslots[child_slot - 1].key;
          std::memmove(nslots + 1, nslots,
                       nhdr->count * sizeof(BTreeInternalEntry));
          nslots[0] = {sep, nhdr->leftmost};
          nhdr->leftmost = sslots[shdr->count - 1].child;
          ++nhdr->count;
          pslots[child_slot - 1].key = sslots[shdr->count - 1].key;
          --shdr->count;
          ls.MarkDirty(node_id);
          ls.MarkDirty(sib_id);
          ls.MarkDirty(parent_id);
          return Status::Ok();
        }
      }
      if (child_slot < phdr->count) {
        PageId sib_id = ChildAt(praw, child_slot + 1);
        XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
        auto* shdr = BTreeHeader(sraw);
        BTreeInternalEntry* sslots = InternalSlots(sraw);
        if (shdr->count > imin) {
          // Rotate left through the parent.
          Position sep = pslots[child_slot].key;
          nslots[nhdr->count] = {sep, shdr->leftmost};
          ++nhdr->count;
          pslots[child_slot].key = sslots[0].key;
          shdr->leftmost = sslots[0].child;
          std::memmove(sslots, sslots + 1,
                       (shdr->count - 1) * sizeof(BTreeInternalEntry));
          --shdr->count;
          ls.MarkDirty(node_id);
          ls.MarkDirty(sib_id);
          ls.MarkDirty(parent_id);
          return Status::Ok();
        }
      }
    }

    // Merge the node with a sibling, the left one when there is one. Of the
    // pair, the left node survives and the separator between them (the
    // left node's slot) leaves the parent. Both pages are held already: the
    // redistribution attempt above latched the sibling.
    const uint32_t key_slot = child_slot > 0 ? child_slot - 1 : child_slot;
    const PageId left_id = ChildAt(praw, key_slot);
    const PageId right_id = ChildAt(praw, key_slot + 1);
    XR_ASSIGN_OR_RETURN(Page * left, ls.Acquire(left_id));
    XR_ASSIGN_OR_RETURN(Page * right, ls.Acquire(right_id));
    auto* lhdr = BTreeHeader(left);
    auto* rhdr = BTreeHeader(right);
    if (leaf) {
      // Append the right leaf's entries and splice it out of the chain.
      std::memcpy(LeafSlots(left) + lhdr->count, LeafSlots(right),
                  rhdr->count * sizeof(Element));
      lhdr->count += rhdr->count;
      lhdr->next = rhdr->next;
      if (rhdr->next != kInvalidPageId) {
        XR_ASSIGN_OR_RETURN(Page * next, ls.Acquire(rhdr->next));
        BTreeHeader(next)->prev = left_id;
        ls.MarkDirty(rhdr->next);
      }
    } else {
      // The parent separator comes down between the two key arrays.
      BTreeInternalEntry* lslots = InternalSlots(left);
      lslots[lhdr->count] = {pslots[key_slot].key, rhdr->leftmost};
      ++lhdr->count;
      std::memcpy(lslots + lhdr->count, InternalSlots(right),
                  rhdr->count * sizeof(BTreeInternalEntry));
      lhdr->count += rhdr->count;
    }
    ls.MarkDirty(left_id);
    // The dead page is tombstoned under its W-latch (stale readers fail the
    // magic check) and freed only after every latch drops (readers blocked
    // on it still hold pins).
    rhdr->magic = 0;
    ls.DeferFree(right_id);
    std::memmove(pslots + key_slot, pslots + key_slot + 1,
                 (phdr->count - key_slot - 1) * sizeof(BTreeInternalEntry));
    --phdr->count;
    ls.MarkDirty(parent_id);

    if (parent_id == root_.load(std::memory_order_acquire)) {
      if (phdr->count > 0) return Status::Ok();
      // Root became empty: its single child is the new root. We hold the
      // old root's W-latch, so readers re-validating root_ retry cleanly.
      root_.store(phdr->leftmost, std::memory_order_release);
      phdr->magic = 0;
      ls.DeferFree(parent_id);
      return Status::Ok();
    }
    if (phdr->count >= internal_cap_ / 2) return Status::Ok();
  }
}

Result<Element> BTree::Search(Position key) const {
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendToLeafRead(key));
  if (!leaf) return Status::NotFound("empty tree");
  uint32_t at = LeafLowerBound(leaf.get(), key);
  const auto* hdr = BTreeHeader(leaf.get());
  const Element* slots = LeafSlots(leaf.get());
  if (at < hdr->count && slots[at].start == key) return slots[at];
  return Status::NotFound("key " + std::to_string(key));
}

Status BTree::BulkLoad(const ElementList& elements, double fill_fraction) {
  if (root_.load(std::memory_order_acquire) != kInvalidPageId ||
      size_.load(std::memory_order_acquire) != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
    return Status::InvalidArgument("fill_fraction out of (0, 1]");
  }
  if (!std::is_sorted(elements.begin(), elements.end())) {
    return Status::InvalidArgument("BulkLoad input must be sorted by start");
  }
  size_t idx = 0;
  return BulkLoadImpl(
      [&elements, &idx](Element* e) {
        if (idx >= elements.size()) return false;
        *e = elements[idx++];
        return true;
      },
      fill_fraction);
}

Status BTree::BulkLoadFromFile(const ElementFile& file, double fill_fraction) {
  if (root_.load(std::memory_order_acquire) != kInvalidPageId ||
      size_.load(std::memory_order_acquire) != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
    return Status::InvalidArgument("fill_fraction out of (0, 1]");
  }
  ElementFile::Scanner scanner = file.NewScanner();
  XR_RETURN_IF_ERROR(BulkLoadImpl(
      [&scanner](Element* e) {
        if (!scanner.Valid()) return false;
        *e = scanner.Get();
        scanner.Next();
        return true;
      },
      fill_fraction));
  return scanner.status();
}

Status BTree::BulkLoadImpl(const std::function<bool(Element*)>& next,
                           double fill_fraction) {
  // Fill targets are clamped above the half-full invariant so bulk-loaded
  // trees always pass CheckConsistency.
  uint32_t leaf_fill =
      std::max<uint32_t>(std::max<uint32_t>(1, leaf_cap_ / 2),
                         static_cast<uint32_t>(leaf_cap_ * fill_fraction));
  uint32_t internal_fill = std::max<uint32_t>(
      std::max<uint32_t>(2, internal_cap_ / 2),
      static_cast<uint32_t>(internal_cap_ * fill_fraction));
  const size_t min_fill = std::max<size_t>(1, leaf_cap_ / 2);

  // Bounded lookahead: with leaf_cap + min_fill elements buffered, the
  // tail rule below ("would the leftover dip under min fill?") is decided
  // with the same answer a full materialized pass would give — if the
  // buffer is full, at least min_fill elements remain after any cut.
  const size_t horizon = static_cast<size_t>(leaf_cap_) + min_fill;
  std::deque<Element> buf;
  bool exhausted = false;
  Position prev_start = 0;
  bool have_prev = false;
  auto refill = [&]() -> Status {
    while (!exhausted && buf.size() < horizon) {
      Element e;
      if (!next(&e)) {
        exhausted = true;
        break;
      }
      if (have_prev && e.start < prev_start) {
        return Status::InvalidArgument("BulkLoad input must be sorted by start");
      }
      prev_start = e.start;
      have_prev = true;
      buf.push_back(e);
    }
    return Status::Ok();
  };
  XR_RETURN_IF_ERROR(refill());
  if (buf.empty()) return InitRootLeaf();

  // Level 0: pack leaves left to right.
  struct ChildRef {
    Position first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  PageGuard prev;
  uint64_t total_loaded = 0;
  while (!buf.empty()) {
    XR_RETURN_IF_ERROR(refill());
    // Pack `leaf_fill` entries per page, but never leave the final page
    // below the half-full invariant: either absorb the tail into this page
    // (it fits below capacity) or leave exactly the minimum behind.
    size_t rem = buf.size();
    size_t n = std::min<size_t>(leaf_fill, rem);
    if (exhausted && rem > n && rem - n < min_fill) {
      n = (rem <= leaf_cap_) ? rem : rem - min_fill;
    }
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    PageGuard page(pool_, raw);
    page.MarkDirty();
    auto* hdr = InitNode(raw, /*leaf=*/true);
    hdr->count = static_cast<uint32_t>(n);
    hdr->prev = prev ? prev.page_id() : kInvalidPageId;
    std::copy(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(n),
              LeafSlots(raw));
    if (prev) {
      BTreeHeader(prev.get())->next = raw->page_id();
      prev.MarkDirty();
    }
    level.push_back({buf.front().start, raw->page_id()});
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(n));
    total_loaded += n;
    prev = std::move(page);
  }
  prev.Release();

  // Build internal levels bottom-up until a single node remains.
  while (level.size() > 1) {
    std::vector<ChildRef> next_level;
    size_t i = 0;
    while (i < level.size()) {
      // This node takes children i .. i+k (k+1 children, k keys).
      size_t total = level.size() - i;
      size_t nchildren = std::min<size_t>(internal_fill + 1ull, total);
      size_t min_children = internal_cap_ / 2 + 1;
      if (total > nchildren && total - nchildren < min_children) {
        nchildren = (total <= internal_cap_ + 1ull) ? total
                                                    : total - min_children;
      }
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
      PageGuard page(pool_, raw);
      page.MarkDirty();
      auto* hdr = InitNode(raw, /*leaf=*/false);
      hdr->count = static_cast<uint32_t>(nchildren - 1);
      hdr->leftmost = level[i].page;
      BTreeInternalEntry* slots = InternalSlots(raw);
      for (size_t j = 1; j < nchildren; ++j) {
        slots[j - 1] = {level[i + j].first_key, level[i + j].page};
      }
      next_level.push_back({level[i].first_key, raw->page_id()});
      i += nchildren;
    }
    level = std::move(next_level);
  }
  root_.store(level[0].page, std::memory_order_release);
  size_.store(total_loaded, std::memory_order_release);
  return Status::Ok();
}

Result<BTreeIterator> BTree::LowerBound(Position key) const {
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendToLeafRead(key));
  if (!leaf) return BTreeIterator();  // empty tree
  uint32_t at = LeafLowerBound(leaf.get(), key);
  const auto* hdr = BTreeHeader(leaf.get());
  PageId next = hdr->next;
  // Epoch sampled under the leaf R-latch: while we hold it, `next` cannot
  // be unlinked (that requires W on this leaf), so "epoch unchanged later"
  // proves the id still names the same live leaf (no ABA through FreePage).
  uint64_t epoch = pool_->free_epoch();
  if (at >= hdr->count) {
    // Key is past the last entry of this leaf; land on the next non-empty
    // leaf through the (epoch-validated) lateral path.
    leaf.Release();
    BTreeIterator it(this, {}, next, epoch, key, /*reseek_exclusive=*/false);
    XR_RETURN_IF_ERROR(it.LandOnNextLeaf());
    return it;
  }
  std::vector<Element> snap(LeafSlots(leaf.get()) + at,
                            LeafSlots(leaf.get()) + hdr->count);
  return BTreeIterator(this, std::move(snap), next, epoch, key, false);
}

Result<BTreeIterator> BTree::UpperBound(Position key) const {
  if (key == kNilPosition) return BTreeIterator();
  return LowerBound(key + 1);
}

Result<BTreeIterator> BTree::Begin() const { return LowerBound(0); }

Result<ElementList> BTree::RangeScan(Position low_exclusive,
                                     Position high_exclusive) const {
  ElementList out;
  XR_ASSIGN_OR_RETURN(BTreeIterator it, UpperBound(low_exclusive));
  while (it.Valid() && it.Get().start < high_exclusive) {
    out.push_back(it.Get());
    XR_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

Status BTree::CheckNode(PageId id, bool is_root, Position lo, Position hi,
                        int* height) const {
  XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
  PageGuard page(pool_, raw);
  const auto* hdr = BTreeHeader(raw);

  if (hdr->is_leaf) {
    if (hdr->magic != kBTreeLeafMagic) {
      return Status::Corruption("bad leaf magic");
    }
    if (!is_root && hdr->count < leaf_cap_ / 2) {
      return Status::Corruption("leaf underfilled");
    }
    if (hdr->count > leaf_cap_) return Status::Corruption("leaf overfull");
    const Element* slots = LeafSlots(raw);
    for (uint32_t i = 0; i < hdr->count; ++i) {
      if (i > 0 && !(slots[i - 1].start < slots[i].start)) {
        return Status::Corruption("leaf keys out of order");
      }
      if (slots[i].start < lo || slots[i].start >= hi) {
        return Status::Corruption("leaf key outside subtree bounds");
      }
    }
    *height = 1;
    return Status::Ok();
  }

  if (hdr->magic != kBTreeInternalMagic) {
    return Status::Corruption("bad internal magic");
  }
  if (!is_root && hdr->count < internal_cap_ / 2) {
    return Status::Corruption("internal underfilled");
  }
  if (is_root && hdr->count < 1) {
    return Status::Corruption("internal root without keys");
  }
  if (hdr->count > internal_cap_) {
    return Status::Corruption("internal overfull");
  }
  const BTreeInternalEntry* slots = InternalSlots(raw);
  for (uint32_t i = 0; i < hdr->count; ++i) {
    if (i > 0 && !(slots[i - 1].key < slots[i].key)) {
      return Status::Corruption("internal keys out of order");
    }
    if (slots[i].key < lo || slots[i].key >= hi) {
      return Status::Corruption("internal key outside subtree bounds");
    }
  }
  int child_height = -1;
  for (uint32_t i = 0; i <= hdr->count; ++i) {
    Position clo = (i == 0) ? lo : slots[i - 1].key;
    Position chi = (i == hdr->count) ? hi : slots[i].key;
    int h = 0;
    XR_RETURN_IF_ERROR(CheckNode(ChildAt(raw, i), false, clo, chi, &h));
    if (child_height == -1) child_height = h;
    if (h != child_height) {
      return Status::Corruption("children at different heights");
    }
  }
  *height = child_height + 1;
  return Status::Ok();
}

Status BTree::CheckConsistency() const {
  // Quiescent-only (like BulkLoad): run after writers have drained.
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return Status::Ok();
  int height = 0;
  XR_RETURN_IF_ERROR(CheckNode(root_id, true, 0, kNilPosition, &height));

  // Validate the leaf chain: strictly ascending keys across page links and
  // consistent prev pointers.
  XR_ASSIGN_OR_RETURN(BTreeIterator it, Begin());
  Position last = 0;
  bool first = true;
  uint64_t count = 0;
  while (it.Valid()) {
    if (!first && !(last < it.Get().start)) {
      return Status::Corruption("leaf chain out of order");
    }
    last = it.Get().start;
    first = false;
    ++count;
    XR_RETURN_IF_ERROR(it.Next());
  }
  if (count != size_.load(std::memory_order_acquire)) {
    return Status::Corruption("size mismatch: counted " +
                              std::to_string(count) + " tracked " +
                              std::to_string(size()));
  }
  return Status::Ok();
}

Result<uint32_t> BTree::Height() const {
  for (;;) {
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return static_cast<uint32_t>(0);
    auto fetched = pool_->FetchPage(root_id);
    if (!fetched.ok()) {
      if (root_.load(std::memory_order_acquire) != root_id) continue;
      return fetched.status();
    }
    ReadLatchedPage cur(pool_, *fetched);
    if (root_.load(std::memory_order_acquire) != root_id) continue;
    uint32_t h = 1;
    // Bound the walk like the descent: a leftmost pointer that escaped
    // into a cycle must surface as Corruption, not an infinite loop.
    bool done = false;
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      if (BTreeHeader(cur.get())->is_leaf) {
        done = true;
        break;
      }
      PageId child_id = BTreeHeader(cur.get())->leftmost;
      auto child = pool_->FetchPage(child_id);
      if (!child.ok()) return child.status();
      ReadLatchedPage next(pool_, *child);
      cur = std::move(next);
      ++h;
    }
    if (done) return h;
    return Status::Corruption("btree: height walk did not reach a leaf");
  }
}

Result<uint64_t> BTree::CountPages() const {
  // Quiescent-only: walks raw child pointers without latches.
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return static_cast<uint64_t>(0);
  uint64_t n = 0;
  std::vector<PageId> stack{root_id};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    ++n;
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard page(pool_, raw);
    const auto* hdr = BTreeHeader(raw);
    if (!hdr->is_leaf) {
      stack.push_back(hdr->leftmost);
      const BTreeInternalEntry* slots = InternalSlots(raw);
      for (uint32_t i = 0; i < hdr->count; ++i) {
        stack.push_back(slots[i].child);
      }
    }
  }
  return n;
}

Result<uint64_t> BTree::CountEntries() {
  uint64_t n = 0;
  // A stale-but-checksummed leaf chain can form a cycle among otherwise
  // valid leaves; no honest file holds more entries than every page being
  // a full leaf, so anything past that bound is corruption, not data.
  const uint64_t bound =
      uint64_t{pool_->disk()->num_pages()} * kBTreeLeafMaxEntries;
  XR_ASSIGN_OR_RETURN(BTreeIterator it, Begin());
  while (it.Valid()) {
    if (++n > bound) {
      return Status::Corruption("btree: leaf chain cycle while counting");
    }
    XR_RETURN_IF_ERROR(it.Next());
  }
  size_.store(n, std::memory_order_release);
  return n;
}

}  // namespace xrtree
