#include "btree/sptree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <string>

#include "storage/element_file.h"

namespace xrtree {

namespace {

SpTree::SpEntry* SpSlots(Page* p) {
  return reinterpret_cast<SpTree::SpEntry*>(p->data() +
                                            sizeof(BTreePageHeader));
}
const SpTree::SpEntry* SpSlots(const Page* p) {
  return reinterpret_cast<const SpTree::SpEntry*>(p->data() +
                                                  sizeof(BTreePageHeader));
}

/// Fetches `id` and checks it is a leaf.
Result<PageGuard> FetchLeaf(BufferPool* pool, PageId id) {
  XR_ASSIGN_OR_RETURN(Page * raw, pool->FetchPage(id));
  PageGuard page(pool, raw);
  XR_RETURN_IF_ERROR(BTreeCheckPage(raw, SpTree::kLeafMaxEntries));
  if (!BTreeHeader(raw)->is_leaf) {
    return Status::Corruption("sptree: leaf link points at an internal node");
  }
  return page;
}

uint32_t SpLeafLowerBound(const Page* page, Position key) {
  const SpTree::SpEntry* slots = SpSlots(page);
  uint32_t lo = 0, hi = BTreeHeader(page)->count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].element.start < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t SpChildSlot(const Page* page, Position key) {
  const BTreeInternalEntry* slots = InternalSlots(page);
  uint32_t lo = 0, hi = BTreeHeader(page)->count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

PageId SpChildAt(const Page* page, uint32_t slot) {
  return slot == 0 ? BTreeHeader(page)->leftmost
                   : InternalSlots(page)[slot - 1].child;
}

}  // namespace

Status SpTree::BulkLoad(const ElementList& elements) {
  if (root_ != kInvalidPageId || size_ != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (!std::is_sorted(elements.begin(), elements.end())) {
    return Status::InvalidArgument("BulkLoad input must be sorted by start");
  }
  return BulkLoadImpl([&elements]() {
    size_t idx = 0;
    return [&elements, idx](Element* e) mutable {
      if (idx >= elements.size()) return false;
      *e = elements[idx++];
      return true;
    };
  });
}

Status SpTree::BulkLoadFromFile(const ElementFile& file) {
  if (root_ != kInvalidPageId || size_ != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  Status scan_status;
  XR_RETURN_IF_ERROR(BulkLoadImpl([&file, &scan_status]() {
    auto scanner = std::make_shared<ElementFile::Scanner>(file.NewScanner());
    return [scanner, &scan_status](Element* e) {
      if (!scanner->Valid()) {
        scan_status = scanner->status();
        return false;
      }
      *e = scanner->Get();
      scanner->Next();
      return true;
    };
  }));
  return scan_status;
}

Status SpTree::BulkLoadImpl(
    const std::function<std::function<bool(Element*)>()>& make_scan) {
  // Pass 1: pack leaves left to right, retaining each element's start (for
  // the sibling binary search) and its (page, slot) — not the element.
  struct Loc {
    PageId page;
    uint32_t slot;
  };
  std::vector<Loc> locs;
  std::vector<Position> starts;
  struct ChildRef {
    Position first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  PageGuard prev;
  std::function<bool(Element*)> next = make_scan();
  std::vector<Element> chunk;
  chunk.reserve(kLeafMaxEntries);
  // One-element lookahead so a corpus that is an exact multiple of the
  // leaf capacity does not leave a trailing empty leaf on the chain.
  Element pending;
  bool have_pending = next(&pending);
  while (have_pending || level.empty()) {
    chunk.clear();
    while (chunk.size() < kLeafMaxEntries && have_pending) {
      chunk.push_back(pending);
      starts.push_back(pending.start);
      Position prev_start = pending.start;
      have_pending = next(&pending);
      if (have_pending && pending.start < prev_start) {
        return Status::InvalidArgument("BulkLoad input must be sorted by start");
      }
    }
    const size_t n = chunk.size();
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    PageGuard page(pool_, raw);
    page.MarkDirty();
    auto* hdr = BTreeHeader(raw);
    hdr->magic = kBTreeLeafMagic;
    hdr->is_leaf = 1;
    hdr->count = static_cast<uint32_t>(n);
    hdr->next = kInvalidPageId;
    hdr->prev = prev ? prev.page_id() : kInvalidPageId;
    hdr->leftmost = kInvalidPageId;
    SpEntry* slots = SpSlots(raw);
    for (size_t j = 0; j < n; ++j) {
      slots[j] = {chunk[j], kInvalidPageId, 0};
      locs.push_back({raw->page_id(), static_cast<uint32_t>(j)});
    }
    if (prev) {
      BTreeHeader(prev.get())->next = raw->page_id();
      prev.MarkDirty();
    }
    level.push_back({n > 0 ? chunk[0].start : 0, raw->page_id()});
    prev = std::move(page);
    if (n == 0) break;  // empty input: single empty leaf
  }
  prev.Release();

  // Pass 2: wire sibling pointers. The first non-descendant of element i
  // is the first element with start > ends[i] — a binary search over the
  // retained starts; the ends stream by in a second sequential scan.
  next = make_scan();
  for (size_t i = 0; i < locs.size(); ++i) {
    Element e;
    if (!next(&e)) {
      return Status::Corruption("sptree bulk load: second pass came up short");
    }
    auto it = std::upper_bound(starts.begin(), starts.end(), e.end);
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(locs[i].page));
    PageGuard page(pool_, raw);
    page.MarkDirty();
    SpEntry& entry = SpSlots(raw)[locs[i].slot];
    if (it == starts.end()) {
      entry.sib_page = kInvalidPageId;
      entry.sib_slot = 0;
    } else {
      size_t target = static_cast<size_t>(it - starts.begin());
      entry.sib_page = locs[target].page;
      entry.sib_slot = locs[target].slot;
    }
  }

  // Internal levels: same packing as the plain B+-tree.
  while (level.size() > 1) {
    std::vector<ChildRef> next_level;
    size_t i = 0;
    const size_t fanout = kBTreeInternalMaxEntries;
    while (i < level.size()) {
      size_t nchildren = std::min(fanout + 1, level.size() - i);
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
      PageGuard page(pool_, raw);
      page.MarkDirty();
      auto* hdr = BTreeHeader(raw);
      hdr->magic = kBTreeInternalMagic;
      hdr->is_leaf = 0;
      hdr->count = static_cast<uint32_t>(nchildren - 1);
      hdr->next = kInvalidPageId;
      hdr->prev = kInvalidPageId;
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
  root_ = level[0].page;
  size_ = starts.size();
  return Status::Ok();
}

Result<PageId> SpTree::FindLeaf(Position key) const {
  if (root_ == kInvalidPageId) return Status::NotFound("empty tree");
  PageId cur = root_;
  for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageGuard page(pool_, raw);
    XR_RETURN_IF_ERROR(BTreeCheckPage(raw, SpTree::kLeafMaxEntries));
    if (BTreeHeader(raw)->is_leaf) return cur;
    cur = SpChildAt(raw, SpChildSlot(raw, key));
  }
  return Status::Corruption("sptree: descent did not reach a leaf");
}

Result<SpIterator> SpTree::LowerBound(Position key) const {
  if (root_ == kInvalidPageId) return SpIterator();
  XR_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  XR_ASSIGN_OR_RETURN(PageGuard leaf, FetchLeaf(pool_, leaf_id));
  uint32_t at = SpLeafLowerBound(leaf.get(), key);
  const auto* hdr = BTreeHeader(leaf.get());
  if (at >= hdr->count) {
    PageId next = hdr->next;
    leaf.Release();
    if (next == kInvalidPageId) return SpIterator();
    XR_ASSIGN_OR_RETURN(PageGuard nleaf, FetchLeaf(pool_, next));
    if (BTreeHeader(nleaf.get())->count == 0) return SpIterator();
    return SpIterator(this, std::move(nleaf), 0);
  }
  return SpIterator(this, std::move(leaf), at);
}

Result<SpIterator> SpTree::UpperBound(Position key) const {
  if (key == kNilPosition) return SpIterator();
  return LowerBound(key + 1);
}

Result<SpIterator> SpTree::Begin() const { return LowerBound(0); }

Status SpTree::CheckConsistency() const {
  if (root_ == kInvalidPageId) return Status::Ok();
  // Collect the leaf level in order, remembering locations.
  struct Located {
    Element element;
    PageId page;
    uint32_t slot;
    PageId sib_page;
    uint32_t sib_slot;
  };
  std::vector<Located> all;
  XR_ASSIGN_OR_RETURN(PageId cur, FindLeaf(0));
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(PageGuard page, FetchLeaf(pool_, cur));
    const auto* hdr = BTreeHeader(page.get());
    const SpEntry* slots = SpSlots(page.get());
    for (uint32_t i = 0; i < hdr->count; ++i) {
      all.push_back({slots[i].element, cur, i, slots[i].sib_page,
                     slots[i].sib_slot});
    }
    cur = hdr->next;
  }
  if (all.size() != size_) return Status::Corruption("sptree size mismatch");
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && !(all[i - 1].element.start < all[i].element.start)) {
      return Status::Corruption("sptree keys out of order");
    }
    // The sibling pointer must reference the first element with
    // start > this.end.
    size_t target = i + 1;
    while (target < all.size() &&
           all[target].element.start < all[i].element.end) {
      ++target;
    }
    if (target == all.size()) {
      if (all[i].sib_page != kInvalidPageId) {
        return Status::Corruption("sptree dangling sibling pointer");
      }
    } else if (all[i].sib_page != all[target].page ||
               all[i].sib_slot != all[target].slot) {
      return Status::Corruption("sptree sibling pointer off target");
    }
  }
  return Status::Ok();
}

SpIterator::SpIterator(const SpTree* tree, PageGuard leaf, uint32_t slot)
    : tree_(tree), leaf_(std::move(leaf)), slot_(slot) {
  if (leaf_) {
    assert(slot_ < BTreeHeader(leaf_.get())->count);
    scanned_ = 1;
  }
}

const Element& SpIterator::Get() const {
  assert(Valid());
  return SpSlots(leaf_.get())[slot_].element;
}

Status SpIterator::Next() {
  if (!Valid()) return Status::InvalidArgument("Next on invalid iterator");
  const auto* hdr = BTreeHeader(leaf_.get());
  if (slot_ + 1 < hdr->count) {
    ++slot_;
    ++scanned_;
    return Status::Ok();
  }
  PageId next = hdr->next;
  BufferPool* pool = tree_->pool();
  leaf_.Release();
  while (next != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(leaf_, FetchLeaf(pool, next));
    slot_ = 0;
    if (BTreeHeader(leaf_.get())->count > 0) {
      ++scanned_;
      return Status::Ok();
    }
    next = BTreeHeader(leaf_.get())->next;
    leaf_.Release();
  }
  leaf_ = PageGuard();
  return Status::Ok();
}

Status SpIterator::SeekPastKey(Position key) {
  if (tree_ == nullptr) {
    return Status::InvalidArgument("SeekPastKey on default iterator");
  }
  const SpTree* tree = tree_;
  uint64_t scanned = scanned_;
  leaf_.Release();
  XR_ASSIGN_OR_RETURN(SpIterator fresh, tree->UpperBound(key));
  *this = std::move(fresh);
  scanned_ += scanned;
  tree_ = tree;
  return Status::Ok();
}

Status SpIterator::FollowSibling() {
  if (!Valid()) {
    return Status::InvalidArgument("FollowSibling on invalid iterator");
  }
  const SpTree::SpEntry& entry = SpSlots(leaf_.get())[slot_];
  PageId target_page = entry.sib_page;
  uint32_t target_slot = entry.sib_slot;
  BufferPool* pool = tree_->pool();
  leaf_.Release();
  if (target_page == kInvalidPageId) {
    leaf_ = PageGuard();
    return Status::Ok();
  }
  XR_ASSIGN_OR_RETURN(leaf_, FetchLeaf(pool, target_page));
  slot_ = target_slot;
  if (slot_ >= BTreeHeader(leaf_.get())->count) {
    return Status::Corruption("sibling pointer past leaf count");
  }
  ++scanned_;
  return Status::Ok();
}

}  // namespace xrtree
