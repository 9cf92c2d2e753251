#include "btree/btree.h"

#include <algorithm>
#include <shared_mutex>

namespace xrtree {

Status BTreeCheckPage(const Page* p, size_t leaf_capacity) {
  const auto* hdr = BTreeHeader(p);
  const bool leaf = hdr->magic == kBTreeLeafMagic;
  if ((!leaf && hdr->magic != kBTreeInternalMagic) ||
      hdr->is_leaf != (leaf ? 1 : 0)) {
    return Status::Corruption("btree: page " + std::to_string(p->page_id()) +
                              " is not a tree node");
  }
  if (hdr->count > (leaf ? leaf_capacity : kBTreeInternalMaxEntries)) {
    return Status::Corruption("btree: node " + std::to_string(p->page_id()) +
                              " claims " + std::to_string(hdr->count) +
                              " entries, past its capacity");
  }
  return Status::Ok();
}

Status BTreeLayout::CopyLeaf(const Page* p, Position from,
                             std::vector<Element>* out) {
  XR_RETURN_IF_ERROR(BTreeCheckPage(p));
  const auto* hdr = BTreeHeader(p);
  if (!hdr->is_leaf) {
    return Status::Corruption("btree: leaf chain points at a foreign page");
  }
  const Element* end = LeafSlots(p) + hdr->count;
  const Element* begin = std::lower_bound(
      LeafSlots(p), end, from,
      [](const Element& e, Position key) { return e.start < key; });
  out->insert(out->end(), begin, end);
  return Status::Ok();
}

Status BTree::Insert(const Element& element) {
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  XR_RETURN_IF_ERROR(EnsureRoot());
  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  XR_ASSIGN_OR_RETURN(
      Page * leaf,
      DescendWrite(element.start, ls, path,
                   [this](const Header* child) { return HasRoom(child); },
                   NoVisit));
  const uint32_t at = LeafLowerBound(leaf, element.start);
  if (at < BTreeHeader(leaf)->count &&
      LeafSlots(leaf)[at].start == element.start) {
    return Status::InvalidArgument("duplicate key " +
                                   std::to_string(element.start));
  }
  return PutInLeaf(ls, path, at, element);
}

Status BTree::Delete(Position key) {
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
    return Status::NotFound("empty tree");
  }
  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  XR_RETURN_IF_ERROR(
      DescendWrite(key, ls, path,
                   [this](const Header* child) { return AboveMinFill(child); },
                   NoVisit)
          .status());
  XR_RETURN_IF_ERROR(TakeFromLeaf(ls, path, key).status());
  return Rebalance(ls, path);
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

Result<ElementList> BTree::RangeScan(Position low_exclusive,
                                     Position high_exclusive) const {
  ElementList out;
  XR_ASSIGN_OR_RETURN(Cursor it, UpperBound(low_exclusive));
  while (it.Valid() && it.Get().start < high_exclusive) {
    out.push_back(it.Get());
    XR_RETURN_IF_ERROR(it.Next());
  }
  return out;
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
    XR_RETURN_IF_ERROR(BTreeCheckPage(raw));
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

}  // namespace xrtree
