#include "btree/sptree.h"

#include <algorithm>
#include <queue>

namespace xrtree {

namespace {

/// An entry whose sibling a pass in key order has not reached yet, with
/// the link it stores (for the checker).
struct Waiting {
  Position end;
  PageId page;
  uint32_t slot;
  PageId sib_page;
  uint32_t sib_slot;
};
struct EndsLater {
  bool operator()(const Waiting& a, const Waiting& b) const {
    return a.end > b.end;
  }
};
/// Earliest end on top, so the pass finds every entry's first later start
/// past its end whether or not the input nests.
using WaitQueue = std::priority_queue<Waiting, std::vector<Waiting>, EndsLater>;

/// Hands `found` every waiting entry that ends before `start`: the entry
/// at `start` is its sibling.
template <typename Found>
Status Resolve(WaitQueue& waiting, Position start, Found&& found) {
  while (!waiting.empty() && waiting.top().end < start) {
    XR_RETURN_IF_ERROR(found(waiting.top()));
    waiting.pop();
  }
  return Status::Ok();
}

}  // namespace

Status SpLayout::CopyLeaf(const Page* p, Position from,
                          std::vector<SnapEntry>* out) {
  XR_RETURN_IF_ERROR(CheckPage(p));
  const uint32_t count = Hdr(p)->count;
  if (!Hdr(p)->is_leaf) {
    return Status::Corruption("sptree: leaf chain points at a foreign page");
  }
  const SpEntry* slots = Leaf(p);
  auto slot = static_cast<uint32_t>(
      std::lower_bound(slots, slots + count, from,
                       [](const SpEntry& e, Position key) {
                         return e.element.start < key;
                       }) -
      slots);
  for (; slot < count; ++slot) out->push_back({slots[slot], p->page_id(), slot});
  return Status::Ok();
}

Result<size_t> SpTree::PackLeaf(Page* leaf, const std::deque<Element>& buf,
                                size_t take, bool, double) {
  SpEntry* slots = SpLayout::Leaf(leaf);
  for (size_t i = 0; i < take; ++i) slots[i] = {buf[i], kInvalidPageId, 0};
  SpLayout::Hdr(leaf)->count = static_cast<uint32_t>(take);
  return take;
}

Status SpTree::FinishBulkLoad(PageId, const std::vector<PageId>& leaves,
                              size_t) {
  // The entries still waiting when the pass ends keep PackLeaf's nil link.
  WaitQueue waiting;
  for (const PageId id : leaves) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard leaf(pool_, raw);
    const SpEntry* slots = SpLayout::Leaf(raw);
    for (uint32_t i = 0; i < SpLayout::Hdr(raw)->count; ++i) {
      XR_RETURN_IF_ERROR(Resolve(
          waiting, slots[i].element.start, [&](const Waiting& w) -> Status {
            XR_ASSIGN_OR_RETURN(Page * from, pool_->FetchPage(w.page));
            PageGuard page(pool_, from);
            page.MarkDirty();
            SpEntry& entry = SpLayout::Leaf(from)[w.slot];
            entry.sib_page = id;
            entry.sib_slot = i;
            return Status::Ok();
          }));
      waiting.push({slots[i].element.end, id, i, kInvalidPageId, 0});
    }
  }
  return Status::Ok();
}

Result<SpTree::LeafSpan> SpTree::LeafEntries(
    const Page* leaf, std::vector<Element>* scratch) const {
  const uint32_t count = SpLayout::Hdr(leaf)->count;
  const SpEntry* slots = SpLayout::Leaf(leaf);
  scratch->clear();
  for (uint32_t i = 0; i < count; ++i) scratch->push_back(slots[i].element);
  return LeafSpan{scratch->data(), count};
}

Status SpTree::CheckConsistency() const {
  XR_RETURN_IF_ERROR(Skeleton::CheckConsistency());
  WaitQueue waiting;
  XR_ASSIGN_OR_RETURN(Cursor it, Begin());
  while (it.Valid()) {
    const SpSnapEntry& e = it.Remaining().front();
    XR_RETURN_IF_ERROR(
        Resolve(waiting, e.element.start, [&e](const Waiting& w) {
          return w.sib_page == e.page && w.sib_slot == e.slot
                     ? Status::Ok()
                     : Corrupt("sibling pointer off target");
        }));
    waiting.push({e.element.end, e.page, e.slot, e.sib_page, e.sib_slot});
    XR_RETURN_IF_ERROR(it.Next());
  }
  for (; !waiting.empty(); waiting.pop()) {
    if (waiting.top().sib_page != kInvalidPageId) {
      return Corrupt("dangling sibling pointer");
    }
  }
  return Status::Ok();
}

}  // namespace xrtree
