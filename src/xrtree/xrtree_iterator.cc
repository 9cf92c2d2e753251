#include "xrtree/xrtree_iterator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "storage/page_latch.h"
#include "xrtree/xrtree.h"

namespace xrtree {

XrIterator::XrIterator(const XrTree* tree, std::vector<Element> snap,
                       PageId next, uint64_t epoch, Position reseek_key,
                       bool reseek_exclusive)
    : tree_(tree),
      snap_(std::move(snap)),
      next_(next),
      epoch_(epoch),
      reseek_key_(reseek_key),
      reseek_exclusive_(reseek_exclusive) {
  if (!snap_.empty()) {
    scanned_ = 1;  // landing on an element examines it
    // Once positioned on an element, recovery always resumes strictly past
    // the last element this snapshot can return.
    reseek_key_ = snap_.back().start;
    reseek_exclusive_ = true;
  }
}

const Element& XrIterator::Get() const {
  assert(Valid());
  return snap_[pos_];
}

Status XrIterator::Next() {
  if (!Valid()) return Status::InvalidArgument("Next on invalid iterator");
  if (pos_ + 1 < snap_.size()) {
    ++pos_;
    ++scanned_;
    return Status::Ok();
  }
  return LandOnNextLeaf();
}

Status XrIterator::LandOnNextLeaf() {
  BufferPool* pool = tree_->pool();
  while (next_ != kInvalidPageId) {
    auto fetched = pool->FetchPage(next_);
    if (!fetched.ok()) {
      // A dangling link surfaces as NotFound (the id is free-listed). That
      // can only happen after an index-page free, which bumps the epoch —
      // so a fresh descent is the right recovery. Any other failure (I/O)
      // is real.
      if (pool->free_epoch() != epoch_) {
        return Reseek(reseek_key_, reseek_exclusive_);
      }
      return fetched.status();
    }
    ReadLatchedPage leaf(pool, *fetched);
    if (pool->free_epoch() != epoch_) {
      // The link was read in an older epoch; the id may have been recycled
      // into a different (even same-magic) leaf between the read and this
      // latch. Cheaper to re-descend than to prove identity.
      return Reseek(reseek_key_, reseek_exclusive_);
    }
    snap_.clear();
    XR_RETURN_IF_ERROR(XrLeafAppend(leaf.get(), &snap_));
    next_ = XrHeader(leaf.get())->next;
    epoch_ = pool->free_epoch();  // resampled under this leaf's latch
    if (!snap_.empty()) {
      pos_ = 0;
      reseek_key_ = snap_.back().start;
      reseek_exclusive_ = true;
      ++scanned_;
      leaf.Release();
      MaybePrefetch();
      return Status::Ok();
    }
  }
  snap_.clear();
  pos_ = 0;
  return Status::Ok();  // end of tree
}

Status XrIterator::Reseek(Position key, bool exclusive) {
  const XrTree* tree = tree_;
  const uint64_t scanned = scanned_;
  const uint32_t prefetch = prefetch_depth_;
  const uint32_t cap = prefetch_cap_;
  XR_ASSIGN_OR_RETURN(XrIterator fresh,
                      exclusive ? tree->UpperBound(key) : tree->LowerBound(key));
  *this = std::move(fresh);
  // An off-the-end result comes back with a null tree pointer; restore it
  // so the iterator stays reseekable. The fresh landing charged 1 for its
  // element, like any other scan step, so just add the prior total back.
  tree_ = tree;
  scanned_ += scanned;
  prefetch_depth_ = prefetch;
  prefetch_cap_ = cap;
  return Status::Ok();
}

Status XrIterator::SeekPastKey(Position key) {
  if (tree_ == nullptr) {
    return Status::InvalidArgument("SeekPastKey on default iterator");
  }
  if (!snap_.empty() && snap_.front().start <= key &&
      key < snap_.back().start) {
    // Finger seek: the first start > key lies in this snapshot, and no
    // earlier leaf holds one. Search from the cursor when the key is ahead
    // of it (the join's case), else from the snapshot's first element.
    const size_t from = Valid() && snap_[pos_].start <= key ? pos_ : 0;
    pos_ = static_cast<size_t>(
        std::upper_bound(snap_.begin() + from, snap_.end(), key,
                         [](Position k, const Element& e) {
                           return k < e.start;
                         }) -
        snap_.begin());
    ++scanned_;  // the landing element, as a fresh descent charges it
    return Status::Ok();
  }
  // The landing element is examined and charged like any other scan (see
  // BTreeIterator::SeekPastKey).
  XR_RETURN_IF_ERROR(Reseek(key, true));
  MaybePrefetch();
  return Status::Ok();
}

void XrIterator::EnablePrefetch(uint32_t depth, bool adaptive) {
  prefetch_depth_ = depth;
  prefetch_cap_ = adaptive ? std::max(depth, kMaxAdaptivePrefetch) : 0;
  MaybePrefetch();
}

void XrIterator::MaybePrefetch() {
  if (prefetch_depth_ == 0 || !Valid() || next_ == kInvalidPageId) return;
  // One descent through the (hot, resident) upper levels reads the sibling
  // leaf ids off the parent internal node, so the whole run goes to the
  // pool as one vectorized batch instead of a page-at-a-time pointer chase.
  // The descent key is this snapshot's largest start, which lands the probe
  // back on the snapshot's leaf.
  Position last = snap_.back().start;
  auto run = tree_->LeafRunAfter(last, prefetch_depth_);
  if (run.ok() && !run->empty() && run->front() == next_) {
    bool full = run->size() == prefetch_depth_;
    tree_->pool()->PrefetchBatchAsync(*run);
    if (prefetch_cap_ != 0) {
      // Adaptive ramp: a full run means the scan is sweeping a long
      // sequential stretch — deepen the horizon. A short run means the
      // parent (or tree) is ending — pull back so nothing is fetched past
      // the useful frontier.
      prefetch_depth_ = full ? std::min(prefetch_depth_ * 2, prefetch_cap_)
                             : std::max<uint32_t>(2, prefetch_depth_ / 2);
    }
    return;
  }
  // The run does not start at our chain successor: this leaf is the last
  // child of its parent (or a concurrent split moved the chain). Read ahead
  // the one id we know; landing there calls LeafRunAfter again, inside the
  // next parent.
  if (prefetch_cap_ != 0) {
    prefetch_depth_ = std::max<uint32_t>(2, prefetch_depth_ / 2);
  }
  tree_->pool()->PrefetchBatchAsync({next_});
}

}  // namespace xrtree
