#include "btree/btree_iterator.h"

#include <cassert>
#include <utility>

#include "btree/btree.h"
#include "storage/page_latch.h"

namespace xrtree {

BTreeIterator::BTreeIterator(const BTree* tree, std::vector<Element> snap,
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

const Element& BTreeIterator::Get() const {
  assert(Valid());
  return snap_[pos_];
}

Status BTreeIterator::Next() {
  if (!Valid()) return Status::InvalidArgument("Next on invalid iterator");
  if (pos_ + 1 < snap_.size()) {
    ++pos_;
    ++scanned_;
    return Status::Ok();
  }
  return LandOnNextLeaf();
}

Status BTreeIterator::LandOnNextLeaf() {
  BufferPool* pool = tree_->pool();
  while (next_ != kInvalidPageId) {
    auto fetched = pool->FetchPage(next_);
    if (!fetched.ok()) {
      // A dangling link surfaces as NotFound (the id is free-listed). That
      // can only happen after an index-page free, which bumps the epoch —
      // so a fresh descent is the right recovery. Any other failure (I/O)
      // is real.
      if (pool->free_epoch() != epoch_) return Reseek();
      return fetched.status();
    }
    ReadLatchedPage leaf(pool, *fetched);
    if (pool->free_epoch() != epoch_) {
      // The link was read in an older epoch; the id may have been recycled
      // into a different (even same-magic) leaf between the read and this
      // latch. Cheaper to re-descend than to prove identity.
      return Reseek();
    }
    XR_RETURN_IF_ERROR(BTreeCheckPage(leaf.get()));
    const auto* hdr = BTreeHeader(leaf.get());
    if (!hdr->is_leaf) {
      return Status::Corruption("btree: leaf chain points at a foreign page");
    }
    if (hdr->count > 0) {
      snap_.assign(LeafSlots(leaf.get()),
                   LeafSlots(leaf.get()) + hdr->count);
      pos_ = 0;
      next_ = hdr->next;
      epoch_ = pool->free_epoch();  // resampled under this leaf's latch
      reseek_key_ = snap_.back().start;
      reseek_exclusive_ = true;
      ++scanned_;
      return Status::Ok();
    }
    next_ = hdr->next;
    epoch_ = pool->free_epoch();
  }
  snap_.clear();
  pos_ = 0;
  return Status::Ok();  // end of tree
}

Status BTreeIterator::Reseek() {
  const BTree* tree = tree_;
  uint64_t scanned = scanned_;
  Position key = reseek_key_;
  bool exclusive = reseek_exclusive_;
  XR_ASSIGN_OR_RETURN(BTreeIterator fresh,
                      exclusive ? tree->UpperBound(key) : tree->LowerBound(key));
  *this = std::move(fresh);
  tree_ = tree;
  // The fresh iterator charged 1 for its landing element; that charge
  // replaces the lateral hop's, so just add the prior total back.
  scanned_ += scanned;
  return Status::Ok();
}

Status BTreeIterator::SeekPastKey(Position key) {
  if (tree_ == nullptr) {
    return Status::InvalidArgument("SeekPastKey on default iterator");
  }
  const BTree* tree = tree_;
  uint64_t scanned = scanned_;
  XR_ASSIGN_OR_RETURN(BTreeIterator fresh, tree->UpperBound(key));
  *this = std::move(fresh);
  // Preserve the accumulated count across the reseek; the landing element
  // is examined (and charged) like any other scan. An off-the-end result
  // comes back with a null tree pointer; restore it so the iterator stays
  // reseekable.
  scanned_ += scanned;
  tree_ = tree;
  return Status::Ok();
}

}  // namespace xrtree
