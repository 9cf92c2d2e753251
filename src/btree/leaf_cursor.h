#ifndef XRTREE_BTREE_LEAF_CURSOR_H_
#define XRTREE_BTREE_LEAF_CURSOR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_latch.h"
#include "xml/element.h"

namespace xrtree {

/// The adaptive read-ahead ramp (JoinOptions::adaptive_prefetch), shared by
/// the leaf cursor and XR-stack's ancestor side. With `adaptive` off the
/// depth stays `depth`. With it on, a run starts at min(depth, 4) pages,
/// doubles after each full run up to max(depth, kMaxDepth) and halves after
/// a short one, never below 2: long scans reach a deep horizon while short
/// stabs pay no wasted reads.
class ReadAheadRamp {
 public:
  static constexpr uint32_t kMaxDepth = 64;

  ReadAheadRamp() = default;
  ReadAheadRamp(uint32_t depth, bool adaptive)
      : depth_(adaptive ? std::min<uint32_t>(depth, 4) : depth),
        cap_(adaptive ? std::max(depth, kMaxDepth) : 0) {}

  /// Pages the next run asks for; 0 = read-ahead off.
  uint32_t depth() const { return depth_; }

  /// Records how the last run came back: `full` when it held depth() pages.
  void Record(bool full) {
    if (cap_ == 0) return;
    depth_ = full ? std::min(depth_ * 2, cap_)
                  : std::max<uint32_t>(2, depth_ / 2);
  }

 private:
  uint32_t depth_ = 0;
  uint32_t cap_ = 0;  ///< ramp ceiling; 0 = fixed depth
};

/// Forward cursor over the leaf level of a BPlusSkeleton tree (BTree,
/// XrTree): the merge-scan backbone of the joins. It holds a *snapshot* of
/// the current leaf's elements, copied under a short R-latch by the tree's
/// Layout::CopyLeaf, and no latch or pin between calls, so any number of
/// cursors run against concurrent writers without blocking them.
///
/// Lateral moves chase the leaf chain; each hop R-latches the next leaf and
/// re-validates the pool's free epoch, sampled when the link was read. If a
/// tree page was freed in between (the link may dangle or name a recycled
/// page) the cursor re-descends from the root past the last key it
/// returned: correct, merely one extra descent. Under a quiesced tree this
/// is the classic pinned-cursor behaviour.
///
/// scanned() counts the elements the cursor lands on, the paper's "number
/// of elements scanned" (§6.1). Leaf read-ahead (EnablePrefetch) survives
/// seeks. A move that returns an error leaves the cursor invalid.
template <typename Tree>
class LeafCursor {
 public:
  /// Invalid (end) cursor bound to no tree.
  LeafCursor() = default;
  /// Invalid cursor over `tree`; a seek positions it.
  explicit LeafCursor(const Tree* tree) : tree_(tree) {}

  LeafCursor(LeafCursor&&) = default;
  LeafCursor& operator=(LeafCursor&&) = default;

  bool Valid() const { return pos_ < snap_.size(); }
  const Element& Get() const {
    assert(Valid());
    return snap_[pos_];
  }

  /// Advances to the next element in key order; the cursor becomes invalid
  /// past the end of the tree.
  Status Next() {
    if (!Valid()) return Status::InvalidArgument("Next on invalid iterator");
    if (pos_ + 1 < snap_.size()) {
      ++pos_;
      ++scanned_;
      return Status::Ok();
    }
    return LandOnNextLeaf(/*read_ahead=*/true);
  }

  /// The current element and the rest of the snapshot after it: the
  /// elements Next() returns before it fetches another leaf. Empty when
  /// !Valid(). Lets a merge walk a leaf as an array, then catch the cursor
  /// up with Forward.
  std::span<const Element> Remaining() const {
    return {snap_.data() + pos_, snap_.size() - pos_};
  }

  /// k Next() calls at once (k <= Remaining().size()), scanned() included:
  /// moves to Remaining()[k], or lands on the next leaf when k is the
  /// whole remainder.
  Status Forward(size_t k) {
    assert(k <= snap_.size() - pos_);
    if (k == 0) return Status::Ok();
    // Next() charges one per element it moves onto; the last of k calls
    // may land on the next leaf, which charges its own.
    pos_ += k - 1;
    scanned_ += k - 1;
    return Next();
  }

  /// Moves to the first element with start > `key`: the skip primitive of
  /// Algorithm 6 (line 19). When that element lies in the current snapshot
  /// (its first start <= key < its last start) the seek binary-searches the
  /// snapshot and fetches nothing; otherwise it descends (Reseek). Either
  /// way the landing element is charged to scanned() once.
  Status SeekPastKey(Position key) {
    if (!snap_.empty() && snap_.front().start <= key &&
        key < snap_.back().start) {
      // Finger seek: the first start > key lies in this snapshot, and no
      // earlier leaf holds one. Search from the cursor when the key is
      // ahead of it (the join's case), else from the snapshot's start.
      const size_t from = Valid() && snap_[pos_].start <= key ? pos_ : 0;
      pos_ = static_cast<size_t>(
          std::upper_bound(snap_.begin() + from, snap_.end(), key,
                           [](Position k, const Element& e) {
                             return k < e.start;
                           }) -
          snap_.begin());
      ++scanned_;  // the landing element, as a descent charges it
      return Status::Ok();
    }
    XR_RETURN_IF_ERROR(Reseek(key, /*exclusive=*/true));
    MaybePrefetch();
    return Status::Ok();
  }

  /// One root-to-leaf descent to the first element with start > `key`
  /// (`exclusive`) or >= `key`, whatever the snapshot holds: Anc_Des_B+'s
  /// skip, which the paper charges one probe. Keeps the scanned() total
  /// and the read-ahead state, charges the landing element and issues no
  /// read-ahead itself.
  Status Reseek(Position key, bool exclusive) {
    using Layout = typename Tree::NodeLayout;
    if (tree_ == nullptr) {
      return Status::InvalidArgument("seek on a default cursor");
    }
    if (exclusive) {
      if (key == kNilPosition) {  // no start lies past nil
        snap_.clear();
        pos_ = 0;
        next_ = kInvalidPageId;
        return Status::Ok();
      }
      ++key;
    }
    snap_.clear();
    pos_ = 0;
    next_ = kInvalidPageId;
    XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, tree_->DescendToLeafRead(key));
    if (!leaf) return Status::Ok();  // empty tree
    // Copy under the latch, and sample the chain link and the free epoch
    // in the same critical section, so a later hop can detect tree frees.
    // While the latch is held `next_` cannot be unlinked (that takes W on
    // this leaf), so an unchanged epoch later proves the id still names
    // the same live leaf (no ABA through FreePage).
    next_ = Layout::Hdr(leaf.get())->next;
    epoch_ = tree_->pool()->free_epoch();
    reseek_key_ = key;
    reseek_exclusive_ = false;
    if (Status st = Layout::CopyLeaf(leaf.get(), key, &snap_); !st.ok()) {
      return Fail(st);
    }
    if (snap_.empty()) {
      // The key is past this leaf's last entry: land on the next
      // non-empty leaf through the epoch-checked hop.
      leaf.Release();
      return LandOnNextLeaf(/*read_ahead=*/false);
    }
    Landed();
    return Status::Ok();
  }

  /// Turns on leaf read-ahead: every time the cursor lands on a new leaf,
  /// the next ReadAheadRamp(depth, adaptive).depth() sibling leaves
  /// (BPlusSkeleton::LeafRunAfter) are submitted with
  /// BufferPool::PrefetchBatchAsync, or at the last child of a parent just
  /// the chain successor, so the cursor finds them resident or in flight
  /// instead of paying one blocking miss per page. depth 0 = off.
  void EnablePrefetch(uint32_t depth, bool adaptive = false) {
    ramp_ = ReadAheadRamp(depth, adaptive);
    MaybePrefetch();
  }

  uint64_t scanned() const { return scanned_; }
  uint32_t prefetch_depth() const { return ramp_.depth(); }

 private:
  /// The cursor sits on the first element of a fresh snapshot.
  void Landed() {
    pos_ = 0;
    // Recovery resumes strictly past the last element this snapshot can
    // return.
    reseek_key_ = snap_.back().start;
    reseek_exclusive_ = true;
    ++scanned_;  // landing on an element examines it
  }

  /// Drops a snapshot an error may have left half copied.
  Status Fail(Status st) {
    snap_.clear();
    pos_ = 0;
    next_ = kInvalidPageId;
    return st;
  }

  /// Chases next_ to the first non-empty leaf and snapshots it. Falls back
  /// to a Reseek past reseek_key_ when the free epoch moved under the
  /// lateral link. `read_ahead` issues the read-ahead for a landing.
  Status LandOnNextLeaf(bool read_ahead) {
    using Layout = typename Tree::NodeLayout;
    BufferPool* pool = tree_->pool();
    // A stale page that still passes its checksum can link the chain back
    // onto a leaf already passed, and every leaf on that loop copies empty
    // past the recovery point. Without a free (which re-descends) the chain
    // only gains leaves, so an honest walk visits fewer leaves than the
    // file has pages; the count is read only once a walk passes an empty
    // copy.
    uint64_t hops = 0;
    uint64_t hop_bound = 1;
    while (next_ != kInvalidPageId) {
      if (++hops > hop_bound &&
          hops > (hop_bound = pool->disk()->num_pages())) {
        return Fail(Status::Corruption(std::string(Layout::kName) +
                                       ": leaf chain loops"));
      }
      auto fetched = pool->FetchPage(next_);
      if (!fetched.ok()) {
        // A dangling link surfaces as NotFound (the id is free-listed).
        // That can only happen after a tree-page free, which bumps the
        // epoch, so a fresh descent is the right recovery. Any other
        // failure (I/O) is real.
        if (pool->free_epoch() != epoch_) {
          return Reseek(reseek_key_, reseek_exclusive_);
        }
        return Fail(fetched.status());
      }
      ReadLatchedPage leaf(pool, *fetched);
      if (pool->free_epoch() != epoch_) {
        // The link was read in an older epoch; the id may have been
        // recycled into a different (even same-magic) leaf between the
        // read and this latch. Cheaper to re-descend than to prove
        // identity. The descent latches from the root, so this stale page
        // is let go first.
        leaf.Release();
        return Reseek(reseek_key_, reseek_exclusive_);
      }
      // Copy from the recovery point, not the leaf's start: a borrow moves
      // a left leaf's last entry into its right sibling and frees nothing,
      // so this leaf can hold keys the cursor returned (or, on a landing
      // for LowerBound, keys below the seek key). Skipping them keeps every
      // scan strictly ascending.
      snap_.clear();
      if (Status st = Layout::CopyLeaf(
              leaf.get(), reseek_exclusive_ ? reseek_key_ + 1 : reseek_key_,
              &snap_);
          !st.ok()) {
        return Fail(st);
      }
      next_ = Layout::Hdr(leaf.get())->next;
      epoch_ = pool->free_epoch();  // resampled under this leaf's latch
      if (!snap_.empty()) {
        leaf.Release();
        Landed();
        if (read_ahead) MaybePrefetch();
        return Status::Ok();
      }
    }
    snap_.clear();
    pos_ = 0;
    return Status::Ok();  // end of tree
  }

  /// Issues the read-ahead for the leaves following the current snapshot.
  void MaybePrefetch() {
    if (ramp_.depth() == 0 || !Valid() || next_ == kInvalidPageId) return;
    // One descent through the (hot, resident) upper levels reads the
    // sibling leaf ids off the parent internal node, so the whole run goes
    // to the pool as one vectorized batch instead of a page-at-a-time
    // pointer chase. The descent key is this snapshot's largest start,
    // which lands the probe back on the snapshot's leaf.
    auto run = tree_->LeafRunAfter(snap_.back().start, ramp_.depth());
    if (run.ok() && !run->empty() && run->front() == next_) {
      const bool full = run->size() == ramp_.depth();
      tree_->pool()->PrefetchBatchAsync(*run);
      ramp_.Record(full);
      return;
    }
    // The run does not start at our chain successor: this leaf is the last
    // child of its parent (or a concurrent split moved the chain). Read
    // ahead the one id we know; landing there asks LeafRunAfter again,
    // inside the next parent.
    ramp_.Record(false);
    tree_->pool()->PrefetchBatchAsync({next_});
  }

  const Tree* tree_ = nullptr;
  std::vector<Element> snap_;
  size_t pos_ = 0;
  PageId next_ = kInvalidPageId;   ///< chain link read under the leaf latch
  uint64_t epoch_ = 0;             ///< free epoch when next_ was read
  Position reseek_key_ = 0;        ///< recovery point for a fresh descent
  bool reseek_exclusive_ = false;  ///< true once an element was returned
  uint64_t scanned_ = 0;
  ReadAheadRamp ramp_;
};

}  // namespace xrtree

#endif  // XRTREE_BTREE_LEAF_CURSOR_H_
