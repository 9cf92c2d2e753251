#ifndef XRTREE_XRTREE_PROBE_CURSOR_H_
#define XRTREE_XRTREE_PROBE_CURSOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "xml/element.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

/// Finger cursor for a run of FindAncestors probes (the XR-stack's §5.2
/// probes, whose points ascend). It keeps *copies* of the last probe's
/// root-to-leaf path — each internal node's (key, ps, pe, child) slots and
/// its whole stab chain, the landed leaf's elements (a compressed leaf is
/// decoded once), and each level's [lo, hi) key range — and holds no pins
/// or latches between probes.
///
/// The copies are tagged with the tree's write sequence (DESIGN.md §10).
/// While the sequence still equals the tag and the cached leaf covers the
/// probe point, a probe is answered from memory: no page fetch, no latch,
/// no atomic write. Otherwise the cursor re-copies the path from the
/// deepest cached level whose range still covers the point (from the root
/// when the tag is stale), R-latch-coupled, and keeps the copy only if no
/// writer was active before it and the sequence did not move during it. A
/// refill that fails that check, or runs while a writer is active, is
/// answered by the one-shot XrTree::FindAncestorsAbove.
///
/// A served ascending probe walks only the internal keys above its floor
/// and resumes the leaf scan where the previous probe stopped, so it costs
/// about its answer, not a node's fanout or a leaf's log.
///
/// Between probes the join can step instead: while the copy is current
/// and its leaf covers the next point, it reads the ancestors between the
/// previous point and the next one straight off the leaf copy (leaf(),
/// finger(), tail()), and records where it stopped with SetFinger.
///
/// Probe points may jump backwards; the cursor re-descends. One cursor per
/// thread; the tree must outlive it.
class XrProbeCursor {
 public:
  explicit XrProbeCursor(const XrTree* tree) : tree_(tree) {}

  /// XrTree::FindAncestorsAbove(sd, min_start, scanned, next_start), with
  /// the answer written into *out (its previous contents are dropped). The
  /// answer, *next_start and the *scanned increment equal the one-shot
  /// call's.
  Status FindAncestorsAbove(Position sd, Position min_start, ElementList* out,
                            uint64_t* scanned = nullptr,
                            Position* next_start = nullptr);

  /// True while the copy is valid and the tree's write sequence still
  /// equals its tag: no write has run since the copy was taken, so the
  /// leaf copy below may be stepped through. One acquire load; a stepping
  /// caller asks before every step.
  bool current() const {
    return valid_ && tree_->write_seq_.load(std::memory_order_acquire) == tag_;
  }
  /// The leaf copy's elements in start order, and its key range
  /// [leaf_lo, leaf_hi): every ancestor-set element starting in that range
  /// is in the copy.
  const std::vector<Element>& leaf() const { return leaf_; }
  Position leaf_hi() const { return leaf_hi_; }
  /// The finger: leaf()[finger()] is the first element with start >=
  /// point(). point() is the last probe or step point, or kNilPosition
  /// when the last probe did not leave the finger there (its floor
  /// reached past its point), in which case nothing may step.
  uint32_t finger() const { return leaf_finger_; }
  Position point() const { return scan_point_; }
  /// A lower bound for the first start >= leaf_hi(): that start itself
  /// once a probe past the leaf's last element looked it up, leaf_hi()
  /// otherwise (no ancestor-set start lies in between).
  Position tail() const { return tail_known_ ? tail_start_ : leaf_hi_; }
  /// Records a step to `point` (point() <= point < leaf_hi()) that passed
  /// the elements before leaf()[finger].
  void SetFinger(uint32_t finger, Position point) {
    leaf_finger_ = finger;
    scan_point_ = point;
  }

  /// Path re-copies made (including the first), and probes answered by the
  /// one-shot path because a writer raced the re-copy.
  uint64_t refills() const { return refills_; }
  uint64_t fallbacks() const { return fallbacks_; }

 private:
  struct Level {
    Position lo = 0;
    Position hi = kNilPosition;  ///< exclusive; kNilPosition = unbounded
    PageId leftmost = kInvalidPageId;
    std::vector<XrInternalEntry> slots;
    std::vector<StabEntry> stab;  ///< the node's chain, (key, s)-sorted
  };

  /// Re-copies levels [depth, leaf] toward `sd` and tags the copy with
  /// `seq`. Returns false, leaving the cache invalid, when the copy cannot
  /// be kept (a writer was active or ran, or a fetch failed). A page that
  /// fails its check while no writer has run is corrupt: that error is
  /// returned rather than left to a fallback that might not read the page.
  Result<bool> Refill(Position sd, uint64_t seq, size_t depth);

  const XrTree* tree_;
  bool valid_ = false;
  uint64_t tag_ = 0;
  std::vector<Level> levels_;  ///< root first; [0, depth_) are live
  size_t depth_ = 0;
  std::vector<Element> leaf_;
  Position leaf_lo_ = 0;
  Position leaf_hi_ = kNilPosition;
  /// First start >= leaf_hi_ (kNilPosition past the end), once a probe
  /// past the leaf's last element has looked it up.
  bool tail_known_ = false;
  Position tail_start_ = kNilPosition;
  /// Where the previous probe's leaf scan stopped in leaf_ (0 after a
  /// refill): the scan's start hint for the next, ascending probe.
  uint32_t leaf_finger_ = 0;
  /// The point leaf_finger_ stands at (leaf_finger_ is the first index with
  /// start >= scan_point_), or kNilPosition when the last probe did not
  /// leave it there; a step starts only from here.
  Position scan_point_ = kNilPosition;
  std::vector<StabEntry> collected_;  ///< per-probe scratch
  uint64_t refills_ = 0;
  uint64_t fallbacks_ = 0;
};

}  // namespace xrtree

#endif  // XRTREE_XRTREE_PROBE_CURSOR_H_
