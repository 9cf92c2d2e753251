#ifndef XRTREE_XRTREE_PROBE_CURSOR_H_
#define XRTREE_XRTREE_PROBE_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "xml/element.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

class XrTree;

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
/// Between probes the join can step instead (Advance): while the copy is
/// current and its leaf covers the next point, the ancestors between the
/// previous point and the next one are read straight off the leaf copy.
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

  /// The XR-stack's ancestor advance: FindAncestorsAbove(sd, min_start,
  /// ...), or an in-leaf step where that is cheaper. It steps when the copy
  /// is current (the write sequence still equals its tag), its leaf's key
  /// range covers sd, and min_start + 1 is the point p <= sd of the
  /// previous served probe or step — the join's ascending floor. Then every
  /// element with p <= start < sd lies in the leaf copy: the step writes
  /// into *out (previous contents dropped, flags cleared, start order) the
  /// ones that strictly contain sd, adds one to *scanned per element
  /// passed, and sets *next_start to the first start >= sd — or to the
  /// leaf's upper key bound when the leaf ends first, which no
  /// ancestor-set start lies below. The answer is the probe's; *scanned
  /// and *next_start may differ from it as described. A floor of 0 (the
  /// join's unfloored ablation) always probes. `scanned` and `next_start`
  /// must be non-null.
  Status Advance(Position sd, Position min_start, ElementList* out,
                 uint64_t* scanned, Position* next_start);

  /// Path re-copies made (including the first), and probes answered by the
  /// one-shot path because a writer raced the re-copy.
  uint64_t refills() const { return refills_; }
  uint64_t fallbacks() const { return fallbacks_; }
  /// Advance calls answered by a step.
  uint64_t steps() const { return steps_; }

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
  /// leave it there; Advance steps only from here.
  Position scan_point_ = kNilPosition;
  std::vector<StabEntry> collected_;  ///< per-probe scratch
  uint64_t refills_ = 0;
  uint64_t fallbacks_ = 0;
  uint64_t steps_ = 0;
};

}  // namespace xrtree

#endif  // XRTREE_XRTREE_PROBE_CURSOR_H_
