#ifndef XRTREE_XRTREE_XRTREE_ITERATOR_H_
#define XRTREE_XRTREE_XRTREE_ITERATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "xml/element.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

class XrTree;

/// Forward cursor over the leaf level of an XrTree (the merge-scan backbone
/// of the XR-stack join). Like BTreeIterator, it holds a *snapshot* of the
/// current leaf's elements (copied under a short R-latch) and zero latches
/// or pins between calls, so any number of cursors can run against
/// concurrent writers without blocking them.
///
/// Lateral moves chase the leaf chain; each hop R-latches the next leaf and
/// re-validates the pool's free epoch (sampled when the link was read). If
/// an index page was freed in between the iterator re-descends from the
/// root past the last key it returned — correct, merely one extra descent.
///
/// The scanned counter implements the paper's "number of elements scanned"
/// metric (§6.1). Leaf read-ahead (EnablePrefetch) survives re-seeks.
class XrIterator {
 public:
  XrIterator() = default;
  XrIterator(const XrTree* tree, std::vector<Element> snap, PageId next,
             uint64_t epoch, Position reseek_key, bool reseek_exclusive);

  XrIterator(XrIterator&&) = default;
  XrIterator& operator=(XrIterator&&) = default;

  bool Valid() const { return pos_ < snap_.size(); }
  const Element& Get() const;

  Status Next();

  /// Re-seeks to the first element with start > `key` — the skip
  /// primitive of Algorithm 6 (line 19). When that element lies in the
  /// current snapshot (its first start <= key < its last start) the seek
  /// binary-searches the snapshot and fetches nothing; otherwise it takes a
  /// fresh root-to-leaf probe. Either way the landing element is charged to
  /// scanned() once and the read-ahead depth is kept.
  Status SeekPastKey(Position key);

  /// Turns on leaf read-ahead: every time the cursor lands on a new leaf,
  /// the next `depth` sibling leaves (XrTree::LeafRunAfter) are submitted
  /// with BufferPool::PrefetchBatchAsync — or, at the last child of a
  /// parent, just the chain successor — so the cursor finds them resident
  /// or in flight instead of paying one blocking miss per page.
  /// 0 = off. Read-path only, like every const query.
  ///
  /// With `adaptive` set, `depth` is the starting depth: each full batch
  /// the cursor actually walks through doubles it (up to
  /// max(depth, kMaxAdaptivePrefetch)) and each short or mismatched run
  /// halves it (down to 2), so long scans reach a deep horizon without
  /// short stabs paying wasted reads.
  void EnablePrefetch(uint32_t depth, bool adaptive = false);

  /// Ceiling for the adaptive read-ahead ramp.
  static constexpr uint32_t kMaxAdaptivePrefetch = 64;

  uint64_t scanned() const { return scanned_; }
  uint32_t prefetch_depth() const { return prefetch_depth_; }

 private:
  friend class XrTree;

  /// Chases next_ to the first non-empty leaf, snapshotting it. Falls back
  /// to a Reseek past reseek_key_ when the free epoch moved under the
  /// lateral link.
  Status LandOnNextLeaf();

  /// Fresh descent to the first element with start > `key` (exclusive) or
  /// >= `key`, replacing this iterator's state in place but keeping its
  /// tree, its scanned total and its read-ahead state. Issues no
  /// read-ahead itself.
  Status Reseek(Position key, bool exclusive);

  /// Issues the read-ahead for the leaves following the current snapshot.
  void MaybePrefetch();

  const XrTree* tree_ = nullptr;
  std::vector<Element> snap_;
  size_t pos_ = 0;
  PageId next_ = kInvalidPageId;   ///< chain link read under the leaf latch
  uint64_t epoch_ = 0;             ///< free epoch when next_ was read
  Position reseek_key_ = 0;        ///< recovery point for a fresh descent
  bool reseek_exclusive_ = false;  ///< true once an element was returned
  uint64_t scanned_ = 0;
  uint32_t prefetch_depth_ = 0;
  uint32_t prefetch_cap_ = 0;       ///< adaptive ramp ceiling; 0 = fixed depth
};

}  // namespace xrtree

#endif  // XRTREE_XRTREE_XRTREE_ITERATOR_H_
