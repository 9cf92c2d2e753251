#ifndef XRTREE_JOIN_JOIN_TYPES_H_
#define XRTREE_JOIN_JOIN_TYPES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "xml/element.h"

namespace xrtree {

/// One output tuple of a structural join: (ancestor, descendant) with
/// ancestor.start < descendant.start < ancestor.end (§2.2).
struct JoinPair {
  Element ancestor;
  Element descendant;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.ancestor == b.ancestor && a.descendant == b.descendant;
  }
  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    if (a.ancestor.start != b.ancestor.start) {
      return a.ancestor.start < b.ancestor.start;
    }
    return a.descendant.start < b.descendant.start;
  }
};

/// Execution knobs shared by all join algorithms.
struct JoinOptions {
  /// Keep the output pairs. Benchmark sweeps disable this and use
  /// JoinStats::output_pairs to avoid materializing multi-million-row
  /// results.
  bool materialize = true;

  /// Evaluate the parent-child relationship (§5.3): additionally require
  /// ancestor.level + 1 == descendant.level.
  bool parent_child = false;

  /// Ablation (XR-stack only): disable the §5.2 stack variation that
  /// floors FindAncestors probes at max(stack top, previous probe); every
  /// probe then re-scans its landing leaf prefix from the first element.
  /// It also turns off the in-leaf scan mode (every ancestor advance is a
  /// probe), so the ablation cross-checks the step as well as the floor.
  bool disable_probe_floor = false;

  /// Intra-query parallelism (ParallelXrStackJoin): number of worker
  /// threads to split the ancestor key space across. <= 1 runs the plain
  /// serial XR-stack. Workers share the caller's BufferPool, which is
  /// thread-safe.
  uint32_t num_threads = 1;

  /// Leaf read-ahead cap for XR-stack and its parallel variant (DESIGN.md
  /// §10): each range worker plans its leaves off the internal levels and
  /// keeps a window of them resident or in flight on each side
  /// (BufferPool::PrefetchBatchAsync), as wide as its share of the pool
  /// (two cursors per range of `num_threads`) and at most `prefetch_depth`
  /// leaves. 0 = off.
  uint32_t prefetch_depth = 0;

  /// Not read by any join: the read-ahead window is sized from the pool.
  /// Kept only because perfbench/xrbench.cc still sets it (ROADMAP
  /// "Benchmark housekeeping").
  bool adaptive_prefetch = false;

  /// Cooperative cancellation: when non-null and set, XrStackJoinRange
  /// aborts its scan promptly (checked once per loop iteration) with
  /// Status::Aborted(kJoinCancelledMessage). ParallelXrStackJoin installs
  /// its own flag here for its workers so one failed range cancels the
  /// siblings instead of letting them run to completion.
  const std::atomic<bool>* cancel = nullptr;

  /// Second cancellation flag, observed alongside `cancel`. Callers never
  /// set this directly: ParallelXrStackJoin moves the caller's `cancel`
  /// here before overwriting `cancel` with its internal sibling-failure
  /// flag, so workers keep observing the *caller's* request too (the old
  /// single-flag scheme silently dropped it). A join cancelled through
  /// this flag is the caller's doing and is never degraded to serial.
  const std::atomic<bool>* external_cancel = nullptr;

  /// ParallelXrStackJoin only: when a worker fails with a *retryable*
  /// error (Status::IsRetryable — transient I/O, pool pressure from N
  /// workers pinning at once), rerun the whole join with the serial
  /// XrStackJoin instead of surfacing the error. The fallback output is
  /// byte-identical to what the parallel merge would have produced.
  /// Non-retryable errors (Corruption, DataLoss) always surface.
  bool degrade_to_serial = false;
};

/// The Aborted message XrStackJoinRange returns when options.cancel fires.
/// ParallelXrStackJoin uses it to tell the range that *caused* a failure
/// (its own typed error) from ranges that merely got cancelled because of
/// it.
inline constexpr const char kJoinCancelledMessage[] = "join cancelled";

/// Measurements for one join execution: the paper's "number of elements
/// scanned" (Tables 2-3) and the XR-stack probe counters. Page I/O (Fig. 8)
/// is the pool's IoStats; callers snapshot and subtract it.
struct JoinStats {
  uint64_t elements_scanned = 0;
  uint64_t output_pairs = 0;
  /// ParallelXrStackJoin: ranges whose worker returned an error (including
  /// cancelled siblings) before any degradation/recovery.
  uint32_t failed_ranges = 0;
  /// True when ParallelXrStackJoin recovered a retryable worker failure by
  /// rerunning serially (JoinOptions::degrade_to_serial).
  bool degraded_to_serial = false;
  /// XR-stack ancestor probes (summed over parallel workers): root-to-leaf
  /// path re-copies made by the probe cursors, and probes answered by the
  /// one-shot latch-coupled path because a concurrent writer raced the
  /// re-copy (XrProbeCursor). A join over a static tree has no fallbacks.
  uint64_t probe_refills = 0;
  uint64_t probe_fallbacks = 0;
  /// XR-stack ancestor advances answered by an in-leaf step through the
  /// probe cursor's leaf copy (the join's run loop) instead of a probe.
  uint64_t probe_steps = 0;
};

struct JoinOutput {
  std::vector<JoinPair> pairs;
  JoinStats stats;
};

}  // namespace xrtree

#endif  // XRTREE_JOIN_JOIN_TYPES_H_
