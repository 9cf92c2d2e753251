#ifndef XRTREE_JOIN_PARALLEL_JOIN_H_
#define XRTREE_JOIN_PARALLEL_JOIN_H_

#include <vector>

#include "common/result.h"
#include "join/join_types.h"
#include "xrtree/xrtree.h"

namespace xrtree {

/// Intra-query parallel XR-stack: splits the ancestor key space into
/// `options.num_threads` contiguous [lo, hi) ranges along the ancestor
/// XR-tree's own internal separator keys (XrTree::PartitionKeys) and runs
/// one independent XrStackJoinRange task per range over the shared
/// thread-safe BufferPool. The caller runs the first range itself; the
/// others go to a process-wide set of worker threads, started on first use
/// and kept for later calls (DESIGN.md §9), and the caller takes back any
/// range no worker has started yet.
///
/// Correctness argument (see DESIGN.md §10):
///  * a pair (a, d) is emitted by exactly one worker — the one whose range
///    contains a.start; an ancestor spanning a boundary stays with the
///    range of its start, whose worker extends its descendant scan past
///    the boundary until the ancestor's region closes;
///  * each worker's output is sorted by (d.start, a.start) — the emission
///    order of Algorithm 6 — so stitching the per-range vectors back
///    together with an overlap-aware merge reproduces the serial output
///    byte for byte. Ranges whose descendant windows do not overlap (the
///    common case: boundaries rarely sit under a deep spanning region)
///    concatenate without any element-wise merging.
///
/// Falls back to the serial XrStackJoin when num_threads <= 1, when the
/// ancestor tree is too shallow to offer separator keys, or when it offers
/// none. `options.prefetch_depth` applies to every worker's descendant
/// cursor. Read-path only, like every const query.
///
/// Failure handling: one failed range is non-fatal to the siblings'
/// promptness — the first failure sets a shared cancellation flag and
/// every other worker aborts at its next iteration. The surfaced error is
/// deterministic: the lowest range index with a real (non-cancellation)
/// error wins, regardless of thread scheduling. With
/// `options.degrade_to_serial`, a *retryable* first error is instead
/// recovered by rerunning the serial XrStackJoin (byte-identical output;
/// JoinStats::degraded_to_serial records the downgrade). A caller-supplied
/// `options.cancel` is honoured at entry and by the serial paths; while
/// parallel workers run they watch the internal sibling flag instead.
Result<JoinOutput> ParallelXrStackJoin(const XrTree& ancestors,
                                       const XrTree& descendants,
                                       const JoinOptions& options = {});

/// The [lo, hi) ranges ParallelXrStackJoin would use for `num_threads`
/// workers (exposed for tests and bench reporting). Always returns at
/// least one range; a single range [0, nil) means no parallel split is
/// possible.
Result<std::vector<std::pair<Position, Position>>> PlanJoinPartitions(
    const XrTree& ancestors, uint32_t num_threads);

}  // namespace xrtree

#endif  // XRTREE_JOIN_PARALLEL_JOIN_H_
