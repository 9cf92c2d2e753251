#include "join/xr_stack.h"

#include <algorithm>
#include <vector>

#include "xrtree/probe_cursor.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {

Result<JoinOutput> XrStackJoinRange(const XrTree& ancestors,
                                    const XrTree& descendants, Position lo,
                                    Position hi, const JoinOptions& options) {
  JoinOutput out;
  uint64_t search_scanned = 0;
  std::vector<Element> stack;

  // Emits (a, d) for every a on the stack, all of which contain d. A
  // count-only ancestor-descendant join needs just their number.
  const bool count_only = !options.materialize && !options.parent_child;
  auto emit_stack = [&](const Element& d) {
    if (count_only) {
      out.stats.output_pairs += stack.size();
      return;
    }
    for (const Element& anc : stack) {
      if (options.parent_child && anc.level + 1 != d.level) continue;
      ++out.stats.output_pairs;
      if (options.materialize) out.pairs.push_back({anc, d});
    }
  };

  // An ancestor belongs to this range iff lo <= start < hi. Starts never
  // equal kNilPosition, so hi == kNilPosition admits every ancestor.
  auto in_range = [&](Position start) { return start >= lo && start < hi; };

  // CurA is tracked as a position, not a cursor: each ancestor advance
  // (an in-leaf step or a FindAncestors probe, below) returns the start of
  // the first ancestor-set element past its point (Algorithm 6 line 12) as
  // a byproduct, so the ancestor side is never walked by an iterator. A
  // range worker lands on its first owned ancestor with one root-to-leaf
  // probe (LowerBound), never a leaf-chain walk from the leftmost page.
  Position cur_a = kNilPosition;
  {
    XR_ASSIGN_OR_RETURN(XrIterator it0,
                        lo == 0 ? ancestors.Begin() : ancestors.LowerBound(lo));
    if (it0.Valid()) cur_a = it0.Get().start;
    search_scanned += it0.scanned();
  }
  if (cur_a != kNilPosition && !in_range(cur_a)) {
    // No ancestor starts inside [lo, hi): the range joins nothing.
    out.stats.elements_scanned = search_scanned;
    return out;
  }
  // Descendants of owned ancestors all start past lo; land there directly.
  XR_ASSIGN_OR_RETURN(
      XrIterator itd,
      lo == 0 ? descendants.Begin() : descendants.UpperBound(lo));
  if (options.prefetch_depth > 0) {
    itd.EnablePrefetch(options.adaptive_prefetch
                           ? std::min<uint32_t>(options.prefetch_depth, 4)
                           : options.prefetch_depth,
                       options.adaptive_prefetch);
  }

  // Ancestor-side read-ahead. The FindAncestors probes walk the ancestor
  // leaves strictly left to right, so whenever the probe frontier crosses
  // into the last leaf covered by the previous read-ahead run, one
  // root-to-leaf descent (LeafRunAfter) yields the next run of sibling
  // leaf ids as a single vectorized submission, plus the separator key at
  // which that run's last leaf begins — the next re-arm point. Detached
  // async submission means the join thread never waits on these reads;
  // the probes' S2 scans find the pages resident (or in flight).
  // pf_arm_at == 0 arms on the first probe.
  Position pf_arm_at = 0;
  // Ancestor-side adaptive depth (options.adaptive_prefetch): runs start
  // shallow and double on every full run up to max(prefetch_depth, 64),
  // halving when a run comes back short (clamped at `hi`, or the last
  // child of its parent) — deep horizons for long parent sweeps, no wasted
  // fetches at range boundaries.
  uint32_t pf_depth = options.adaptive_prefetch
                          ? std::min<uint32_t>(options.prefetch_depth, 4)
                          : options.prefetch_depth;
  const uint32_t pf_cap =
      options.adaptive_prefetch
          ? std::max<uint32_t>(options.prefetch_depth,
                               XrIterator::kMaxAdaptivePrefetch)
          : options.prefetch_depth;

  // Floor for FindAncestors probes (§5.2 variation): every ancestor of the
  // current descendant with start below max(stack top, previous probe
  // position) is provably already on the stack — it was an ancestor of the
  // previously probed descendant too, and pops only remove closed regions.
  // The floor backs off by one so that, on a self-join, the element
  // starting exactly at the previous probe position (not an ancestor of
  // its own start, but possibly of later ones) is still examined. Starting
  // the floor at `lo` additionally keeps probes from re-collecting
  // ancestors owned by ranges to the left. A step (below) leaves the stack
  // exactly as a probe at the same point would, so it moves the floor too.
  Position last_probe = lo;

  // The probes ascend (the floor above), so a finger cursor answers most of
  // them from its copy of the previous probe's root-to-leaf path. Where its
  // leaf copy covers the next point, the cursor steps instead of probing.
  XrProbeCursor probe(&ancestors);
  ElementList ad;

  // Cancellation is cooperative: one relaxed load per flag per loop
  // iteration. A cancelled worker's partial output is discarded by the
  // caller, so the flags need no ordering beyond the thread join that
  // follows them. Both flags abort: `cancel` (the caller's, or the
  // parallel join's sibling-failure flag) and `external_cancel` (the
  // caller's original flag, relocated by ParallelXrStackJoin).
  auto cancelled = [&] {
    return (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) ||
           (options.external_cancel != nullptr &&
            options.external_cancel->load(std::memory_order_relaxed));
  };

  // Main loop (Algorithm 6 lines 4-22).
  while (cur_a != kNilPosition && itd.Valid()) {
    if (cancelled()) return Status::Aborted(kJoinCancelledMessage);
    const Element d = itd.Get();
    // Lines 5-7: pop stack elements that are not ancestors of CurD; the
    // stack is a nested chain, so closed regions form a suffix.
    while (!stack.empty() && stack.back().end < d.start) stack.pop_back();

    // `<=` rather than the paper's `<`: with disjoint element sets the
    // starts never collide, but on a self-join CurA can sit exactly on
    // CurD; routing equality through the FindAncestors branch keeps the
    // stack complete (an element is never its own ancestor).
    if (cur_a <= d.start) {
      // Lines 9-13: add CurD's ancestors beyond the stack top and pick up
      // the next CurA. Step through the cursor's leaf copy when it covers
      // CurD (stepping costs one comparison per ancestor passed); probe the
      // XR-tree otherwise, skipping everything between.
      Position stack_floor = stack.empty() ? 0 : stack.back().start;
      Position probe_floor = last_probe > 0 ? last_probe - 1 : 0;
      // The ablation probes with no floor (paper's plain Algorithm 4) and
      // deduplicates against the stack afterwards (line 10's
      // "if aj not in stack"); the production path pushes the floor into
      // the probe so already-seen leaf ranges are never re-scanned.
      Position min_start = options.disable_probe_floor
                               ? 0
                               : std::max(stack_floor, probe_floor);
      if (options.prefetch_depth > 0 && cur_a != kNilPosition &&
          cur_a >= pf_arm_at) {
        Position resume = kNilPosition;
        // Clamp the run to this worker's range: leaves whose first key is
        // past `hi` hold no ancestors this range owns, so fetching them is
        // pure waste (it shows up as prefetch_wasted in the pool stats).
        auto run = ancestors.LeafRunAfter(cur_a, pf_depth, &resume, hi);
        if (run.ok() && !run->empty()) {
          bool full = run->size() == pf_depth;
          ancestors.pool()->PrefetchBatchAsync(*run);
          if (options.adaptive_prefetch) {
            pf_depth = full ? std::min(pf_depth * 2, pf_cap)
                            : std::max<uint32_t>(2, pf_depth / 2);
          }
        } else if (options.adaptive_prefetch) {
          pf_depth = std::max<uint32_t>(2, pf_depth / 2);
        }
        // When the run is empty (last child of its parent) or the resume
        // key does not advance, back off to re-arming on the next probe
        // past cur_a rather than every probe.
        pf_arm_at =
            (resume != kNilPosition && resume > cur_a) ? resume : cur_a + 1;
      }
      // The ablation's floor of 0 never steps, so it stays an independent
      // all-probe cross-check of the step.
      Position next_a = kNilPosition;
      XR_RETURN_IF_ERROR(
          probe.Advance(d.start, min_start, &ad, &search_scanned, &next_a));
      last_probe = d.start;
      cur_a = next_a;
      if (cur_a != kNilPosition && !in_range(cur_a)) cur_a = kNilPosition;
      for (const Element& a : ad) {
        // Ancestors outside [lo, hi) belong to (and are emitted by) the
        // ranges owning their starts.
        if (a.start > stack_floor && in_range(a.start)) stack.push_back(a);
      }
      emit_stack(d);
      XR_RETURN_IF_ERROR(itd.Next());
    } else {
      if (!stack.empty()) {
        // Lines 15-17: in-stack ancestors may join descendants before
        // CurA; advance the descendant cursor one step.
        emit_stack(d);
        XR_RETURN_IF_ERROR(itd.Next());
      } else {
        // Line 19: no open ancestor — skip descendants up to CurA.
        XR_RETURN_IF_ERROR(itd.SeekPastKey(cur_a));
      }
    }
  }

  // Epilogue: the ancestor list may be exhausted while the stack still
  // holds regions covering later descendants (in a range worker this is
  // also where a boundary-spanning ancestor drains the descendants beyond
  // `hi` up to its end).
  while (itd.Valid() && !stack.empty()) {
    if (cancelled()) return Status::Aborted(kJoinCancelledMessage);
    const Element d = itd.Get();
    while (!stack.empty() && stack.back().end < d.start) stack.pop_back();
    emit_stack(d);
    XR_RETURN_IF_ERROR(itd.Next());
  }

  out.stats.elements_scanned = itd.scanned() + search_scanned;
  out.stats.probe_refills = probe.refills();
  out.stats.probe_fallbacks = probe.fallbacks();
  out.stats.probe_steps = probe.steps();
  return out;
}

Result<JoinOutput> XrStackJoin(const XrTree& ancestors,
                               const XrTree& descendants,
                               const JoinOptions& options) {
  return XrStackJoinRange(ancestors, descendants, 0, kNilPosition, options);
}

}  // namespace xrtree
