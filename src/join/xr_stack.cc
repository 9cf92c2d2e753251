#include "join/xr_stack.h"

#include <algorithm>
#include <span>
#include <vector>

#include "xrtree/probe_cursor.h"

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
    XR_ASSIGN_OR_RETURN(XrTree::Cursor it0,
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
      XrTree::Cursor itd,
      lo == 0 ? descendants.Begin() : descendants.UpperBound(lo));
  if (options.prefetch_depth > 0) {
    itd.EnablePrefetch(options.prefetch_depth, options.adaptive_prefetch);
  }

  // Ancestor-side read-ahead. The ancestor advances walk the ancestor
  // leaves strictly left to right, so whenever CurA crosses into the last
  // leaf covered by the previous read-ahead run, one root-to-leaf descent
  // (LeafRunAfter) yields the next run of sibling leaf ids as a single
  // vectorized submission, plus the separator key at which that run's
  // last leaf begins — the next re-arm point. An empty run (CurA's leaf is
  // the last child of its parent, or the `hi` clamp cut it) re-arms at the
  // upper bound of CurA's leaf, where the next run can start; at or past
  // `hi` it never re-arms. Detached async submission means the join thread
  // never waits on these reads; the probes find the pages resident (or in
  // flight). pf_arm_at == 0 arms on the first advance.
  Position pf_arm_at = 0;
  // Ancestor-side depth: the same ramp as the descendant cursor's, so with
  // options.adaptive_prefetch long parent sweeps reach deep horizons and
  // runs cut short at `hi` or a parent's last child pull back.
  ReadAheadRamp pf_ramp(options.prefetch_depth, options.adaptive_prefetch);
  // Called before every ancestor advance, probe or step, with CurA.
  const bool prefetching = options.prefetch_depth > 0;
  auto read_ahead = [&](Position cur_a) {
    if (cur_a < pf_arm_at) return;
    Position resume = kNilPosition;
    // Clamp the run to this worker's range: leaves whose first key is past
    // `hi` hold no ancestors this range owns, so fetching them is pure
    // waste (it shows up as prefetch_wasted in the pool stats).
    auto run = ancestors.LeafRunAfter(cur_a, pf_ramp.depth(), &resume, hi);
    const size_t got = run.ok() ? run->size() : 0;
    if (got > 0) ancestors.pool()->PrefetchBatchAsync(*run);
    pf_ramp.Record(got == pf_ramp.depth());
    // A failed descent retries at the next advance past CurA.
    if (!run.ok()) {
      pf_arm_at = cur_a + 1;
    } else {
      pf_arm_at = resume < hi ? resume : kNilPosition;
    }
  };

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
  // leaf copy covers the next point, the run loop steps instead of probing.
  XrProbeCursor probe(&ancestors);
  ElementList ad;
  uint64_t steps = 0;

  // Run loop: Stack-Tree-Desc over two arrays — the descendant snapshot
  // and the probe cursor's ancestor leaf copy — for as long as the copy
  // answers every ancestor advance. Takes a prefix of the descendant
  // snapshot, doing per descendant what the probe path below does (pop,
  // advance CurA if it lags, push, emit), and returns how many it took.
  // It stops at the snapshot's end, at a descendant that needs a skip
  // (empty stack) or an advance it cannot step, and after the advance that
  // moves CurA out of the range.
  //
  // A step to sd stands in for the probe at sd. It needs the cursor's
  // finger at the previous advance's point p (the last probe left it
  // there, or a step did), the production floor, sd < leaf_hi and a
  // current copy. Every stack element starts before p, so that probe's
  // floor would be p - 1, and every element with p <= start < sd lies in
  // the copy (leaf_lo <= p <= sd < leaf_hi). The step passes them, one
  // scanned each, and pushes the ones that strictly contain sd (flags
  // cleared) — all start past the stack top and at or past lo, so only
  // `hi` can exclude one. The next CurA is the first start >= sd, or the
  // copy's tail when the leaf ends first. The tree's write sequence is
  // re-checked before every step: a write mid-run ends the run, and the
  // next advance probes.
  auto run_loop = [&]() -> size_t {
    const std::span<const Element> rest = itd.Remaining();
    const Element* leaf = probe.leaf().data();
    const uint32_t n = static_cast<uint32_t>(probe.leaf().size());
    const Position leaf_hi = probe.leaf_hi();
    // The loop's state lives in locals and is written back once, at exit.
    uint32_t i = probe.finger();
    Position point = probe.point();
    Position a = cur_a;
    Position last = last_probe;
    uint64_t passed = 0;
    uint64_t pairs = 0;  // count-only emission
    uint64_t stepped = 0;
    // Once true it stays true: a step leaves point == last == sd > 1.
    const bool steppable =
        !options.disable_probe_floor && last > 1 && point == last;
    size_t j = 0;
    for (; j < rest.size(); ++j) {
      const Element& d = rest[j];
      // Lines 5-7: pop stack elements that are not ancestors of CurD; the
      // stack is a nested chain, so closed regions form a suffix.
      while (!stack.empty() && stack.back().end < d.start) stack.pop_back();
      // `<=` rather than the paper's `<`: with disjoint element sets the
      // starts never collide, but on a self-join CurA can sit exactly on
      // CurD; routing equality through the advance keeps the stack
      // complete (an element is never its own ancestor).
      if (a > d.start) {
        // Line 19 (outside): no open ancestor, skip descendants to CurA.
        if (stack.empty()) break;
        // Lines 15-17: in-stack ancestors join descendants before CurA.
      } else {
        const Position sd = d.start;
        if (!steppable || sd < point || sd >= leaf_hi || !probe.current()) {
          break;
        }
        if (prefetching) read_ahead(a);
        const uint32_t from = i;
        for (; i < n && leaf[i].start < sd; ++i) {
          // Strict containment, as the probe's: the join keeps an element
          // whose end equals the next descendant's start, so pushing one
          // that merely touches sd would emit a pair the probe never does.
          if (sd < leaf[i].end && leaf[i].start < hi) {
            stack.push_back(leaf[i]);
            stack.back().flags = 0;
          }
        }
        passed += i - from;
        ++stepped;
        point = last = sd;
        a = i < n ? leaf[i].start : probe.tail();
        if (a >= hi) a = kNilPosition;
      }
      if (count_only) {
        pairs += stack.size();
      } else {
        emit_stack(d);
      }
      if (a == kNilPosition) {
        ++j;
        break;
      }
    }
    probe.SetFinger(i, point);
    cur_a = a;
    last_probe = last;
    search_scanned += passed;
    out.stats.output_pairs += pairs;
    steps += stepped;
    return j;
  };

  // Cancellation is cooperative: one relaxed load per flag per loop
  // iteration (one per run of the run loop, at most one leaf). A cancelled
  // worker's partial output is discarded by the caller, so the flags need
  // no ordering beyond the wait that follows them. Both flags abort:
  // `cancel` (the caller's, or the parallel join's sibling-failure flag)
  // and `external_cancel` (the caller's original flag, relocated by
  // ParallelXrStackJoin).
  auto cancelled = [&] {
    return (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) ||
           (options.external_cancel != nullptr &&
            options.external_cancel->load(std::memory_order_relaxed));
  };

  // Main loop (Algorithm 6 lines 4-22).
  while (cur_a != kNilPosition && itd.Valid()) {
    if (cancelled()) return Status::Aborted(kJoinCancelledMessage);
    if (size_t taken = run_loop(); taken > 0) {
      XR_RETURN_IF_ERROR(itd.Forward(taken));
      continue;
    }
    // The run loop stopped at CurD (and popped for it): CurA lags and the
    // leaf copy cannot answer, or the stack is empty and CurA leads.
    const Element d = itd.Get();
    if (cur_a <= d.start) {
      // Lines 9-13: add CurD's ancestors beyond the stack top and pick up
      // the next CurA, probing the XR-tree and skipping everything between.
      const Position stack_floor = stack.empty() ? 0 : stack.back().start;
      // The ablation probes with no floor (paper's plain Algorithm 4) and
      // deduplicates against the stack afterwards (line 10's "if aj not in
      // stack"); the production path pushes the floor into the probe so
      // already-seen leaf ranges are never re-scanned. The ablation never
      // steps either, so it stays an all-probe cross-check of the run loop.
      const Position min_start =
          options.disable_probe_floor
              ? 0
              : std::max(stack_floor, last_probe > 0 ? last_probe - 1 : 0);
      if (prefetching) read_ahead(cur_a);
      Position next_a = kNilPosition;
      XR_RETURN_IF_ERROR(probe.FindAncestorsAbove(d.start, min_start, &ad,
                                                  &search_scanned, &next_a));
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
      // Line 19: no open ancestor — skip descendants up to CurA.
      XR_RETURN_IF_ERROR(itd.SeekPastKey(cur_a));
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
  out.stats.probe_steps = steps;
  return out;
}

Result<JoinOutput> XrStackJoin(const XrTree& ancestors,
                               const XrTree& descendants,
                               const JoinOptions& options) {
  return XrStackJoinRange(ancestors, descendants, 0, kNilPosition, options);
}

}  // namespace xrtree
