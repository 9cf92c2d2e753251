#ifndef XRTREE_XRTREE_ANCESTOR_PROBE_H_
#define XRTREE_XRTREE_ANCESTOR_PROBE_H_

// The steps of one FindAncestors probe (Algorithms 4-5 with the §5.2 stack
// floor), written over in-memory spans so that the one-shot latch-coupled
// XrTree::FindAncestorsAbove (spans point into latched pages) and
// XrProbeCursor (spans point into its copies of the path) run the same
// code. Internal to src/xrtree.

#include <algorithm>
#include <cstdint>

#include "btree/bplus_skeleton.h"
#include "common/status.h"
#include "xml/element.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

/// S11 / Algorithm 5 over one internal node: for c = i+1 down to the first
/// key above `min_start`, calls `search(key_c)` only when key c's (ps, pe)
/// summary proves that PSL(key_c) holds an element strictly containing
/// `sd`. Keys at or below the §5.2 floor are never visited: every entry of
/// PSL(key) has s <= key (it is stabbed by key), so such a PSL holds only
/// entries with s <= min_start, which the search would drop anyway. With
/// min_start = 0 the walk reaches slot 0, as in the paper. `search` returns
/// a Status; the first error stops the walk.
template <typename Search>
Status ForEachStabbedPsl(const XrInternalEntry* slots, uint32_t count,
                         Position sd, Position min_start, Search&& search) {
  if (count == 0) return Status::Ok();
  const uint32_t upper = std::min(ChildSlotIn(slots, count, sd), count - 1);
  const uint32_t lowest = ChildSlotIn(slots, upper + 1, min_start);
  for (uint32_t c = upper + 1; c-- > lowest;) {
    if (slots[c].ps != kNilPosition && slots[c].ps < sd &&
        sd < slots[c].pe) {
      XR_RETURN_IF_ERROR(search(slots[c].key));
    }
  }
  return Status::Ok();
}

/// S2 over one leaf's start-sorted elements: appends (flags cleared) every
/// element with min_start < start < sd that is not in a stab list and
/// strictly contains `sd`, counting each element examined in *scanned.
/// Returns the index of the first element with start >= sd — the XR-stack's
/// next CurA — or n when the leaf ends first.
///
/// `finger` is an optional start hint, typically the index an earlier
/// ascending probe over the same leaf returned. It is used only when the
/// element before it starts at or below min_start; the scan then steps
/// forward past the remaining elements at or below min_start instead of
/// binary-searching the whole leaf. Any other hint falls back to the
/// binary search, so the result never depends on it.
inline uint32_t ScanLeafForAncestors(const Element* slots, uint32_t n,
                                     Position sd, Position min_start,
                                     ElementList* out, uint64_t* scanned,
                                     uint32_t finger = 0) {
  // Elements at or below min_start are already on the caller's stack.
  uint32_t i = 0;
  if (min_start != 0) {
    if (finger > 0 && finger <= n && slots[finger - 1].start <= min_start) {
      i = finger;
      while (i < n && slots[i].start <= min_start) ++i;
    } else {
      i = static_cast<uint32_t>(
          std::lower_bound(slots, slots + n, min_start + 1,
                           [](const Element& e, Position k) {
                             return e.start < k;
                           }) -
          slots);
    }
  }
  for (; i < n && slots[i].start < sd; ++i) {
    ++*scanned;
    if (!InStabList(slots[i]) && sd < slots[i].end) {
      Element e = slots[i];
      e.flags = 0;
      out->push_back(e);
    }
  }
  return i;
}

}  // namespace xrtree

#endif  // XRTREE_XRTREE_ANCESTOR_PROBE_H_
