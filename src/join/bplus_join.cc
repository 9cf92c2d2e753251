#include "join/bplus_join.h"

#include <vector>

namespace xrtree {

Result<JoinOutput> BPlusJoin(const BTree& ancestors, const BTree& descendants,
                             const JoinOptions& options) {
  JoinOutput out;
  std::vector<Element> stack;

  auto emit = [&](const Element& anc, const Element& desc) {
    if (options.parent_child && anc.level + 1 != desc.level) return;
    ++out.stats.output_pairs;
    if (options.materialize) out.pairs.push_back({anc, desc});
  };

  // Every skip below is one root-to-leaf descent (Reseek), the probe the
  // paper charges Anc_Des_B+, even where the target lies in the snapshot.
  XR_ASSIGN_OR_RETURN(BTree::Cursor ita, ancestors.Begin());
  XR_ASSIGN_OR_RETURN(BTree::Cursor itd, descendants.Begin());

  while (itd.Valid() && (ita.Valid() || !stack.empty())) {
    const Element& d = itd.Get();
    while (!stack.empty() && stack.back().end < d.start) stack.pop_back();

    if (ita.Valid() && ita.Get().start < d.start) {
      Element a = ita.Get();
      if (d.start < a.end) {
        // `a` contains the current descendant: open it.
        stack.push_back(a);
        XR_RETURN_IF_ERROR(ita.Next());
      } else {
        // `a` closes before d: none of a's own descendants in the ancestor
        // list can contain d (or anything after it) either — skip them all
        // with a range probe to start > a.end.
        XR_RETURN_IF_ERROR(ita.Reseek(a.end, /*exclusive=*/true));
      }
    } else {
      if (!stack.empty()) {
        for (const Element& anc : stack) emit(anc, d);
        XR_RETURN_IF_ERROR(itd.Next());
      } else if (ita.Valid()) {
        // No open ancestor and the next ancestor starts after d: every
        // descendant before it is unmatched — skip them with a range probe.
        XR_RETURN_IF_ERROR(itd.Reseek(ita.Get().start, /*exclusive=*/true));
      } else {
        break;  // ancestors exhausted, stack empty: no more matches
      }
    }
  }
  out.stats.elements_scanned = ita.scanned() + itd.scanned();
  return out;
}

}  // namespace xrtree
