#include "join/bplus_join.h"

#include <type_traits>
#include <vector>

#include "join/bplus_sp_join.h"

namespace xrtree {

namespace {

/// Anc_Des_B+ over a B-tree or a B+sp tree. The two differ only in how
/// the ancestor side skips past a's own descendants.
template <typename Tree>
Result<JoinOutput> AncDesBPlus(const Tree& ancestors, const Tree& descendants,
                               const JoinOptions& options) {
  JoinOutput out;
  std::vector<Element> stack;

  auto emit = [&](const Element& anc, const Element& desc) {
    if (options.parent_child && anc.level + 1 != desc.level) return;
    ++out.stats.output_pairs;
    if (options.materialize) out.pairs.push_back({anc, desc});
  };

  // Every probe below is one root-to-leaf descent (Reseek), the probe the
  // paper charges Anc_Des_B+, even where the target lies in the snapshot.
  XR_ASSIGN_OR_RETURN(typename Tree::Cursor ita, ancestors.Begin());
  XR_ASSIGN_OR_RETURN(typename Tree::Cursor itd, descendants.Begin());

  while (itd.Valid() && (ita.Valid() || !stack.empty())) {
    const Element& d = itd.Get();
    while (!stack.empty() && stack.back().end < d.start) stack.pop_back();

    if (ita.Valid() && ita.Get().start < d.start) {
      Element a = ita.Get();
      if (d.start < a.end) {
        // `a` contains the current descendant: open it.
        stack.push_back(a);
        XR_RETURN_IF_ERROR(ita.Next());
      } else if constexpr (std::is_same_v<Tree, SpTree>) {
        // `a` closes before d, and so do its own descendants in the
        // ancestor list: the sibling pointer lands on the first element
        // past them with no root-to-leaf probe.
        XR_RETURN_IF_ERROR(ita.FollowSibling());
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

}  // namespace

Result<JoinOutput> BPlusJoin(const BTree& ancestors, const BTree& descendants,
                             const JoinOptions& options) {
  return AncDesBPlus(ancestors, descendants, options);
}

Result<JoinOutput> BPlusSpJoin(const SpTree& ancestors,
                               const SpTree& descendants,
                               const JoinOptions& options) {
  return AncDesBPlus(ancestors, descendants, options);
}

}  // namespace xrtree
