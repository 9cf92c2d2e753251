#include "query/path_executor.h"

#include <vector>

namespace xrtree {

namespace {

/// The first step: every element of `tree`, or its level-0 elements only.
Result<ElementList> ScanTree(const XrTree& tree, bool roots_only) {
  ElementList out;
  XR_ASSIGN_OR_RETURN(XrTree::Cursor it, tree.Begin());
  while (it.Valid()) {
    if (!roots_only || it.Get().level == 0) out.push_back(it.Get());
    XR_RETURN_IF_ERROR(it.Next());
  }
  return out;
}

/// A later step: the elements of `tree` with an ancestor ('//') or parent
/// ('/') in `context` (non-empty, sorted, strictly nested), in document
/// order. `open` is a stack of context elements in start order: each is
/// pushed once the cursor's element d starts past it, and popped while it
/// is on top and does not contain d. One that contains d contains every
/// element between its start and d too, so it is never popped before d:
/// after the pops the top, if any, is d's innermost context ancestor, and
/// d's parent is in the context only if it is that top.
Result<ElementList> SemiJoin(const ElementList& context, const XrTree& tree,
                             Axis axis, uint64_t* scanned) {
  ElementList out;
  std::vector<Element> open;
  size_t next = 0;  // the first context element not yet pushed
  XrTree::Cursor it(&tree);
  XR_RETURN_IF_ERROR(it.SeekPastKey(context[0].start));
  while (it.Valid()) {
    const Element& d = it.Get();
    for (; next < context.size() && context[next].start < d.start; ++next) {
      open.push_back(context[next]);
    }
    while (!open.empty() && !open.back().Contains(d)) open.pop_back();
    if (open.empty()) {
      // No context element is open: nothing before the next one's start
      // can match (Algorithm 6 line 19).
      if (next == context.size()) break;
      XR_RETURN_IF_ERROR(it.SeekPastKey(context[next].start));
      continue;
    }
    if (axis == Axis::kDescendant || open.back().IsParentOf(d)) {
      out.push_back(d);
    }
    XR_RETURN_IF_ERROR(it.Next());
  }
  *scanned += it.scanned();
  return out;
}

}  // namespace

Result<ElementList> EvaluatePath(const PathQuery& query,
                                 const TagTreeLookup& tree_for,
                                 PathStats* stats) {
  PathStats unused;
  PathStats& s = stats != nullptr ? *stats : unused;
  ElementList context;
  for (size_t i = 0; i < query.steps().size(); ++i) {
    const PathStep& step = query.steps()[i];
    XR_ASSIGN_OR_RETURN(const XrTree* tree, tree_for(step.tag));
    if (tree == nullptr) return ElementList{};
    if (i == 0) {
      XR_ASSIGN_OR_RETURN(context, ScanTree(*tree, step.axis == Axis::kChild));
    } else {
      ++s.joins;
      XR_ASSIGN_OR_RETURN(context, SemiJoin(context, *tree, step.axis,
                                            &s.elements_scanned));
    }
    s.intermediate_results += context.size();
    if (context.empty()) break;
  }
  return context;
}

Result<const XrTree*> PathExecutor::TagIndex(const std::string& tag) {
  auto it = tag_indexes_.find(tag);
  if (it != tag_indexes_.end()) return it->second.get();
  ElementList elements = corpus_->ElementsWithTag(tag);
  std::unique_ptr<XrTree> tree;
  if (!elements.empty()) {
    tree = std::make_unique<XrTree>(pool_);
    XR_RETURN_IF_ERROR(tree->BulkLoad(elements));
  }
  return tag_indexes_.emplace(tag, std::move(tree)).first->second.get();
}

Result<ElementList> PathExecutor::Execute(const PathQuery& query,
                                          PathStats* stats) {
  return EvaluatePath(
      query, [this](const std::string& tag) { return TagIndex(tag); }, stats);
}

Result<ElementList> PathExecutor::Execute(std::string_view text,
                                          PathStats* stats) {
  XR_ASSIGN_OR_RETURN(PathQuery query, PathQuery::Parse(text));
  return Execute(query, stats);
}

}  // namespace xrtree
