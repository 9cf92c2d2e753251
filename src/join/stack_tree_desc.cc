#include "join/stack_tree_desc.h"

#include <utility>
#include <vector>

namespace xrtree {

namespace {

/// Shared core over two forward streams. `AdvanceA`/`AdvanceD` move the
/// cursors; `GetA`/`GetD` read them; validity via has_a/has_d.
template <typename Stream>
JoinOutput RunStackTreeDesc(Stream& a, Stream& d, const JoinOptions& options) {
  JoinOutput out;
  std::vector<Element> stack;

  auto emit = [&](const Element& anc, const Element& desc) {
    if (options.parent_child && anc.level + 1 != desc.level) return;
    ++out.stats.output_pairs;
    if (options.materialize) out.pairs.push_back({anc, desc});
  };

  while (d.Valid() && (a.Valid() || !stack.empty())) {
    if (a.Valid() && a.Get().start < d.Get().start) {
      // Ancestor side first: close finished regions, open this one.
      while (!stack.empty() && stack.back().end < a.Get().start) {
        stack.pop_back();
      }
      stack.push_back(a.Get());
      a.Next();
    } else {
      // Descendant side: every surviving stack element contains it.
      while (!stack.empty() && stack.back().end < d.Get().start) {
        stack.pop_back();
      }
      for (const Element& anc : stack) emit(anc, d.Get());
      d.Next();
    }
  }
  // No early exit: the paper's no-index baseline "always sequentially
  // scans elements" — both lists are consumed to the end even after no
  // further matches are possible (this is what keeps its cost flat across
  // the §6.2-6.4 selectivity sweeps).
  while (a.Valid()) a.Next();
  while (d.Valid()) d.Next();
  return out;
}

/// Stream adapter over ElementFile::Scanner.
class FileStream {
 public:
  explicit FileStream(const ElementFile& file) : scanner_(file.NewScanner()) {}
  bool Valid() const { return scanner_.Valid(); }
  const Element& Get() const { return scanner_.Get(); }
  void Next() { scanner_.Next(); }
  uint64_t scanned() const { return scanner_.scanned(); }

 private:
  ElementFile::Scanner scanner_;
};

/// Stream adapter over an in-memory list. `scanned` counts the elements
/// actually landed on, matching ElementFile::Scanner semantics.
class VectorStream {
 public:
  explicit VectorStream(const ElementList& list) : list_(&list) {
    if (!list_->empty()) scanned_ = 1;
  }
  bool Valid() const { return i_ < list_->size(); }
  const Element& Get() const { return (*list_)[i_]; }
  void Next() {
    ++i_;
    if (i_ < list_->size()) ++scanned_;
  }
  uint64_t scanned() const { return scanned_; }

 private:
  const ElementList* list_;
  size_t i_ = 0;
  uint64_t scanned_ = 0;
};

/// Stream adapter over an XR-tree's leaf chain. A failed step ends the
/// stream and keeps the error for the caller.
class XrTreeStream {
 public:
  explicit XrTreeStream(XrTree::Cursor it) : it_(std::move(it)) {}
  bool Valid() const { return status_.ok() && it_.Valid(); }
  const Element& Get() const { return it_.Get(); }
  void Next() {
    Status st = it_.Next();
    if (!st.ok()) status_ = std::move(st);
  }
  uint64_t scanned() const { return it_.scanned(); }
  const Status& status() const { return status_; }

 private:
  XrTree::Cursor it_;
  Status status_;
};

}  // namespace

Result<JoinOutput> StackTreeDescJoin(const ElementFile& ancestors,
                                     const ElementFile& descendants,
                                     const JoinOptions& options) {
  FileStream a(ancestors);
  FileStream d(descendants);
  JoinOutput out = RunStackTreeDesc(a, d, options);
  out.stats.elements_scanned = a.scanned() + d.scanned();
  return out;
}

Result<JoinOutput> StackTreeDescJoin(const XrTree& ancestors,
                                     const XrTree& descendants,
                                     const JoinOptions& options) {
  XR_ASSIGN_OR_RETURN(XrTree::Cursor a_it, ancestors.Begin());
  XR_ASSIGN_OR_RETURN(XrTree::Cursor d_it, descendants.Begin());
  XrTreeStream a(std::move(a_it));
  XrTreeStream d(std::move(d_it));
  JoinOutput out = RunStackTreeDesc(a, d, options);
  XR_RETURN_IF_ERROR(a.status());
  XR_RETURN_IF_ERROR(d.status());
  out.stats.elements_scanned = a.scanned() + d.scanned();
  return out;
}

JoinOutput StackTreeDescJoinVectors(const ElementList& ancestors,
                                    const ElementList& descendants,
                                    const JoinOptions& options) {
  VectorStream a(ancestors);
  VectorStream d(descendants);
  JoinOutput out = RunStackTreeDesc(a, d, options);
  out.stats.elements_scanned = a.scanned() + d.scanned();
  return out;
}

}  // namespace xrtree
