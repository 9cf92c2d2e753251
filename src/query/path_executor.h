#ifndef XRTREE_QUERY_PATH_EXECUTOR_H_
#define XRTREE_QUERY_PATH_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "query/path_query.h"
#include "storage/buffer_pool.h"
#include "xml/corpus.h"
#include "xrtree/xrtree.h"

namespace xrtree {

/// Per-query execution statistics, aggregated over all join steps.
struct PathStats {
  uint64_t joins = 0;
  /// Elements the join steps' cursors landed on (the first step's scan is
  /// not a join and is not counted).
  uint64_t elements_scanned = 0;
  uint64_t intermediate_results = 0;  ///< sum of step output sizes
};

/// The XR-tree over every element with `tag`, or null when no element has
/// that tag. An error is a failed read or build, not an absent tag.
using TagTreeLookup =
    std::function<Result<const XrTree*>(const std::string& tag)>;

/// Evaluates a linear path expression as a chain of structural semi-joins
/// over per-tag XR-trees — the paper's §7 direction ("query evaluation
/// strategies for complex XML queries, i.e. a combination of multiple
/// structural joins, over XML data on which proper XR-tree indexes have
/// been built").
///
/// The first step scans its tag's tree (a leading '/' keeps the level-0
/// elements). Each later step keeps the elements of its tag's tree that
/// have an ancestor ('//') or a parent ('/', §5.3) in the in-memory
/// context: one cursor walks the tag's tree beside a stack of open context
/// elements and skips (SeekPastKey, Algorithm 6 line 19) to the next
/// context start whenever the stack is empty. Each result element is
/// emitted once, in document order, and the evaluation itself allocates no
/// pages. An absent tag yields no matches.
Result<ElementList> EvaluatePath(const PathQuery& query,
                                 const TagTreeLookup& tree_for,
                                 PathStats* stats = nullptr);

/// EvaluatePath over a Corpus: each tag's element set is indexed with an
/// XR-tree on first use and cached across queries, so repeated queries
/// allocate no pages.
class PathExecutor {
 public:
  PathExecutor(BufferPool* pool, const Corpus* corpus)
      : pool_(pool), corpus_(corpus) {}

  /// Runs `query`; returns the matching elements of the final step in
  /// document order (distinct).
  Result<ElementList> Execute(const PathQuery& query,
                              PathStats* stats = nullptr);

  /// Convenience: parse + execute.
  Result<ElementList> Execute(std::string_view text,
                              PathStats* stats = nullptr);

 private:
  /// The cached XR-tree over all elements with `tag` (built on first use);
  /// null for a tag the corpus does not hold.
  Result<const XrTree*> TagIndex(const std::string& tag);

  BufferPool* pool_;
  const Corpus* corpus_;
  std::unordered_map<std::string, std::unique_ptr<XrTree>> tag_indexes_;
};

}  // namespace xrtree

#endif  // XRTREE_QUERY_PATH_EXECUTOR_H_
