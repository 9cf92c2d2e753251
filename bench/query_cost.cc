// Validates the §5 query-cost analysis:
//   Theorem 3 — FindDescendants in O(log_F N + R/B) I/Os,
//   Theorem 4 — FindAncestors  in O(log_F N + R)   I/Os,
// by measuring buffer-pool misses per query over cold pools while varying N
// and the output size R.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {
namespace {

/// Runs `fn` against a freshly-drained pool and returns the page misses it
/// incurred.
template <typename Fn>
uint64_t ColdMisses(BenchDb& db, Fn&& fn) {
  XR_CHECK_OK(db.pool()->FlushAll());
  // Evict everything by cycling the pool through scratch pages.
  for (size_t i = 0; i < db.pool()->pool_size(); ++i) {
    Page* p = db.pool()->NewPage().value();
    XR_CHECK_OK(db.pool()->UnpinPage(p->page_id(), false));
  }
  IoStats before = db.pool()->stats();
  fn();
  return (db.pool()->stats() - before).buffer_misses;
}

void DescendantCostSweep(const Dataset& ds) {
  BenchEnv env = GetBenchEnv();
  PrintHeader("Theorem 3: FindDescendants I/O vs output size R");
  std::printf("%10s %10s %12s %14s %14s\n", "N", "R", "misses",
              "R/B (pages)", "misses-R/B");
  BenchDb db(env.buffer_pages);
  XrTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(ds.ancestors));
  const double entries_per_page = static_cast<double>(tree.leaf_capacity());

  // Pick ancestors with a spread of region sizes.
  ElementList sorted_by_span = ds.ancestors;
  std::sort(sorted_by_span.begin(), sorted_by_span.end(),
            [](const Element& a, const Element& b) {
              return (a.end - a.start) < (b.end - b.start);
            });
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    size_t idx = std::min(sorted_by_span.size() - 1,
                          static_cast<size_t>(q * sorted_by_span.size()));
    Element a = sorted_by_span[idx];
    uint64_t r = 0;
    uint64_t misses = ColdMisses(db, [&] {
      r = tree.FindDescendants(a).value().size();
    });
    double rb = static_cast<double>(r) / entries_per_page;
    std::printf("%10zu %10llu %12llu %14.1f %14.1f\n", ds.ancestors.size(),
                (unsigned long long)r, (unsigned long long)misses, rb,
                misses - rb);
  }
  std::printf("expected: misses ~ log_F N + R/B (the last column stays "
              "flat and small)\n");
}

void AncestorCostSweep(const Dataset& ds) {
  BenchEnv env = GetBenchEnv();
  PrintHeader("Theorem 4: FindAncestors I/O vs result depth R");
  std::printf("%10s %8s %12s\n", "N", "R", "misses");
  BenchDb db(env.buffer_pages);
  XrTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(ds.ancestors));

  // Group query points by ancestor count and report average misses.
  Random rng(7);
  std::vector<std::pair<uint64_t, uint64_t>> by_r(64, {0, 0});  // sum, count
  for (int q = 0; q < 300; ++q) {
    Position sd =
        ds.ancestors[rng.Uniform(ds.ancestors.size())].start + 1;
    uint64_t r = 0;
    uint64_t misses = ColdMisses(db, [&] {
      r = tree.FindAncestors(sd).value().size();
    });
    if (r < by_r.size()) {
      by_r[r].first += misses;
      by_r[r].second += 1;
    }
  }
  for (size_t r = 0; r < by_r.size(); ++r) {
    if (by_r[r].second == 0) continue;
    std::printf("%10zu %8zu %12.1f\n", ds.ancestors.size(), r,
                static_cast<double>(by_r[r].first) / by_r[r].second);
  }
  std::printf("expected: misses ~ log_F N + R (worst-case optimal)\n");
}

void HeightSweep() {
  PrintHeader("log_F N term: misses of an empty-result probe vs N");
  std::printf("%10s %10s %12s\n", "N", "height", "misses");
  BenchEnv env = GetBenchEnv();
  const Dataset& ds = DepartmentDataset();
  for (uint64_t n = 2000; n <= ds.ancestors.size(); n *= 4) {
    ElementList elems(ds.ancestors.begin(), ds.ancestors.begin() + n);
    BenchDb db(env.buffer_pages);
    XrTreeOptions options;
    options.leaf_capacity = 32;  // force extra height at bench scale
    options.internal_capacity = 32;
    XrTree tree(db.pool(), kInvalidPageId, options);
    XR_CHECK_OK(tree.BulkLoad(elems));
    uint64_t misses = ColdMisses(db, [&] {
      tree.FindAncestors(elems.back().end + 5).value();
    });
    std::printf("%10llu %10u %12llu\n", (unsigned long long)n,
                tree.Height().value(), (unsigned long long)misses);
  }
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main() {
  using namespace xrtree::bench;
  DescendantCostSweep(DepartmentDataset());
  AncestorCostSweep(DepartmentDataset());
  HeightSweep();
  return 0;
}
