// Ablations for the three XR-tree design choices DESIGN.md calls out:
//
//  A. Split-key selection (§3.2): the paper chooses a leaf split key that
//     stabs as few elements as possible (first_right - 1 when it still
//     separates); the naive choice is the right leaf's first key.
//     Measured: stab entries / pages after incremental build.
//
//  B. ps-directory pages (Fig. 4): without them, locating a PSL inside a
//     multi-page stab chain scans from the chain head.
//     Measured: page misses per FindAncestors probe on deep data.
//
//  C. The §5.2 XR-stack probe floor ("return ancestors after the stack
//     top"): without it every probe re-scans its landing-leaf prefix.
//     Measured: elements scanned by the join, its pairs and wall-clock.
//     Exits 1 when the two variants disagree on the pair count.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/random.h"
#include "join/xr_stack.h"
#include "xml/generator.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {
namespace {

void SplitKeyAblation() {
  PrintHeader("A. split-key choice (§3.2): stab volume after incremental "
              "inserts");
  std::printf("%-24s %12s %12s %12s\n", "variant", "stab entries",
              "stab pages", "entries/elem");
  const Dataset& ds = DepartmentDataset();
  size_t n = std::min<size_t>(ds.ancestors.size(), 60000);
  ElementList elems(ds.ancestors.begin(), ds.ancestors.begin() + n);
  for (bool naive : {false, true}) {
    BenchDb db(4096);
    XrTreeOptions options;
    options.naive_split_key = naive;
    XrTree tree(db.pool(), kInvalidPageId, options);
    for (const Element& e : elems) XR_CHECK_OK(tree.Insert(e));
    auto stats = tree.ComputeStabStats().value();
    std::printf("%-24s %12llu %12llu %12.4f\n",
                naive ? "naive (first_right)" : "paper (first_right-1)",
                (unsigned long long)stats.stab_entries,
                (unsigned long long)stats.stab_pages,
                static_cast<double>(stats.stab_entries) / elems.size());
  }
}

void PsDirectoryAblation() {
  PrintHeader("B. ps-directory (Fig. 4): page misses per FindAncestors on "
              "deeply nested data");
  std::printf("%-12s %-18s %14s %14s %12s\n", "nesting", "variant",
              "misses/probe", "dir pages", "max chain");
  for (uint32_t nesting : {400u, 2500u}) {
  // Deep chains + tiny fanout force multi-page stab chains; the paper
  // motivates the directory with "extreme cases" where one chain spans
  // "tens of pages" — the 2500-deep row is that regime.
  Document doc = Generator::GenerateNested(nesting, /*chains=*/2,
                                           /*fanout=*/0);
  doc.EncodeRegions(1);
  ElementList elems = doc.ElementsWithTag("nest");
  for (bool disable : {false, true}) {
    BenchDb db(64);
    XrTreeOptions options;
    options.leaf_capacity = 8;
    options.internal_capacity = 8;
    options.disable_ps_directory = disable;
    XrTree tree(db.pool(), kInvalidPageId, options);
    XR_CHECK_OK(tree.BulkLoad(elems));
    auto stats = tree.ComputeStabStats().value();
    Random rng(3);
    const uint64_t probes = 100;
    uint64_t misses = 0;
    for (uint64_t q = 0; q < probes; ++q) {
      // Cold probe: a fresh pool per query so every touched page is a
      // real I/O (a warm pool hides the chain scan entirely).
      db.SwapPool(64);
      XrTree reopened(db.pool(), tree.root(), options);
      IoStats before = db.pool()->stats();
      Position sd = elems[rng.Uniform(elems.size())].start + 1;
      reopened.FindAncestors(sd).value();
      misses += (db.pool()->stats() - before).buffer_misses;
    }
    std::printf("%-12u %-18s %14.2f %14llu %12u\n", nesting,
                disable ? "no directory" : "with directory",
                static_cast<double>(misses) / probes,
                (unsigned long long)stats.ps_dir_pages,
                stats.max_stab_pages_per_node);
  }
  }
}

// Returns false when the two variants disagree on the pair count. The
// plain variant probes with min_start = 0, so no key walk or leaf scan is
// pruned by the floor: it cross-checks the production path's answer.
bool ProbeFloorAblation() {
  PrintHeader("C. XR-stack probe floor (§5.2): elements scanned by the "
              "join");
  std::printf("%-24s %14s %14s %10s\n", "variant", "scanned", "pairs",
              "ms");
  const Dataset& ds = DepartmentDataset();
  DerivedWorkload w =
      MakeAncestorSelectivity(ds.ancestors, ds.descendants, 0.90, 0.99);
  BenchDb db(8192);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  XR_CHECK_OK(a_set.Build(w.ancestors));
  XR_CHECK_OK(d_set.Build(w.descendants));
  uint64_t pairs[2] = {0, 0};
  for (bool disable : {false, true}) {
    JoinOptions options;
    options.materialize = false;
    options.disable_probe_floor = disable;
    auto t0 = std::chrono::steady_clock::now();
    auto out = XrStackJoin(a_set.xrtree(), d_set.xrtree(), options).value();
    auto t1 = std::chrono::steady_clock::now();
    pairs[disable] = out.stats.output_pairs;
    std::printf("%-24s %14llu %14llu %10.2f\n",
                disable ? "plain Algorithm 4" : "stack variation",
                (unsigned long long)out.stats.elements_scanned,
                (unsigned long long)out.stats.output_pairs,
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  if (pairs[0] != pairs[1]) {
    std::fprintf(stderr,
                 "probe floor changed the answer: %llu vs %llu pairs\n",
                 (unsigned long long)pairs[0], (unsigned long long)pairs[1]);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main() {
  xrtree::bench::SplitKeyAblation();
  xrtree::bench::PsDirectoryAblation();
  return xrtree::bench::ProbeFloorAblation() ? 0 : 1;
}
