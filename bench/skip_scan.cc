// Skip versus scan: when does XR-stack's skipping pay? Joins Department
// employee//name with a shrinking fraction of the ancestors kept (100%, 5%,
// 1%, 0.2%; descendants unchanged) and compares XR-stack, serial and at 4
// threads, with a plain Stack-Tree-Desc merge over the *same two XR-trees'*
// leaf iterators. The merge reads every leaf of both trees; XR-stack reads
// only what its probes and skips reach, so at high selectivity it can only
// tie the merge, and at low selectivity it should win by the skipped
// fraction.
//
// Two regimes per page format (fixed and compressed):
//   resident  latency 0, one warmed pool of kResidentPool frames that
//             holds both trees; each time is the median of kReps runs, the
//             three algorithms alternating (CPU cost only)
//   device    a cold pool of kDevicePool frames over a disk that sleeps
//             XR_SKIP_MISS_LATENCY_US per read (the paper's I/O model);
//             one cold run each. Skipped when the latency is 0.
//
// Usage: skip_scan [--json <path>] [--max-xr-merge-ratio R]
//   --max-xr-merge-ratio R
//             exit 2 if a resident row with every ancestor kept has serial
//             XR-stack slower than R x the merge
// Exits 1 if XR-stack and the merge disagree on a pair count.
//
// Environment:
//   XR_SKIP_MISS_LATENCY_US  device-regime blocking latency per disk read
//                            (default 5000; 0 skips the device regime)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "join/parallel_join.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"

namespace xrtree {
namespace bench {
namespace {

constexpr uint64_t kScale = 300000;         ///< generated Department elements
constexpr uint64_t kResidentPool = 16384;  ///< frames; holds both trees
constexpr uint64_t kReps = 7;              ///< resident runs per time
constexpr uint64_t kDevicePool = 256;      ///< frames in the device regime

/// A seeded subsample keeping about `fraction` of `list`; a subset of a
/// strictly nested list stays strictly nested.
ElementList Keep(const ElementList& list, double fraction) {
  if (fraction >= 1.0) return list;
  Random rng(7);
  const uint64_t cut = static_cast<uint64_t>(fraction * 1000000);
  ElementList out;
  for (const Element& e : list) {
    if (rng.Uniform(1000000) < cut) out.push_back(e);
  }
  return out;
}

/// One timed join: wall time, answer and pool traffic.
struct Run {
  double ms = 0;
  uint64_t pairs = 0;
  uint64_t scanned = 0;
  uint64_t fetches = 0;  ///< pool FetchPage calls (hits + misses)
  uint64_t misses = 0;
};

template <typename JoinFn>
Run TimeOne(BufferPool* pool, JoinFn&& join) {
  IoStats before = pool->stats();
  auto t0 = std::chrono::steady_clock::now();
  JoinOutput out = join().value();
  auto t1 = std::chrono::steady_clock::now();
  IoStats io = pool->stats() - before;
  Run r;
  r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.pairs = out.stats.output_pairs;
  r.scanned = out.stats.elements_scanned;
  r.fetches = io.buffer_hits + io.buffer_misses;
  r.misses = io.buffer_misses;
  return r;
}

/// The median-time run (the counters of a static join do not vary).
Run Median(std::vector<Run> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.ms < b.ms; });
  return runs[runs.size() / 2];
}

struct Row {
  std::string regime;
  std::string page_format;
  uint64_t pool_pages = 0;
  uint64_t miss_latency_us = 0;
  double kept = 0;
  uint64_t ancestors = 0;
  Run xr, xr4, merge;
};

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  double max_ratio = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--max-xr-merge-ratio") {
      max_ratio = std::strtod(argv[i + 1], nullptr);
    }
  }
  const std::string json_path = ParseJsonPathArg(argc, argv);
  const uint64_t latency_us = EnvU64("XR_SKIP_MISS_LATENCY_US", 5000);
  const double kept_fractions[] = {1.0, 0.05, 0.01, 0.002};

  PrintHeader("Skip vs scan: XR-stack against a leaf-scan merge");
  std::printf(
      "scale=%llu, resident pool=%llu pages x %llu reps, device pool=%llu "
      "pages at %llu us per read\n",
      (unsigned long long)kScale, (unsigned long long)kResidentPool,
      (unsigned long long)kReps, (unsigned long long)kDevicePool,
      (unsigned long long)latency_us);
  auto ds = MakeDepartmentDataset(kScale);
  XR_CHECK_OK(ds.status());

  std::printf("\n%-9s %-10s %6s %8s %9s %9s %9s %7s %9s %9s %8s %8s\n",
              "regime", "format", "kept", "anc", "xr_ms", "xr4_ms",
              "merge_ms", "xr/mrg", "xr_scan", "mrg_scan", "xr_fetch",
              "mrg_fetch");
  std::vector<Row> rows;
  bool pairs_ok = true;
  bool ratio_ok = true;
  for (bool compressed : {false, true}) {
    BenchDb db(kResidentPool);
    XrTreeOptions xopt;
    xopt.compressed_pages = compressed;
    PageId d_root;
    std::vector<PageId> a_roots;
    std::vector<uint64_t> a_sizes;
    {
      XrTree d_tree(db.pool(), kInvalidPageId, xopt);
      XR_CHECK_OK(d_tree.BulkLoad(ds->descendants));
      d_root = d_tree.root();
      for (double kept : kept_fractions) {
        ElementList anc = Keep(ds->ancestors, kept);
        XrTree a_tree(db.pool(), kInvalidPageId, xopt);
        XR_CHECK_OK(a_tree.BulkLoad(anc));
        a_roots.push_back(a_tree.root());
        a_sizes.push_back(anc.size());
      }
    }
    for (bool device : {false, true}) {
      if (device && latency_us == 0) continue;
      if (device) {
        DiskOptions latency;
        latency.simulated_latency_ns = latency_us * 1000;
        latency.blocking_latency = true;
        db.disk()->SetLatency(latency);
      }
      for (size_t k = 0; k < a_roots.size(); ++k) {
        Row row;
        row.regime = device ? "device" : "resident";
        row.page_format = compressed ? "compressed" : "fixed";
        row.pool_pages = device ? kDevicePool : kResidentPool;
        row.miss_latency_us = device ? latency_us : 0;
        row.kept = kept_fractions[k];
        row.ancestors = a_sizes[k];
        JoinOptions serial;
        serial.materialize = false;
        JoinOptions par = serial;
        par.num_threads = 4;
        auto xr = [&](const XrTree& a, const XrTree& d) {
          return XrStackJoin(a, d, serial);
        };
        auto xr4 = [&](const XrTree& a, const XrTree& d) {
          return ParallelXrStackJoin(a, d, par);
        };
        auto merge = [&](const XrTree& a, const XrTree& d) {
          return StackTreeDescJoin(a, d, serial);
        };
        if (device) {
          // One cold pool per algorithm.
          auto cold = [&](auto&& join) {
            db.SwapPool(row.pool_pages);
            XrTree a(db.pool(), a_roots[k]);
            XrTree d(db.pool(), d_root);
            return TimeOne(db.pool(), [&] { return join(a, d); });
          };
          row.xr = cold(xr);
          row.xr4 = cold(xr4);
          row.merge = cold(merge);
        } else {
          // One warm pool; the algorithms alternate rep by rep, so a noisy
          // stretch of the host hits all three alike.
          db.SwapPool(row.pool_pages);
          XrTree a(db.pool(), a_roots[k]);
          XrTree d(db.pool(), d_root);
          XR_CHECK_OK(xr(a, d).status());
          XR_CHECK_OK(xr4(a, d).status());
          XR_CHECK_OK(merge(a, d).status());
          std::vector<Run> xr_runs, xr4_runs, merge_runs;
          for (uint64_t i = 0; i < kReps; ++i) {
            xr_runs.push_back(TimeOne(db.pool(), [&] { return xr(a, d); }));
            xr4_runs.push_back(TimeOne(db.pool(), [&] { return xr4(a, d); }));
            merge_runs.push_back(
                TimeOne(db.pool(), [&] { return merge(a, d); }));
          }
          row.xr = Median(std::move(xr_runs));
          row.xr4 = Median(std::move(xr4_runs));
          row.merge = Median(std::move(merge_runs));
        }
        const bool match =
            row.xr.pairs == row.merge.pairs && row.xr4.pairs == row.merge.pairs;
        pairs_ok = pairs_ok && match;
        const double ratio = row.xr.ms / row.merge.ms;
        if (!device && row.kept == 1.0 && max_ratio > 0 && ratio > max_ratio) {
          ratio_ok = false;
        }
        std::printf(
            "%-9s %-10s %5.1f%% %8llu %9.3f %9.3f %9.3f %7.2f %9llu %9llu "
            "%8llu %8llu%s\n",
            row.regime.c_str(), row.page_format.c_str(), row.kept * 100,
            (unsigned long long)row.ancestors, row.xr.ms, row.xr4.ms,
            row.merge.ms, ratio, (unsigned long long)row.xr.scanned,
            (unsigned long long)row.merge.scanned,
            (unsigned long long)row.xr.fetches,
            (unsigned long long)row.merge.fetches,
            match ? "" : "  PAIR-COUNT MISMATCH");
        rows.push_back(row);
      }
      db.disk()->SetLatency(DiskOptions{});
    }
  }

  if (!json_path.empty()) {
    auto run_json = [](const Run& r) {
      JsonObject o;
      o.Set("ms", r.ms);
      o.Set("pairs", r.pairs);
      o.Set("elements_scanned", r.scanned);
      o.Set("pool_fetches", r.fetches);
      o.Set("misses", r.misses);
      return o.Dump();
    };
    std::vector<std::string> row_json;
    for (const Row& r : rows) {
      JsonObject o;
      o.Set("regime", r.regime);
      o.Set("page_format", r.page_format);
      o.Set("scale", kScale);
      o.Set("pool_pages", r.pool_pages);
      o.Set("miss_latency_us", r.miss_latency_us);
      o.Set("ancestors_kept", r.kept);
      o.Set("ancestors", r.ancestors);
      o.Set("descendants", static_cast<uint64_t>(ds->descendants.size()));
      o.Set("reps", r.regime == "device" ? uint64_t{1} : kReps);
      o.SetRaw("xr_serial", run_json(r.xr));
      o.SetRaw("xr_4t", run_json(r.xr4));
      o.SetRaw("merge", run_json(r.merge));
      o.Set("xr_serial_vs_merge", r.xr.ms / r.merge.ms);
      o.Set("pairs_match", r.xr.pairs == r.merge.pairs &&
                               r.xr4.pairs == r.merge.pairs);
      row_json.push_back(o.Dump());
    }
    JsonObject top;
    top.Set("bench", "skip_scan");
    top.Set("join", "department employee//name");
    top.SetRaw("rows", JsonArray(row_json));
    if (!WriteTextFile(json_path, top.Dump())) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!pairs_ok) {
    std::printf("\nFAIL: XR-stack and the leaf-scan merge disagree\n");
    return 1;
  }
  if (!ratio_ok) {
    std::printf(
        "\nFAIL: resident serial XR-stack slower than %.2fx the merge with "
        "every ancestor kept\n",
        max_ratio);
    return 2;
  }
  std::printf("\nevery row: XR-stack pairs == merge pairs\n");
  return 0;
}
