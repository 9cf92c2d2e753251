// Intra-query parallel structural join driver: ONE ancestor-descendant
// XR-stack join split across worker threads by ancestor key range
// (ParallelXrStackJoin), with optional descendant leaf prefetching, against
// a shared buffer pool. Contrast with bench/concurrent_joins, which
// scales across independent queries; here a single query's latency drops.
//
// The measurement pool is smaller than the working set and the disk charges
// a blocking (sleeping) per-access latency, modelling a device that serves
// independent requests concurrently. Partition workers overlap their miss
// waits, and the prefetcher overlaps read-ahead with the worker's compute
// and its own stalls.
//
// Every round starts on a cold pool and times that one join; it is then
// repeated kWarmRepeats times on the now-warm pool, and the median of those
// repeats is reported apart (warm_seconds, warm_speedup), so the join's CPU
// side can be read without the round's misses.
//
// Usage: parallel_join [--threads N] [--json <path>] [--require-prefetch-wins]
//                      [--compressed]
//   --threads N   highest worker count measured (default 8; rounds run at
//                 1, 2, 4, ... up to N)
//   --json PATH   write machine-readable results to PATH
//   --compressed  build the XR-trees with compressed leaf/stab pages
//                 (DESIGN.md §15); the JSON header records the format
//   --require-prefetch-wins
//                 exit nonzero if, at the highest thread count, the prefetch
//                 round is slower than the no-prefetch round (beyond a 5%
//                 noise allowance). This is the CI regression guard for the
//                 single-flight read path: prefetch losing at high thread
//                 counts was the signature of demand misses serializing
//                 behind the prefetcher under the pool latch.
//
// Environment knobs:
//   XR_PAR_SCALE            elements per dataset side (default 60000)
//   XR_PAR_POOL             shared pool size in pages (default 256)
//   XR_PAR_MISS_LATENCY_US  blocking per-disk-access latency (default 5000,
//                           one 2002-era disk access like XR_MISS_LATENCY_US)
//   XR_PAR_PREFETCH         leaf read-ahead depth for prefetch rounds
//                           (default 8)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "join/parallel_join.h"
#include "join/xr_stack.h"

namespace xrtree {
namespace bench {
namespace {

/// Timed joins on the warm pool after each cold round.
constexpr int kWarmRepeats = 5;

struct RoundResult {
  uint64_t threads = 0;
  uint64_t prefetch_depth = 0;
  double seconds = 0;
  double speedup = 0;
  /// Median of the warm repeats, and the first round's warm median over it.
  double warm_seconds = 0;
  double warm_speedup = 0;
  uint64_t pairs = 0;
  uint64_t buffer_misses = 0;
  uint64_t disk_reads = 0;
  uint64_t read_batches = 0;
  /// disk_reads / read_batches: pages the device served per vectorized
  /// submission this round — the async layer's batching factor.
  double mean_batch_width = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  bool pairs_ok = false;
};

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  uint64_t max_threads = 8;
  bool require_prefetch_wins = false;
  bool compressed = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      max_threads = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::string(argv[i]) == "--require-prefetch-wins") {
      require_prefetch_wins = true;
    } else if (std::string(argv[i]) == "--compressed") {
      compressed = true;
    }
  }
  if (max_threads == 0) max_threads = 1;
  const std::string json_path = ParseJsonPathArg(argc, argv);

  const uint64_t scale = EnvU64("XR_PAR_SCALE", 60000);
  const uint64_t pool_pages = EnvU64("XR_PAR_POOL", 256);
  const uint64_t miss_latency_us = EnvU64("XR_PAR_MISS_LATENCY_US", 5000);
  const uint64_t prefetch_depth = EnvU64("XR_PAR_PREFETCH", 8);

  PrintHeader("Intra-query parallel XR-stack join (range partitioning)");
  std::printf(
      "scale=%llu elements/side, pool=%llu pages, "
      "blocking miss latency=%llu us, prefetch depth=%llu\n",
      (unsigned long long)scale, (unsigned long long)pool_pages,
      (unsigned long long)miss_latency_us,
      (unsigned long long)prefetch_depth);

  auto ds = MakeDepartmentDataset(scale);
  XR_CHECK_OK(ds.status());

  // Build both XR-trees with a big latency-free pool, then shrink to the
  // measurement pool and turn on the simulated device latency.
  BenchDb db(8192);
  PageId a_root, d_root;
  {
    XrTreeOptions xopt;
    xopt.compressed_pages = compressed;
    XrTree a_tree(db.pool(), kInvalidPageId, xopt);
    XrTree d_tree(db.pool(), kInvalidPageId, xopt);
    XR_CHECK_OK(a_tree.BulkLoad(ds->ancestors));
    XR_CHECK_OK(d_tree.BulkLoad(ds->descendants));
    a_root = a_tree.root();
    d_root = d_tree.root();
  }

  DiskOptions latency;
  latency.simulated_latency_ns = miss_latency_us * 1000;
  latency.blocking_latency = true;
  db.disk()->SetLatency(latency);

  // Serial ground truth (cold pool, same latency model).
  db.SwapPool(pool_pages);
  uint64_t expected_pairs;
  double serial_seconds;
  {
    XrTree a_xr(db.pool(), a_root);
    XrTree d_xr(db.pool(), d_root);
    JoinOptions options;
    options.materialize = false;
    auto t0 = std::chrono::steady_clock::now();
    JoinOutput out = XrStackJoin(a_xr, d_xr, options).value();
    auto t1 = std::chrono::steady_clock::now();
    expected_pairs = out.stats.output_pairs;
    serial_seconds = std::chrono::duration<double>(t1 - t0).count();
  }
  std::printf("\nserial XR-stack: %.2fs, %llu pairs\n", serial_seconds,
              (unsigned long long)expected_pairs);

  std::vector<uint64_t> thread_counts;
  for (uint64_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  std::printf("\n%8s %9s %9s %9s %9s %9s %10s %9s %9s %9s %9s\n", "threads",
              "prefetch", "seconds", "speedup", "warm_s", "warm_spd",
              "misses", "batch_w", "pf_issue", "pf_hit", "pf_waste");

  std::vector<RoundResult> rounds;
  double base_seconds = 0;
  double base_warm_seconds = 0;
  bool all_ok = true;
  std::vector<uint64_t> depths = {0};
  if (prefetch_depth > 0) depths.push_back(prefetch_depth);
  for (uint64_t threads : thread_counts) {
    for (uint64_t pf : depths) {
      db.SwapPool(pool_pages);  // cold, identical start each round
      XrTree a_xr(db.pool(), a_root);
      XrTree d_xr(db.pool(), d_root);
      JoinOptions options;
      options.materialize = false;
      options.num_threads = static_cast<uint32_t>(threads);
      options.prefetch_depth = static_cast<uint32_t>(pf);
      // Prefetch rounds use the adaptive ramp: depth scales with observed
      // run length instead of re-issuing a fixed depth every arm.
      options.adaptive_prefetch = pf > 0;
      IoStats before = db.pool()->stats();
      auto t0 = std::chrono::steady_clock::now();
      JoinOutput out = ParallelXrStackJoin(a_xr, d_xr, options).value();
      auto t1 = std::chrono::steady_clock::now();
      db.pool()->WaitForPrefetchIdle();  // settle counters before snapshot
      IoStats io = db.pool()->stats() - before;

      std::vector<double> warm;
      bool warm_ok = true;
      for (int rep = 0; rep < kWarmRepeats; ++rep) {
        auto w0 = std::chrono::steady_clock::now();
        JoinOutput again = ParallelXrStackJoin(a_xr, d_xr, options).value();
        auto w1 = std::chrono::steady_clock::now();
        db.pool()->WaitForPrefetchIdle();
        warm.push_back(std::chrono::duration<double>(w1 - w0).count());
        warm_ok = warm_ok && again.stats.output_pairs == expected_pairs;
      }
      std::sort(warm.begin(), warm.end());

      RoundResult r;
      r.threads = threads;
      r.prefetch_depth = pf;
      r.seconds = std::chrono::duration<double>(t1 - t0).count();
      if (base_seconds == 0) base_seconds = r.seconds;
      r.speedup = base_seconds / r.seconds;
      r.warm_seconds = warm[warm.size() / 2];
      if (base_warm_seconds == 0) base_warm_seconds = r.warm_seconds;
      r.warm_speedup = base_warm_seconds / r.warm_seconds;
      r.pairs = out.stats.output_pairs;
      r.buffer_misses = io.buffer_misses;
      r.disk_reads = io.disk_reads;
      r.read_batches = io.read_batches;
      r.mean_batch_width =
          io.read_batches > 0
              ? static_cast<double>(io.disk_reads) / io.read_batches
              : 0.0;
      r.prefetch_issued = io.prefetch_issued;
      r.prefetch_hits = io.prefetch_hits;
      r.prefetch_wasted = io.prefetch_wasted;
      r.pairs_ok = r.pairs == expected_pairs && warm_ok;
      all_ok = all_ok && r.pairs_ok;
      rounds.push_back(r);

      std::printf(
          "%8llu %9llu %9.4f %8.2fx %9.4f %8.2fx %10llu %9.2f %9llu %9llu "
          "%9llu%s\n",
          (unsigned long long)threads, (unsigned long long)pf, r.seconds,
          r.speedup, r.warm_seconds, r.warm_speedup,
          (unsigned long long)r.buffer_misses,
          r.mean_batch_width, (unsigned long long)r.prefetch_issued,
          (unsigned long long)r.prefetch_hits,
          (unsigned long long)r.prefetch_wasted,
          r.pairs_ok ? "" : "  PAIR-COUNT MISMATCH");
    }
  }

  if (!json_path.empty()) {
    std::vector<std::string> round_json;
    for (const RoundResult& r : rounds) {
      JsonObject o;
      o.Set("threads", r.threads);
      o.Set("prefetch_depth", r.prefetch_depth);
      o.Set("seconds", r.seconds);
      o.Set("speedup", r.speedup);
      o.Set("warm_seconds", r.warm_seconds);
      o.Set("warm_speedup", r.warm_speedup);
      o.Set("pairs", r.pairs);
      o.Set("buffer_misses", r.buffer_misses);
      o.Set("disk_reads", r.disk_reads);
      o.Set("read_batches", r.read_batches);
      o.Set("mean_batch_width", r.mean_batch_width);
      o.Set("prefetch_issued", r.prefetch_issued);
      o.Set("prefetch_hits", r.prefetch_hits);
      o.Set("prefetch_wasted", r.prefetch_wasted);
      o.Set("pairs_match_serial", r.pairs_ok);
      round_json.push_back(o.Dump());
    }
    JsonObject top;
    top.Set("bench", "parallel_join");
    top.Set("page_format", compressed ? "compressed" : "fixed");
    top.Set("adaptive_prefetch", prefetch_depth > 0);
    top.Set("scale", scale);
    top.Set("pool_pages", pool_pages);
    top.Set("miss_latency_us", miss_latency_us);
    top.Set("prefetch_depth", prefetch_depth);
    top.Set("serial_seconds", serial_seconds);
    top.Set("serial_pairs", expected_pairs);
    top.SetRaw("rounds", JsonArray(round_json));
    if (!WriteTextFile(json_path, top.Dump())) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!all_ok) {
    std::printf("\nFAIL: parallel pair counts diverged from serial\n");
    return 1;
  }
  std::printf("\nall parallel rounds matched the serial pair count\n");

  if (require_prefetch_wins && prefetch_depth > 0) {
    // The guard compares the two rounds at the highest measured thread
    // count. 5% covers timer noise; a real relapse into latched reads
    // costs far more than that (the original regression was ~9%).
    double plain_s = 0, pf_s = 0;
    for (const RoundResult& r : rounds) {
      if (r.threads != max_threads) continue;
      if (r.prefetch_depth == 0) plain_s = r.seconds;
      else pf_s = r.seconds;
    }
    if (plain_s > 0 && pf_s > plain_s * 1.05) {
      std::printf(
          "FAIL: at %llu threads prefetch (%.2fs) is slower than "
          "no-prefetch (%.2fs)\n",
          (unsigned long long)max_threads, pf_s, plain_s);
      return 1;
    }
    std::printf("prefetch guard: %.2fs vs %.2fs no-prefetch at %llu threads\n",
                pf_s, plain_s, (unsigned long long)max_threads);
  }
  return 0;
}
