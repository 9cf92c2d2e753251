// Fault-tolerance overhead study: the same ancestor-descendant XR-stack
// join, serial and 2-thread parallel, on a disk that injects sustained
// transient read faults (plus wire corruption at half the rate). Measures
// what the buffer pool's retry/backoff and repair machinery costs at 0%,
// 1% and 5% per-read fault probability; every faulted round must still
// produce the fault-free pair count (degrade_to_serial covers the parallel
// rounds).
//
// Usage: fault_tolerance [--json <path>]
//
// Environment knobs:
//   XR_FT_SCALE   elements per dataset side (default 20000)
//   XR_FT_POOL    measurement pool size in pages (default 128 — far below
//                 the fanout-4 working set, so faults land on demand misses)
//   XR_FT_SEED    fault + retry-jitter RNG seed (default 1)

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "join/parallel_join.h"
#include "join/xr_stack.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"

namespace xrtree {
namespace bench {
namespace {

struct RoundResult {
  std::string mode;
  double fault_prob = 0;
  double seconds = 0;
  double overhead = 0;  ///< seconds / same-mode fault-free seconds
  uint64_t pairs = 0;
  bool pairs_ok = false;
  bool degraded = false;
  uint64_t transient_faults = 0;
  uint64_t corrupt_faults = 0;
  uint64_t io_retries = 0;
  uint64_t repairs = 0;
};

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  const std::string json_path = ParseJsonPathArg(argc, argv);
  const uint64_t scale = EnvU64("XR_FT_SCALE", 20000);
  const uint64_t pool_pages = EnvU64("XR_FT_POOL", 128);
  const uint64_t seed = EnvU64("XR_FT_SEED", 1);

  PrintHeader("Fault-tolerance overhead (sustained transient read faults)");
  std::printf("scale=%llu elements/side, pool=%llu pages, seed=%llu\n",
              (unsigned long long)scale, (unsigned long long)pool_pages,
              (unsigned long long)seed);

  auto ds = MakeDepartmentDataset(scale);
  XR_CHECK_OK(ds.status());

  char tmpl[] = "/tmp/xrtree_ft_bench_XXXXXX";
  int tmp_fd = ::mkstemp(tmpl);
  if (tmp_fd < 0) {
    std::fprintf(stderr, "mkstemp failed\n");
    return 1;
  }
  ::close(tmp_fd);
  const std::string path = tmpl;

  DiskManager disk;
  XR_CHECK_OK(disk.Open(path));
  FaultInjectingDisk faulty(&disk);

  // Build fanout-4 trees (working set >> measurement pool) with a big
  // fault-free pool, flush, then measure against small cold pools.
  PageId a_root, d_root;
  {
    BufferPoolOptions build_options;
    build_options.pool_size = 8192;
    BufferPool build_pool(&faulty, build_options);
    XrTreeOptions tree_options;
    tree_options.leaf_capacity = 4;
    tree_options.internal_capacity = 4;
    XrTree a_build(&build_pool, kInvalidPageId, tree_options);
    XrTree d_build(&build_pool, kInvalidPageId, tree_options);
    XR_CHECK_OK(a_build.BulkLoad(ds->ancestors));
    XR_CHECK_OK(d_build.BulkLoad(ds->descendants));
    a_root = a_build.root();
    d_root = d_build.root();
    XR_CHECK_OK(build_pool.FlushAll());
  }

  BufferPoolOptions options;
  options.pool_size = pool_pages;
  options.io_retry = RetryPolicy{8, 0, 10, 100, 0};
  options.corrupt_read_retries = 6;
  options.retry_seed = seed;

  // Fault-free ground truth for the pair count.
  uint64_t expected_pairs;
  {
    BufferPool pool(&faulty, options);
    XrTree a_xr(&pool, a_root);
    XrTree d_xr(&pool, d_root);
    JoinOptions jo;
    jo.materialize = false;
    expected_pairs = XrStackJoin(a_xr, d_xr, jo).value().stats.output_pairs;
  }
  std::printf("fault-free pairs: %llu\n\n",
              (unsigned long long)expected_pairs);

  const std::vector<double> probs = {0.0, 0.01, 0.05};
  std::vector<RoundResult> rounds;
  bool all_ok = true;
  std::printf("%10s %7s %9s %10s %10s %9s %9s %9s %9s\n", "mode", "prob",
              "seconds", "overhead", "pairs", "transient", "corrupt",
              "retries", "repairs");
  for (int parallel = 0; parallel < 2; ++parallel) {
    double base_seconds = 0;
    for (double prob : probs) {
      BufferPool pool(&faulty, options);  // cold, identical start each round
      XrTree a_xr(&pool, a_root);
      XrTree d_xr(&pool, d_root);
      JoinOptions jo;
      jo.materialize = false;
      if (parallel) {
        jo.num_threads = 2;
        jo.degrade_to_serial = true;
      }
      uint64_t transient0 = faulty.sustained_transient_faults();
      uint64_t corrupt0 = faulty.sustained_corrupt_faults();
      if (prob > 0) {
        SustainedFaultOptions faults;
        faults.transient_read_prob = prob;
        faults.corrupt_read_prob = prob / 2;
        faults.seed = seed;
        faulty.EnableSustainedFaults(faults);
      }
      auto t0 = std::chrono::steady_clock::now();
      auto out = parallel ? ParallelXrStackJoin(a_xr, d_xr, jo)
                          : XrStackJoin(a_xr, d_xr, jo);
      auto t1 = std::chrono::steady_clock::now();
      faulty.DisableSustainedFaults();
      XR_CHECK_OK(out.status());

      RoundResult r;
      r.mode = parallel ? "parallel2" : "serial";
      r.fault_prob = prob;
      r.seconds = std::chrono::duration<double>(t1 - t0).count();
      if (prob == 0) base_seconds = r.seconds;
      r.overhead = base_seconds > 0 ? r.seconds / base_seconds : 0;
      r.pairs = out->stats.output_pairs;
      r.pairs_ok = (r.pairs == expected_pairs);
      r.degraded = out->stats.degraded_to_serial;
      r.transient_faults = faulty.sustained_transient_faults() - transient0;
      r.corrupt_faults = faulty.sustained_corrupt_faults() - corrupt0;
      IoStats io = pool.stats();
      r.io_retries = io.io_retries;
      r.repairs = io.repairs_attempted;
      all_ok = all_ok && r.pairs_ok && io.repairs_succeeded == io.repairs_attempted;
      rounds.push_back(r);

      std::printf("%10s %6.2f%% %9.3f %9.2fx %10llu %9llu %9llu %9llu %9llu%s%s\n",
                  r.mode.c_str(), prob * 100, r.seconds, r.overhead,
                  (unsigned long long)r.pairs,
                  (unsigned long long)r.transient_faults,
                  (unsigned long long)r.corrupt_faults,
                  (unsigned long long)r.io_retries,
                  (unsigned long long)r.repairs,
                  r.degraded ? "  degraded" : "",
                  r.pairs_ok ? "" : "  PAIR-COUNT MISMATCH");
    }
  }

  if (!json_path.empty()) {
    std::vector<std::string> round_json;
    for (const RoundResult& r : rounds) {
      JsonObject o;
      o.Set("mode", r.mode);
      o.Set("fault_prob", r.fault_prob);
      o.Set("seconds", r.seconds);
      o.Set("overhead", r.overhead);
      o.Set("pairs", r.pairs);
      o.Set("pairs_match_fault_free", r.pairs_ok);
      o.Set("degraded_to_serial", r.degraded);
      o.Set("transient_faults", r.transient_faults);
      o.Set("corrupt_faults", r.corrupt_faults);
      o.Set("io_retries", r.io_retries);
      o.Set("repairs", r.repairs);
      round_json.push_back(o.Dump());
    }
    JsonObject top;
    top.Set("bench", "fault_tolerance");
    top.Set("scale", scale);
    top.Set("pool_pages", pool_pages);
    top.Set("seed", seed);
    top.Set("expected_pairs", expected_pairs);
    top.Set("all_rounds_ok", all_ok);
    top.SetRaw("rounds", JsonArray(round_json));
    if (!WriteTextFile(json_path, top.Dump())) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    } else {
      std::printf("\nwrote %s\n", json_path.c_str());
    }
  }

  XR_CHECK_OK(disk.Close());
  std::remove(path.c_str());
  if (!all_ok) {
    std::fprintf(stderr, "FAILURE: a faulted round diverged from fault-free\n");
    return 1;
  }
  return 0;
}
