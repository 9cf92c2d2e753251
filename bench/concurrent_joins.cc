// Multi-threaded structural-join driver: N reader threads drain a shared
// queue of join jobs (XR-stack, Stack-Tree-Desc and B+-probe, §6.2's three
// algorithms) against one shared buffer pool, for thread counts 1..T.
// Reports throughput scaling; exits 1 on a wrong join result and 2 when
// 1->T-thread throughput is not monotonic.
//
// The workload is deliberately miss-dominated: the pool is smaller than the
// working set and the disk charges a *blocking* (sleeping) per-access
// latency, modelling a device that serves independent requests
// concurrently. Threads therefore overlap their miss waits — a miss reads
// with no pool latch held (DESIGN.md §12) — so throughput scales with
// threads even on one core.
//
// Environment knobs:
//   XR_CONC_SCALE            elements per dataset side (default 40000)
//   XR_CONC_THREADS          max reader threads T (default 4)
//   XR_CONC_POOL             shared pool size in pages (default 128)
//   XR_CONC_JOBS             join jobs per thread-count round (default 8)
//   XR_CONC_MISS_LATENCY_US  blocking per-disk-access latency (default 250)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "join/bplus_join.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"
#include "storage/element_file.h"

namespace xrtree {
namespace bench {
namespace {

struct SetRoots {
  PageId file_head = kInvalidPageId;
  uint64_t file_size = 0;
  PageId bt_root = kInvalidPageId;
  PageId xr_root = kInvalidPageId;
};

/// Runs one join job: every thread builds its own lightweight index handles
/// (XrTree/BTree/ElementFile are stateless cursors over the shared pool) and
/// executes the algorithm picked by job index. Returns the pair count.
uint64_t RunOneJoin(BufferPool* pool, const SetRoots& a, const SetRoots& d,
                    size_t job) {
  JoinOptions options;
  options.materialize = false;
  JoinOutput out;
  switch (job % 3) {
    case 0: {
      XrTree a_xr(pool, a.xr_root);
      XrTree d_xr(pool, d.xr_root);
      out = XrStackJoin(a_xr, d_xr, options).value();
      break;
    }
    case 1: {
      ElementFile a_file(pool);
      ElementFile d_file(pool);
      a_file.OpenExisting(a.file_head, a.file_size);
      d_file.OpenExisting(d.file_head, d.file_size);
      out = StackTreeDescJoin(a_file, d_file, options).value();
      break;
    }
    default: {
      BTree a_bt(pool, a.bt_root);
      BTree d_bt(pool, d.bt_root);
      out = BPlusJoin(a_bt, d_bt, options).value();
      break;
    }
  }
  return out.stats.output_pairs;
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  const std::string json_path = ParseJsonPathArg(argc, argv);
  const uint64_t scale = EnvU64("XR_CONC_SCALE", 40000);
  const uint64_t max_threads = EnvU64("XR_CONC_THREADS", 4);
  const uint64_t pool_pages = EnvU64("XR_CONC_POOL", 128);
  const uint64_t jobs_per_round = EnvU64("XR_CONC_JOBS", 8);
  const uint64_t miss_latency_us = EnvU64("XR_CONC_MISS_LATENCY_US", 250);

  PrintHeader("Concurrent structural joins over one shared pool");
  std::printf(
      "scale=%llu elements/side, pool=%llu pages, "
      "%llu jobs/round, blocking miss latency=%llu us\n",
      (unsigned long long)scale, (unsigned long long)pool_pages,
      (unsigned long long)jobs_per_round,
      (unsigned long long)miss_latency_us);

  auto ds = MakeDepartmentDataset(scale);
  XR_CHECK_OK(ds.status());

  // Build all three representations of both sides with a big latency-free
  // pool, then shrink to the shared measurement pool and turn on the
  // simulated device latency. Reads below here are miss-dominated.
  BenchDb db(8192);
  SetRoots a, d;
  {
    StoredElementSet a_set(db.pool(), "A");
    StoredElementSet d_set(db.pool(), "D");
    XR_CHECK_OK(a_set.Build(ds->ancestors));
    XR_CHECK_OK(d_set.Build(ds->descendants));
    a = {a_set.file().head(), a_set.file().size(), a_set.btree().root(),
         a_set.xrtree().root()};
    d = {d_set.file().head(), d_set.file().size(), d_set.btree().root(),
         d_set.xrtree().root()};
  }

  DiskOptions latency;
  latency.simulated_latency_ns = miss_latency_us * 1000;
  latency.blocking_latency = true;
  db.disk()->SetLatency(latency);

  // Single-threaded ground truth for result verification.
  db.SwapPool(pool_pages);
  std::vector<uint64_t> expected(3);
  for (size_t algo = 0; algo < 3; ++algo) {
    expected[algo] = RunOneJoin(db.pool(), a, d, algo);
  }

  std::printf("\n%8s %10s %12s %10s %10s %14s\n", "threads", "seconds",
              "joins/sec", "speedup", "misses", "exhaust_waits");
  double base_rate = 0;
  bool monotonic = true;
  double prev_rate = 0;
  std::atomic<uint64_t> wrong_results{0};

  std::vector<uint64_t> thread_counts;
  for (uint64_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  std::vector<std::string> round_json;
  for (uint64_t threads : thread_counts) {
    db.SwapPool(pool_pages);  // cold, identical start for each round
    BufferPool* pool = db.pool();
    IoStats before = pool->stats();
    std::atomic<size_t> next_job{0};
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint64_t w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          size_t job = next_job.fetch_add(1);
          if (job >= jobs_per_round) break;
          uint64_t pairs = RunOneJoin(pool, a, d, job);
          if (pairs != expected[job % 3]) {
            wrong_results.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    IoStats io = pool->stats() - before;
    double rate = jobs_per_round / secs;
    if (base_rate == 0) base_rate = rate;
    if (rate + 1e-9 < prev_rate) monotonic = false;
    prev_rate = rate;
    std::printf("%8llu %10.2f %12.2f %9.2fx %10llu %14llu\n",
                (unsigned long long)threads, secs, rate, rate / base_rate,
                (unsigned long long)io.buffer_misses,
                (unsigned long long)io.pool_exhausted_waits);
    JsonObject o;
    o.Set("threads", threads);
    o.Set("seconds", secs);
    o.Set("joins_per_sec", rate);
    o.Set("speedup", rate / base_rate);
    o.Set("buffer_misses", io.buffer_misses);
    o.Set("pool_exhausted_waits", io.pool_exhausted_waits);
    round_json.push_back(o.Dump());
  }

  if (!json_path.empty()) {
    JsonObject top;
    top.Set("bench", "concurrent_joins");
    top.Set("scale", scale);
    top.Set("pool_pages", pool_pages);
    top.Set("jobs_per_round", jobs_per_round);
    top.Set("miss_latency_us", miss_latency_us);
    top.Set("monotonic", monotonic);
    top.Set("wrong_results", wrong_results.load());
    top.SetRaw("rounds", JsonArray(round_json));
    if (!WriteTextFile(json_path, top.Dump())) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (wrong_results.load() > 0) {
    std::printf("\nFAIL: %llu join(s) returned pair counts differing from "
                "the single-threaded run\n",
                (unsigned long long)wrong_results.load());
    return 1;
  }
  std::printf("\nall concurrent joins matched single-threaded results; "
              "1->%llu thread scaling %s\n",
              (unsigned long long)thread_counts.back(),
              monotonic ? "monotonic" : "NOT monotonic");
  return monotonic ? 0 : 2;
}
