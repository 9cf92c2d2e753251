// Mixed reader/writer workload: N reader threads run XR-stack joins in a
// loop while M writer threads stream inserts into the descendant tree —
// the headline scenario for the per-page latch-crabbing write path
// (DESIGN.md §14). Under the old single-writer convention the writers
// would serialize behind one tree mutex and readers would block at the
// root for the duration of every split; with crabbing, readers only ever
// wait on the handful of pages a writer is actively mutating.
//
// Two timed phases over the same warm pool:
//   baseline  N readers joining, no writers
//   mixed     the same N readers + M writers streaming inserts
// The figure of merit is reader_ratio = mixed / baseline reader scan
// throughput (join elements scanned per second — joins/sec would
// undercount the mixed phase, whose joins keep growing as the writers add
// elements). A ratio near 1.0 means writer traffic does not starve
// readers. (On CI-sized machines part of any dip is plain CPU scheduling:
// N+M threads share the cores that N had to themselves in the baseline.)
//
// Usage: mixed_workload [--readers N] [--writers M] [--seconds S]
//                       [--writer-rate OPS] [--json <path>]
//                       [--require-reader-ratio R]
//
//   --writer-rate OPS          target inserts/sec per writer (default
//                              10000; 0 = unthrottled spin). Streaming is
//                              an arrival process: the paced default
//                              measures reader degradation under sustained
//                              write traffic, while 0 measures the
//                              saturation floor — on a box with fewer
//                              cores than threads that floor is dominated
//                              by CPU scheduling (readers' fair share),
//                              not by latching.
//   --require-reader-ratio R   exit nonzero if reader_ratio < R (CI guard)
//
// Environment knobs:
//   XR_MIX_SCALE   elements per dataset side (default 20000)
//   XR_MIX_POOL    pool pages (default 4096 — resident working set, so the
//                  phases measure latching, not I/O)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "join/xr_stack.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {
namespace {

struct PhaseResult {
  std::string name;
  double seconds = 0;
  uint64_t joins = 0;
  uint64_t scanned = 0;
  uint64_t inserts = 0;
  uint64_t wrong_results = 0;
  IoStats io;
  double joins_per_sec() const { return seconds > 0 ? joins / seconds : 0; }
  double scanned_per_sec() const {
    return seconds > 0 ? scanned / seconds : 0;
  }
  double inserts_per_sec() const {
    return seconds > 0 ? inserts / seconds : 0;
  }
};

/// Runs one timed phase: `readers` join threads for `seconds` wall time,
/// plus `writers` insert threads fed by `feed` (wrapping to fresh
/// beyond-range keys when the feed runs dry — those descend and probe like
/// any insert but land right of every ancestor). `min_pairs` is the sanity
/// floor: inserts during the phase only ever add join partners.
PhaseResult RunPhase(const std::string& name, const XrTree& a_tree,
                     XrTree* d_tree, int readers, int writers, double seconds,
                     uint64_t writer_rate, const ElementList& feed,
                     uint64_t min_pairs, BufferPool* pool) {
  PhaseResult r;
  r.name = name;
  IoStats before = pool->stats();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> joins{0};
  std::atomic<uint64_t> scanned{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<size_t> feed_next{0};

  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&] {
      JoinOptions options;
      options.materialize = false;
      while (!stop.load(std::memory_order_acquire)) {
        auto out = XrStackJoin(a_tree, *d_tree, options);
        if (!out.ok() || out->stats.output_pairs < min_pairs) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (out.ok()) {
          scanned.fetch_add(out->stats.elements_scanned,
                            std::memory_order_relaxed);
        }
        joins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const Position fresh_base =
      feed.empty() ? 1 << 30 : feed.back().end + (1 << 20);
  for (int i = 0; i < writers; ++i) {
    threads.emplace_back([&] {
      const auto start = std::chrono::steady_clock::now();
      uint64_t done = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (writer_rate > 0 && done % std::max<uint64_t>(writer_rate / 100,
                                                         1) == 0) {
          // Pace to the target arrival rate in ~10ms bursts: the n-th
          // insert is due at start + n/rate, but sleeping per insert would
          // put tens of thousands of wakeups/sec on the scheduler and the
          // context switches (not the inserts) would dominate the reader
          // impact. sleep_until self-corrects after any stall.
          auto due = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(done) /
                                     static_cast<double>(writer_rate)));
          std::this_thread::sleep_until(due);
          if (stop.load(std::memory_order_acquire)) break;
        }
        size_t n = feed_next.fetch_add(1, std::memory_order_relaxed);
        Element e =
            n < feed.size()
                ? feed[n]
                : Element(fresh_base + 4 * (n - feed.size()),
                          fresh_base + 4 * (n - feed.size()) + 3, 1);
        Status s = d_tree->Insert(e);
        if (!s.ok()) wrong.fetch_add(1, std::memory_order_relaxed);
        inserts.fetch_add(1, std::memory_order_relaxed);
        ++done;
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();

  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.joins = joins.load();
  r.scanned = scanned.load();
  r.inserts = inserts.load();
  r.wrong_results = wrong.load();
  r.io = pool->stats() - before;
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  uint64_t readers = 2;
  uint64_t writers = 2;
  uint64_t writer_rate = 10000;
  double seconds = 2.0;
  double require_ratio = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      readers = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--writers") == 0 && i + 1 < argc) {
      writers = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--writer-rate") == 0 && i + 1 < argc) {
      writer_rate = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--require-reader-ratio") == 0 &&
               i + 1 < argc) {
      require_ratio = std::strtod(argv[i + 1], nullptr);
    }
  }
  const std::string json_path = ParseJsonPathArg(argc, argv);
  const uint64_t scale = EnvU64("XR_MIX_SCALE", 20000);
  const uint64_t pool_pages = EnvU64("XR_MIX_POOL", 4096);

  PrintHeader("Mixed workload: concurrent joins vs. streaming inserts");
  std::printf(
      "scale=%llu elements/side, pool=%llu pages, "
      "%llu readers + %llu writers @ %llu inserts/s each, %.1fs/phase\n",
      (unsigned long long)scale, (unsigned long long)pool_pages,
      (unsigned long long)readers,
      (unsigned long long)writers, (unsigned long long)writer_rate, seconds);

  auto ds = MakeDepartmentDataset(scale);
  XR_CHECK_OK(ds.status());

  // The ancestor side is fully loaded; the descendant side starts at 3/4
  // and the writers stream the held-out quarter in during the mixed phase,
  // so writer traffic lands in the middle of the joined key space (real
  // splits on pages the readers are traversing), not in an appendix the
  // readers never visit.
  BenchDb db(pool_pages);
  XrTree a_tree(db.pool(), kInvalidPageId);
  XrTree d_tree(db.pool(), kInvalidPageId);
  ElementList d_loaded;
  ElementList d_feed;
  for (size_t i = 0; i < ds->descendants.size(); ++i) {
    (i % 4 != 3 ? d_loaded : d_feed).push_back(ds->descendants[i]);
  }
  XR_CHECK_OK(a_tree.BulkLoad(ds->ancestors));
  XR_CHECK_OK(d_tree.BulkLoad(d_loaded));

  // Serial ground truth over the loaded prefix: every phase's joins must
  // report at least this many pairs (inserts only add partners).
  JoinOptions count_only;
  count_only.materialize = false;
  auto truth = XrStackJoin(a_tree, d_tree, count_only);
  XR_CHECK_OK(truth.status());
  const uint64_t min_pairs = truth->stats.output_pairs;

  PhaseResult base = RunPhase("baseline", a_tree, &d_tree,
                              static_cast<int>(readers), 0, seconds,
                              writer_rate, d_feed, min_pairs, db.pool());
  PhaseResult mixed = RunPhase("mixed", a_tree, &d_tree,
                               static_cast<int>(readers),
                               static_cast<int>(writers), seconds,
                               writer_rate, d_feed, min_pairs, db.pool());

  double ratio = base.scanned_per_sec() > 0
                     ? mixed.scanned_per_sec() / base.scanned_per_sec()
                     : 0.0;

  std::printf("\n%10s %9s %8s %12s %14s %10s %14s %8s\n", "phase",
              "seconds", "joins", "joins/sec", "scanned/sec", "inserts",
              "inserts/sec", "wrong");
  std::vector<std::string> phase_json;
  for (const PhaseResult* p : {&base, &mixed}) {
    std::printf("%10s %9.2f %8llu %12.2f %14.0f %10llu %14.2f %8llu\n",
                p->name.c_str(), p->seconds, (unsigned long long)p->joins,
                p->joins_per_sec(), p->scanned_per_sec(),
                (unsigned long long)p->inserts, p->inserts_per_sec(),
                (unsigned long long)p->wrong_results);
    JsonObject o;
    o.Set("phase", p->name);
    o.Set("seconds", p->seconds);
    o.Set("joins", p->joins);
    o.Set("joins_per_sec", p->joins_per_sec());
    o.Set("scanned", p->scanned);
    o.Set("scanned_per_sec", p->scanned_per_sec());
    o.Set("inserts", p->inserts);
    o.Set("inserts_per_sec", p->inserts_per_sec());
    o.Set("wrong_results", p->wrong_results);
    o.Set("buffer_misses", p->io.buffer_misses);
    o.Set("pool_exhausted_waits", p->io.pool_exhausted_waits);
    phase_json.push_back(o.Dump());
  }
  std::printf("\nreader throughput ratio (mixed/baseline): %.3f\n", ratio);

  const uint64_t wrong_total = base.wrong_results + mixed.wrong_results;
  if (!json_path.empty()) {
    JsonObject top;
    top.Set("bench", "mixed_workload");
    top.Set("scale", scale);
    top.Set("pool_pages", pool_pages);
    top.Set("readers", readers);
    top.Set("writers", writers);
    top.Set("writer_rate", writer_rate);
    top.Set("phase_seconds", seconds);
    top.Set("reader_ratio", ratio);
    top.Set("wrong_results", wrong_total);
    top.SetRaw("phases", JsonArray(phase_json));
    if (!WriteTextFile(json_path, top.Dump())) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (wrong_total > 0) {
    std::fprintf(stderr, "FAIL: %llu join/insert results were wrong\n",
                 (unsigned long long)wrong_total);
    return 1;
  }
  if (require_ratio >= 0 && ratio < require_ratio) {
    std::fprintf(stderr,
                 "FAIL: reader throughput ratio %.3f below required %.3f\n",
                 ratio, require_ratio);
    return 1;
  }
  return 0;
}
