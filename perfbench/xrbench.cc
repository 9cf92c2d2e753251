// Repository benchmark program: one process runs one named workload over the
// paper's highly nested Department corpus (employee//name), checks every
// answer against a truth computed at set-up, and reports end-to-end metrics
// (untraced run) or per-layer metrics (traced run). See README.md in this
// directory for the workloads, the metric definitions and why each
// workload exists.
//
// Usage:
//   xrbench --workload hot-join|cold-join|churn --seed N --seconds S
//           --trace 0|1 [--report PATH] [--spans PATH] [--data-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The full report (every metric, sample counts, checks,
// configuration, seed) is written to --report; spans recorded by a traced
// run are written to --spans when the process ends.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "join/parallel_join.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/element_file.h"
#include "workload/datasets.h"
#include "xrtree/page_codec.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload definitions

/// Elements generated per corpus (MakeDepartmentDataset target).
constexpr uint64_t kCorpusElements = 100000;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// p90 needs at least ten samples beyond it.
constexpr uint64_t kMinJoins = 100;
/// A run never measures joins for longer than this, whatever --seconds says,
/// so the process ends well inside its time limit.
constexpr double kMaxJoinPhaseSeconds = 100.0;
/// Held-out elements churn pre-inserts at set-up: the writer's delete side
/// always has this many earlier inserts to pick from, so tree size stays
/// level at base + kChurnLag (+1 between an insert and its delete).
constexpr size_t kChurnLag = 256;
/// Consecutive descendants the join workloads' write slices cycle through.
constexpr size_t kWriteWindow = 256;
/// Insert+delete pairs of churn's single-threaded fetch-count replay.
constexpr size_t kChurnReplayPairs = 200;
/// Build pool for bulk loading (latency-free, holds every page).
constexpr size_t kBuildPoolFrames = 4096;

struct WorkloadConfig {
  std::string name;
  bool compressed = false;
  size_t pool_frames = 0;
  uint64_t miss_latency_us = 0;  ///< sleeping latency per device submission
  uint32_t join_threads = 1;     ///< ParallelXrStackJoin workers (1 = serial)
  uint32_t prefetch_depth = 0;
  bool adaptive_prefetch = false;
  int reader_clients = 1;        ///< closed-loop join clients
  bool concurrent_writer = false;
  /// Open-loop writer rate, operations per second (inserts and deletes
  /// alternate): churn's concurrent writer, or the join workloads' write
  /// slices between timed joins.
  double write_rate = 0;
  /// Join workloads: insert+delete pairs written after every timed join.
  size_t slice_pairs = 0;
};

bool LookupWorkload(const std::string& name, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "hot-join") {
    c.pool_frames = 4096;
    c.join_threads = 4;
    c.write_rate = 10000;
    c.slice_pairs = 8;
  } else if (name == "cold-join") {
    c.compressed = true;
    c.pool_frames = 48;
    c.miss_latency_us = 5000;
    c.join_threads = 4;
    c.prefetch_depth = 8;
    c.adaptive_prefetch = true;
    c.write_rate = 1000;
    c.slice_pairs = 10;
  } else if (name == "churn") {
    c.pool_frames = 4096;
    c.reader_clients = 2;
    c.concurrent_writer = true;
    c.write_rate = 2000;
  } else {
    return false;
  }
  *out = c;
  return true;
}

JoinOptions JoinOptionsFor(const WorkloadConfig& c, uint32_t threads) {
  JoinOptions o;
  o.materialize = false;
  o.num_threads = threads;
  o.prefetch_depth = c.prefetch_depth;
  o.adaptive_prefetch = c.adaptive_prefetch;
  return o;
}

Result<JoinOutput> RunJoin(const XrTree& a, const XrTree& d,
                           const JoinOptions& o) {
  return o.num_threads > 1 ? ParallelXrStackJoin(a, d, o)
                           : XrStackJoin(a, d, o);
}

// ---------------------------------------------------------------------------
// Small utilities

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// splitmix64: the benchmark's only randomness source, so a seed gives the
/// same inputs on every platform.
uint64_t Mix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  uint64_t state = seed;
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(Mix(&state) % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

uint64_t Fetches(const IoStats& io) { return io.buffer_hits + io.buffer_misses; }

// ---------------------------------------------------------------------------
// Tracing: spans are recorded only here, around calls into the engine's
// public API, kept in memory, and written out when the process ends.

struct Span {
  const char* name;
  uint64_t trace;   ///< request id shared by the spans of one operation
  uint32_t id;
  uint32_t parent;  ///< 0 = root
  int64_t start_ns;
  int64_t end_ns;
  uint64_t fetches;  ///< pool fetches charged to the span (0 = not counted)
};

class Tracer {
 public:
  uint64_t NewTrace() { return next_trace_.fetch_add(1) + 1; }
  uint32_t NewSpanId() { return next_span_.fetch_add(1) + 1; }

  void Record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  /// Writes every span as one JSON line, then one summary line per span
  /// name with count, total and self time (duration minus the part covered
  /// by child spans).
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::map<uint32_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    struct Agg {
      uint64_t count = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const Span& s : spans_) {
      int64_t dur = s.end_ns - s.start_ns;
      auto it = child_ns.find(s.id);
      int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
      Agg& a = by_name[s.name];
      ++a.count;
      a.total_ns += dur;
      a.self_ns += std::max<int64_t>(self, 0);
      std::fprintf(f,
                   "{\"trace\":%llu,\"span\":%u,\"parent\":%u,\"name\":%s,"
                   "\"start_ns\":%lld,\"dur_ns\":%lld,\"fetches\":%llu}\n",
                   (unsigned long long)s.trace, s.id, s.parent,
                   Quote(s.name).c_str(), (long long)s.start_ns,
                   (long long)dur, (unsigned long long)s.fetches);
    }
    for (const auto& [name, a] : by_name) {
      std::fprintf(f,
                   "{\"summary\":%s,\"count\":%llu,\"total_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   Quote(name).c_str(), (unsigned long long)a.count,
                   (long long)a.total_ns, (long long)a.self_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_trace_{0};
  std::atomic<uint32_t> next_span_{0};
};

/// Times `f()`; when `tracer` is non-null also records it as a span.
/// Returns the duration in nanoseconds.
template <typename F>
int64_t TimeCall(Tracer* tracer, const char* name, uint64_t trace,
                 uint32_t parent, F&& f) {
  const uint32_t id = tracer != nullptr ? tracer->NewSpanId() : 0;
  const int64_t t0 = NowNs();
  f();
  const int64_t t1 = NowNs();
  if (tracer != nullptr) tracer->Record({name, trace, id, parent, t0, t1, 0});
  return t1 - t0;
}

// ---------------------------------------------------------------------------
// Metrics registry: every value reported, by name and unit.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void Check(bool ok, const std::string& what) {
    checks_.emplace_back(what, ok);
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool correct() const { return correct_; }
  const std::vector<std::pair<std::string, bool>>& checks() const {
    return checks_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  bool correct_ = true;
};

// The result line carries exactly these (BENCHMARK.json): the end-to-end
// set with --trace 0, the per-layer set with --trace 1. Every other metric
// (sample counts, write p90s, error_rate, pair bounds) goes to the report
// only. Write latencies are per-layer (unbounded) because their run-to-run
// spread on a shared host exceeds any bound the benchmark may set.
const std::vector<std::string> kEndToEnd = {
    "join_p50_ms", "join_p90_ms",       "joins_per_s",
    "setup_s",     "bytes_per_element", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "storage.fetches_per_join",
    "storage.fetch_hit_ns",
    "storage.fetch_hit_ns_4t",
    "storage.misses_per_join",
    "storage.disk_reads_per_join",
    "storage.read_batch_width",
    "storage.prefetch_issued_per_join",
    "storage.prefetch_hit_ratio",
    "storage.prefetch_wasted_per_join",
    "storage.exhausted_waits_per_join",
    "storage.disk_writes_per_write",
    "xrtree.probe_ns",
    "xrtree.fetches_per_probe",
    "xrtree.scanned_per_probe",
    "xrtree.seek_ns",
    "xrtree.scan_ns_per_element",
    "xrtree.fetches_per_leaf",
    "xrtree.decode_leaf_ns",
    "xrtree.decode_from_ns",
    "xrtree.insert_fetches",
    "xrtree.delete_fetches",
    "xrtree.leaf_pages",
    "xrtree.stab_pages",
    "xrtree.height",
    "join.elements_scanned_per_join",
    "join.serial_ms",
    "join.parallel_ms",
    "join.speedup",
    "join.range_ms_max",
    "join.range_skew",
    "join.parallel_overhead_ms",
    "trace.join_p50_overhead_ms",
    "insert_p50_us",
    "insert_p99_us",
    "delete_p50_us",
    "delete_p99_us",
    "writer.late_p50_us",
    "writer.late_p99_us"};

// ---------------------------------------------------------------------------
// Database fixture: one file under the data directory, a pool over it.

class Fixture {
 public:
  explicit Fixture(std::string path) : path_(std::move(path)) {}
  ~Fixture() {
    pool_.reset();
    disk_.Close().ok();
    std::remove(path_.c_str());
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Status Open(size_t frames) {
    std::remove(path_.c_str());
    XR_RETURN_IF_ERROR(disk_.Open(path_));
    pool_ = std::make_unique<BufferPool>(&disk_, frames);
    return Status::Ok();
  }

  void SetLatencyUs(uint64_t us) {
    DiskOptions o;
    o.simulated_latency_ns = us * 1000;
    o.blocking_latency = true;
    disk_.SetLatency(o);
  }

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }

 private:
  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

// ---------------------------------------------------------------------------
// Set-up

struct Inputs {
  Dataset ds;
  ElementList d_initial;     ///< descendant tree content after set-up
  ElementList d_base;        ///< churn: never deleted (3/4 of descendants)
  std::deque<Element> held;  ///< churn: held-out elements not in the tree
  std::deque<Element> inserted;  ///< churn: held-out elements in the tree
};

struct Built {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<XrTree> a;
  std::unique_ptr<XrTree> d;
  std::deque<Element> held;      ///< churn state of this fixture's d tree
  std::deque<Element> inserted;
};

/// One timed set-up: bulk load of both trees straight into the measurement
/// pool (latency-free), a flush, then device latency and a warm-up join.
/// Churn also pre-inserts its first kChurnLag held-out elements. The trees
/// are kept (not reattached by root) so their sizes stay tracked for
/// CheckConsistency.
Status SetUp(const WorkloadConfig& c, const Inputs& in,
             const std::string& path, Built* out) {
  auto fx = std::make_unique<Fixture>(path);
  XR_RETURN_IF_ERROR(fx->Open(c.pool_frames));
  XrTreeOptions xopt;
  xopt.compressed_pages = c.compressed;
  auto a = std::make_unique<XrTree>(fx->pool(), kInvalidPageId, xopt);
  auto d = std::make_unique<XrTree>(fx->pool(), kInvalidPageId, xopt);
  XR_RETURN_IF_ERROR(a->BulkLoad(in.ds.ancestors));
  XR_RETURN_IF_ERROR(d->BulkLoad(c.concurrent_writer ? in.d_base
                                                     : in.d_initial));
  for (size_t i = 0; c.concurrent_writer && i < kChurnLag; ++i) {
    XR_RETURN_IF_ERROR(d->Insert(in.inserted[i]));
  }
  XR_RETURN_IF_ERROR(fx->pool()->FlushAll());
  fx->SetLatencyUs(c.miss_latency_us);
  auto warm = RunJoin(*a, *d, JoinOptionsFor(c, c.join_threads));
  if (!warm.ok()) return warm.status();
  fx->pool()->WaitForPrefetchIdle();
  out->fx = std::move(fx);
  out->a = std::move(a);
  out->d = std::move(d);
  return Status::Ok();
}

/// Truth pair count by Stack-Tree-Desc over two ElementFiles in a scratch
/// database (the paper's no-index baseline, independent of the XR-tree).
Result<uint64_t> StackTreeDescTruth(const ElementList& a, const ElementList& d,
                                    const std::string& path) {
  Fixture fx(path);
  XR_RETURN_IF_ERROR(fx.Open(1024));
  ElementFile af(fx.pool());
  ElementFile df(fx.pool());
  XR_RETURN_IF_ERROR(af.Build(a));
  XR_RETURN_IF_ERROR(df.Build(d));
  JoinOptions o;
  o.materialize = false;
  XR_ASSIGN_OR_RETURN(JoinOutput out, StackTreeDescJoin(af, df, o));
  return out.stats.output_pairs;
}

uint64_t VectorTruth(const ElementList& a, ElementList d) {
  std::sort(d.begin(), d.end());
  JoinOptions o;
  o.materialize = false;
  return StackTreeDescJoinVectors(a, d, o).stats.output_pairs;
}

// ---------------------------------------------------------------------------
// Open-loop writer

struct WriteStats {
  std::vector<double> insert_us;  ///< completion - due time
  std::vector<double> delete_us;
  std::vector<double> late_us;    ///< op start - due time (generator lag)
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t insert_fetches = 0;  ///< single-threaded phases only
  uint64_t delete_fetches = 0;
  uint64_t disk_writes = 0;
};

/// Waits until `due`: sleeps until shortly before it, then spins. Every
/// writer's period is shorter than the spin window, so the writer never
/// sleeps between operations: a sleeping thread's core may idle and lose
/// its caches, and the measured latency would then vary with the host's
/// idle handling instead of the operation.
void WaitUntil(int64_t due) {
  constexpr int64_t kSpinNs = 2000000;
  int64_t now = NowNs();
  if (due - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
  }
  while (NowNs() < due) {
  }
}

/// Open-loop writer: operation n is due at start + n / rate. `op` performs
/// operation n and reports whether it was an insert. Stops after `max_ops`
/// operations or when `stop` is set.
template <typename OpFn>
void RunWriter(uint64_t max_ops, double rate, const std::atomic<bool>* stop,
               WriteStats* w, OpFn&& op) {
  const int64_t start = NowNs();
  for (uint64_t n = 0; n < max_ops; ++n) {
    const int64_t due =
        start + static_cast<int64_t>(static_cast<double>(n) * 1e9 / rate);
    WaitUntil(due);
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const int64_t begin = NowNs();
    bool is_insert = false;
    bool ok = op(n, &is_insert);
    const int64_t end = NowNs();
    ++w->ops;
    if (!ok) ++w->failed;
    w->late_us.push_back((begin - due) / 1e3);
    (is_insert ? w->insert_us : w->delete_us).push_back((end - due) / 1e3);
  }
}

// ---------------------------------------------------------------------------
// Timed join phase

struct JoinPhase {
  std::vector<double> lat_ms;         ///< untraced joins
  std::vector<double> traced_lat_ms;  ///< traced joins (trace run only)
  uint64_t joins = 0;
  uint64_t failed = 0;
  uint64_t scanned = 0;
  double seconds = 0;
  IoStats io;  ///< sum of per-join deltas (single client) or phase delta
};

/// Closed-loop single client, rotating over the fixtures. In a traced run
/// every other join is traced, so traced and untraced latencies come from
/// the same period.
///
/// After each join the client writes one open-loop slice of
/// `c.slice_pairs` Delete+Insert pairs on the same fixture, under the
/// workload's own pool and latency, then flushes (untimed) so no join pays
/// for a dirty write-back. Each pair deletes and re-inserts the next
/// element of `window`, a run of consecutive descendants, so every join
/// still sees the set-up content, and only the leaves under the window
/// change format (once, on cold-join). Spreading the writes over the run
/// averages write latency over time and over the fixtures' memory layouts.
JoinPhase RunSingleClient(const WorkloadConfig& c, std::vector<Built>& fx,
                          uint64_t truth, const ElementList& window,
                          double seconds, Tracer* tracer, WriteStats* w) {
  JoinPhase r;
  const JoinOptions o = JoinOptionsFor(c, c.join_threads);
  uint64_t next_victim = 0;
  int64_t write_ns = 0;
  const int64_t t_start = NowNs();
  for (;;) {
    double elapsed = (NowNs() - t_start) / 1e9;
    if ((elapsed >= seconds && r.joins >= kMinJoins) ||
        elapsed >= kMaxJoinPhaseSeconds) {
      break;
    }
    Built& f = fx[r.joins % fx.size()];
    BufferPool* pool = f.fx->pool();
    Tracer* tr = (tracer != nullptr && r.joins % 2 == 1) ? tracer : nullptr;
    const uint64_t trace = tr != nullptr ? tr->NewTrace() : 0;
    const uint32_t root = tr != nullptr ? tr->NewSpanId() : 0;
    const int64_t r0 = NowNs();
    IoStats before = pool->stats();
    Result<JoinOutput> out = Status::Aborted("not run");
    int64_t ns = TimeCall(tr, "join.ParallelXrStackJoin", trace, root,
                          [&] { out = RunJoin(*f.a, *f.d, o); });
    TimeCall(tr, "storage.WaitForPrefetchIdle", trace, root,
             [&] { pool->WaitForPrefetchIdle(); });
    IoStats delta = pool->stats() - before;
    if (tr != nullptr) {
      tr->Record({"op.join", trace, root, 0, r0, NowNs(), Fetches(delta)});
    }
    r.io += delta;
    ++r.joins;
    (tr != nullptr ? r.traced_lat_ms : r.lat_ms).push_back(ns / 1e6);
    if (!out.ok() || out->stats.output_pairs != truth) {
      ++r.failed;
    }
    if (out.ok()) r.scanned += out->stats.elements_scanned;

    const int64_t w0 = NowNs();
    const IoStats slice_before = pool->stats();
    RunWriter(2 * c.slice_pairs, c.write_rate, nullptr, w,
              [&](uint64_t n, bool* is_insert) {
                const Element& e =
                    window[(next_victim + n / 2) % window.size()];
                *is_insert = n % 2 == 1;
                const uint64_t wtrace = tracer != nullptr ? tracer->NewTrace()
                                                          : 0;
                IoStats b = pool->stats();
                Status st;
                if (*is_insert) {
                  TimeCall(tracer, "xrtree.Insert", wtrace, 0,
                           [&] { st = f.d->Insert(e); });
                  w->insert_fetches += Fetches(pool->stats() - b);
                } else {
                  TimeCall(tracer, "xrtree.Delete", wtrace, 0,
                           [&] { st = f.d->Delete(e.start); });
                  w->delete_fetches += Fetches(pool->stats() - b);
                }
                return st.ok();
              });
    next_victim += c.slice_pairs;
    if (!pool->FlushAll().ok()) ++w->failed;
    w->disk_writes += (pool->stats() - slice_before).disk_writes;
    write_ns += NowNs() - w0;
  }
  r.seconds = (NowNs() - t_start - write_ns) / 1e9;
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only). Each probe calls one public API of
// one module and records a span per call.

/// Page ids of the root and its children (the pages every descent touches).
Result<std::vector<PageId>> UpperPages(BufferPool* pool, PageId root,
                                       size_t max_pages) {
  std::vector<PageId> ids = {root};
  XR_ASSIGN_OR_RETURN(Page * p, pool->FetchPage(root));
  PageGuard g(pool, p);
  const XrPageHeader* h = XrHeader(p);
  if (h->magic == kXrInternalMagic) {
    ids.push_back(h->leftmost);
    const XrInternalEntry* slots = XrInternalSlots(p);
    for (uint32_t i = 0; i < h->count && ids.size() < max_pages; ++i) {
      ids.push_back(slots[i].child);
    }
  }
  return ids;
}

/// Leaf page ids in chain order (leftmost descent, then `next` links).
Result<std::vector<PageId>> LeafPages(BufferPool* pool, PageId root) {
  PageId id = root;
  for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
    XR_ASSIGN_OR_RETURN(Page * p, pool->FetchPage(id));
    PageGuard g(pool, p);
    if (XrHeader(p)->magic != kXrInternalMagic) break;
    id = XrHeader(p)->leftmost;
  }
  std::vector<PageId> leaves;
  while (id != kInvalidPageId) {
    leaves.push_back(id);
    XR_ASSIGN_OR_RETURN(Page * p, pool->FetchPage(id));
    PageGuard g(pool, p);
    id = XrHeader(p)->next;
  }
  return leaves;
}

/// p50 per-operation cost of FetchPage+UnpinPage on resident pages, timed
/// in batches of kBatch (one span per batch) on `threads` threads at once.
Result<double> FetchHitNs(BufferPool* pool, const std::vector<PageId>& ids,
                          int threads, Tracer* tracer) {
  constexpr int kBatch = 64;
  constexpr int kBatches = 1500;
  for (PageId id : ids) {  // make resident before timing
    auto p = pool->FetchPage(id);
    if (!p.ok()) return p.status();
    XR_RETURN_IF_ERROR(pool->UnpinPage(id, false));
  }
  std::vector<std::vector<double>> per_thread(threads);
  std::atomic<bool> failed{false};
  std::atomic<int> ready{0};
  auto body = [&](int t) {
    ready.fetch_add(1);
    while (ready.load() < threads) {
    }
    size_t k = static_cast<size_t>(t);
    for (int b = 0; b < kBatches; ++b) {
      const uint64_t trace = tracer->NewTrace();
      int64_t ns = TimeCall(tracer, "storage.FetchPage+UnpinPage.x64", trace,
                            0, [&] {
                              for (int i = 0; i < kBatch; ++i) {
                                PageId id = ids[k++ % ids.size()];
                                auto p = pool->FetchPage(id);
                                if (!p.ok() || !pool->UnpinPage(id, false).ok()) {
                                  failed.store(true);
                                }
                              }
                            });
      per_thread[t].push_back(static_cast<double>(ns) / kBatch);
    }
  };
  std::vector<std::thread> pool_threads;
  for (int t = 1; t < threads; ++t) pool_threads.emplace_back(body, t);
  body(0);
  for (auto& th : pool_threads) th.join();
  if (failed.load()) return Status::Aborted("fetch probe failed");
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return Quantile(all, 0.5);
}

/// Per-leaf decode cost. Compressed leaves are decoded from the pool frame;
/// a fixed-format leaf is first encoded into a scratch page, so fixed-page
/// workloads report what decoding the same leaves would cost.
Status DecodeProbe(BufferPool* pool, const std::vector<PageId>& leaves,
                   Tracer* tracer, std::vector<double>* full_ns,
                   std::vector<double>* from_ns) {
  constexpr int kReps = 9;
  auto scratch = std::make_unique<Page>();
  std::vector<Element> out;
  out.reserve(kXrcMaxPageEntries);
  for (PageId id : leaves) {
    XR_ASSIGN_OR_RETURN(Page * p, pool->FetchPage(id));
    PageGuard g(pool, p);
    const Page* src = p;
    if (!XrLeafIsCompressed(p)) {
      const uint32_t n = XrHeader(p)->count;
      if (n == 0) continue;
      std::memcpy(scratch->data(), p->data(), sizeof(XrPageHeader));
      size_t fit = XrcEncodeLeaf(scratch.get(), XrLeafSlots(p), n);
      if (fit != n) return Status::Aborted("leaf does not fit compressed");
      src = scratch.get();
    }
    out.clear();
    XR_RETURN_IF_ERROR(XrcDecodeLeaf(src, &out));
    if (out.empty()) continue;
    const Position mid = out[out.size() / 2].start;
    std::vector<double> f, m;
    Status st;
    for (int r = 0; r < kReps; ++r) {
      const uint64_t trace = tracer->NewTrace();
      f.push_back(TimeCall(tracer, "xrtree.XrcDecodeLeaf", trace, 0, [&] {
        out.clear();
        st = XrcDecodeLeaf(src, &out);
      }));
      XR_RETURN_IF_ERROR(st);
      m.push_back(TimeCall(tracer, "xrtree.XrcDecodeLeafFrom", trace, 0, [&] {
        out.clear();
        st = XrcDecodeLeafFrom(src, mid, &out);
      }));
      XR_RETURN_IF_ERROR(st);
    }
    full_ns->push_back(Quantile(f, 0.5));
    from_ns->push_back(Quantile(m, 0.5));
  }
  return Status::Ok();
}

/// Median wall time (ms) of `reps` runs of `fn`, stopping early once
/// `budget_s` has been spent (at least one run always happens).
template <typename F>
Result<double> MedianMs(int reps, double budget_s, F&& fn) {
  std::vector<double> ms;
  const int64_t start = NowNs();
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    XR_RETURN_IF_ERROR(fn());
    ms.push_back((NowNs() - t0) / 1e6);
    if ((NowNs() - start) / 1e9 > budget_s) break;
  }
  return Quantile(ms, 0.5);
}

struct ProbeContext {
  const WorkloadConfig* c;
  BufferPool* pool;
  const XrTree* a;
  const XrTree* d;
  const ElementList* d_content;  ///< sorted descendant tree content
  uint64_t truth;                ///< exact pairs for the quiescent trees
  Tracer* tracer;
  Report* report;
};

Status RunLayerProbes(const ProbeContext& x) {
  Report& rep = *x.report;
  Tracer* tr = x.tracer;
  BufferPool* pool = x.pool;

  // storage: hit path, one thread and four threads on the upper pages.
  XR_ASSIGN_OR_RETURN(std::vector<PageId> upper,
                      UpperPages(pool, x.a->root(), 8));
  XR_ASSIGN_OR_RETURN(std::vector<PageId> upper_d,
                      UpperPages(pool, x.d->root(), 8));
  upper.insert(upper.end(), upper_d.begin(), upper_d.end());
  XR_ASSIGN_OR_RETURN(double hit1, FetchHitNs(pool, upper, 1, tr));
  XR_ASSIGN_OR_RETURN(double hit4, FetchHitNs(pool, upper, 4, tr));
  rep.Set("storage.fetch_hit_ns", hit1, "ns");
  rep.Set("storage.fetch_hit_ns_4t", hit4, "ns");

  // xrtree: XR-stack probe replay — FindAncestorsAbove(d.start, previous
  // d.start) over every descendant in document order.
  {
    std::vector<double> ns;
    uint64_t scanned = 0;
    Position prev = 0;
    IoStats before = pool->stats();
    const int64_t start = NowNs();
    Status st;
    for (const Element& e : *x.d_content) {
      const uint64_t trace = tr->NewTrace();
      ns.push_back(static_cast<double>(
          TimeCall(tr, "xrtree.FindAncestorsAbove", trace, 0, [&] {
            auto r = x.a->FindAncestorsAbove(e.start, prev, &scanned);
            if (!r.ok()) st = r.status();
          })));
      XR_RETURN_IF_ERROR(st);
      prev = e.start;
      if ((NowNs() - start) / 1e9 > 5.0) break;
    }
    IoStats io = pool->stats() - before;
    rep.Set("xrtree.probe_ns", Quantile(ns, 0.5), "ns");
    rep.Set("xrtree.fetches_per_probe", Ratio(Fetches(io), ns.size()),
            "count");
    rep.Set("xrtree.scanned_per_probe", Ratio(scanned, ns.size()), "count");
    rep.Set("xrtree.probes", static_cast<double>(ns.size()), "count");
  }

  // xrtree: LowerBound at descendant starts (the join's skip primitive).
  {
    std::vector<double> ns;
    const size_t step = std::max<size_t>(1, x.d_content->size() / 4000);
    Status st;
    for (size_t i = 0; i < x.d_content->size(); i += step) {
      const Position key = (*x.d_content)[i].start;
      const uint64_t trace = tr->NewTrace();
      ns.push_back(static_cast<double>(
          TimeCall(tr, "xrtree.LowerBound", trace, 0, [&] {
            auto it = x.d->LowerBound(key);
            if (!it.ok()) st = it.status();
          })));
      XR_RETURN_IF_ERROR(st);
    }
    rep.Set("xrtree.seek_ns", Quantile(ns, 0.5), "ns");
  }

  // xrtree: full Begin()/Next() scans of both trees; page footprint.
  {
    XR_ASSIGN_OR_RETURN(StabStats sa, x.a->ComputeStabStats());
    XR_ASSIGN_OR_RETURN(StabStats sd, x.d->ComputeStabStats());
    XR_ASSIGN_OR_RETURN(uint32_t ha, x.a->Height());
    XR_ASSIGN_OR_RETURN(uint32_t hd, x.d->Height());
    const uint64_t leaves = sa.leaf_pages + sd.leaf_pages;
    rep.Set("xrtree.leaf_pages", static_cast<double>(leaves), "count");
    rep.Set("xrtree.stab_pages",
            static_cast<double>(sa.stab_pages + sd.stab_pages), "count");
    rep.Set("xrtree.height", static_cast<double>(std::max(ha, hd)), "count");

    std::vector<double> per_elem;
    uint64_t fetches = 0;
    for (int r = 0; r < 3; ++r) {
      uint64_t elements = 0;
      IoStats before = pool->stats();
      const uint64_t trace = tr->NewTrace();
      Status st;
      int64_t ns = 0;
      for (const XrTree* t : {x.a, x.d}) {
        ns += TimeCall(tr, "xrtree.scan", trace, 0, [&] {
          auto it = t->Begin();
          if (!it.ok()) {
            st = it.status();
            return;
          }
          while (it->Valid()) {
            ++elements;
            Status n = it->Next();
            if (!n.ok()) {
              st = n;
              return;
            }
          }
        });
        XR_RETURN_IF_ERROR(st);
      }
      fetches = Fetches(pool->stats() - before);
      per_elem.push_back(Ratio(static_cast<double>(ns), elements));
    }
    rep.Set("xrtree.scan_ns_per_element", Quantile(per_elem, 0.5), "ns");
    rep.Set("xrtree.fetches_per_leaf", Ratio(fetches, leaves), "count");
  }

  // xrtree: leaf decode, whole page and from a mid-page key.
  {
    std::vector<double> full, from;
    for (const XrTree* t : {x.a, x.d}) {
      XR_ASSIGN_OR_RETURN(std::vector<PageId> leaves,
                          LeafPages(pool, t->root()));
      XR_RETURN_IF_ERROR(DecodeProbe(pool, leaves, tr, &full, &from));
    }
    rep.Set("xrtree.decode_leaf_ns", Quantile(full, 0.5), "ns");
    rep.Set("xrtree.decode_from_ns", Quantile(from, 0.5), "ns");
  }

  // join: serial, parallel and each partition range alone.
  {
    const JoinOptions serial = JoinOptionsFor(*x.c, 1);
    const JoinOptions par = JoinOptionsFor(*x.c, 4);
    auto timed_join = [&](const char* name, const JoinOptions& o) {
      return [&, name, o]() -> Status {
        const uint64_t trace = tr->NewTrace();
        Result<JoinOutput> out = Status::Aborted("not run");
        TimeCall(tr, name, trace, 0, [&] { out = RunJoin(*x.a, *x.d, o); });
        pool->WaitForPrefetchIdle();
        if (!out.ok()) return out.status();
        if (out->stats.output_pairs != x.truth) {
          return Status::Aborted(std::string(name) + ": wrong pair count");
        }
        return Status::Ok();
      };
    };
    XR_ASSIGN_OR_RETURN(double serial_ms,
                        MedianMs(5, 4.0, timed_join("join.XrStackJoin",
                                                    serial)));
    XR_ASSIGN_OR_RETURN(
        double par_ms,
        MedianMs(5, 4.0, timed_join("join.ParallelXrStackJoin", par)));
    XR_ASSIGN_OR_RETURN(auto ranges, PlanJoinPartitions(*x.a, 4));
    std::vector<double> range_ms;
    uint64_t range_pairs = 0;
    for (const auto& [lo, hi] : ranges) {
      uint64_t pairs = 0;
      XR_ASSIGN_OR_RETURN(double ms, MedianMs(5, 2.0, [&]() -> Status {
        const uint64_t trace = tr->NewTrace();
        Result<JoinOutput> out = Status::Aborted("not run");
        TimeCall(tr, "join.XrStackJoinRange", trace, 0, [&] {
          out = XrStackJoinRange(*x.a, *x.d, lo, hi, serial);
        });
        pool->WaitForPrefetchIdle();
        if (!out.ok()) return out.status();
        pairs = out->stats.output_pairs;
        return Status::Ok();
      }));
      range_ms.push_back(ms);
      range_pairs += pairs;
    }
    if (range_pairs != x.truth) {
      return Status::Aborted("partition ranges do not sum to the truth");
    }
    double max_ms = *std::max_element(range_ms.begin(), range_ms.end());
    double mean_ms = 0;
    for (double v : range_ms) mean_ms += v / range_ms.size();
    rep.Set("join.serial_ms", serial_ms, "ms");
    rep.Set("join.parallel_ms", par_ms, "ms");
    rep.Set("join.speedup", Ratio(serial_ms, par_ms), "ratio");
    rep.Set("join.ranges", static_cast<double>(range_ms.size()), "count");
    rep.Set("join.range_ms_max", max_ms, "ms");
    rep.Set("join.range_skew", Ratio(max_ms, mean_ms), "ratio");
    rep.Set("join.parallel_overhead_ms", par_ms - max_ms, "ms");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reporting helpers

void SetJoinMetrics(const JoinPhase& jp, int clients, Report* rep) {
  rep->Set("join_p50_ms", Quantile(jp.lat_ms, 0.5), "ms");
  rep->Set("join_p90_ms", Quantile(jp.lat_ms, 0.9), "ms");
  rep->Set("joins_per_s", Ratio(jp.joins, jp.seconds), "1/s");
  rep->Set("joins", static_cast<double>(jp.joins), "count");
  rep->Set("join_clients", clients, "count");
  const double n = static_cast<double>(jp.joins);
  const IoStats& io = jp.io;
  rep->Set("storage.fetches_per_join", Ratio(Fetches(io), n), "count");
  rep->Set("storage.misses_per_join", Ratio(io.buffer_misses, n), "count");
  rep->Set("storage.disk_reads_per_join", Ratio(io.disk_reads, n), "count");
  rep->Set("storage.read_batch_width", Ratio(io.disk_reads, io.read_batches),
           "pages");
  rep->Set("storage.prefetch_issued_per_join", Ratio(io.prefetch_issued, n),
           "count");
  rep->Set("storage.prefetch_hit_ratio",
           Ratio(io.prefetch_hits, io.prefetch_issued), "ratio");
  rep->Set("storage.prefetch_wasted_per_join", Ratio(io.prefetch_wasted, n),
           "count");
  rep->Set("storage.exhausted_waits_per_join",
           Ratio(io.pool_exhausted_waits, n), "count");
  rep->Set("join.elements_scanned_per_join", Ratio(jp.scanned, n), "count");
  if (!jp.traced_lat_ms.empty() && !jp.lat_ms.empty()) {
    rep->Set("trace.join_p50_overhead_ms",
             Quantile(jp.traced_lat_ms, 0.5) - Quantile(jp.lat_ms, 0.5), "ms");
  }
}

void SetWriteMetrics(const WriteStats& w, Report* rep) {
  rep->Set("insert_p50_us", Quantile(w.insert_us, 0.5), "us");
  rep->Set("insert_p90_us", Quantile(w.insert_us, 0.9), "us");
  rep->Set("insert_p99_us", Quantile(w.insert_us, 0.99), "us");
  rep->Set("delete_p50_us", Quantile(w.delete_us, 0.5), "us");
  rep->Set("delete_p90_us", Quantile(w.delete_us, 0.9), "us");
  rep->Set("delete_p99_us", Quantile(w.delete_us, 0.99), "us");
  rep->Set("writes", static_cast<double>(w.ops), "count");
  rep->Set("writer.late_p50_us", Quantile(w.late_us, 0.5), "us");
  rep->Set("writer.late_p99_us", Quantile(w.late_us, 0.99), "us");
  rep->Set("writer.late_max_us",
           w.late_us.empty()
               ? 0.0
               : *std::max_element(w.late_us.begin(), w.late_us.end()),
           "us");
  rep->Set("storage.disk_writes_per_write", Ratio(w.disk_writes, w.ops),
           "count");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string report_path;
  std::string spans_path;
  std::string data_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--report") {
      a->report_path = v;
    } else if (k == "--spans") {
      a->spans_path = v;
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) return false;
  return have_workload && a->seconds > 0;
}

bool WriteReport(const std::string& path, const Args& args,
                 const WorkloadConfig& c, const Inputs& in, uint64_t truth,
                 uint64_t attempted, uint64_t failed, const Report& rep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               Quote(c.name).c_str(), (unsigned long long)args.seed);
  std::fprintf(f, "  \"seconds\": %s,\n  \"trace\": %s,\n",
               Num(args.seconds).c_str(), args.trace ? "true" : "false");
  std::fprintf(
      f,
      "  \"config\": {\"corpus\": \"department employee//name\", "
      "\"target_elements\": %llu, \"ancestors\": %zu, \"descendants\": %zu, "
      "\"page_format\": %s, \"pool_frames\": %zu, \"miss_latency_us\": %llu, "
      "\"join_threads\": %u, \"prefetch_depth\": %u, "
      "\"adaptive_prefetch\": %s, \"join_clients\": %d, "
      "\"concurrent_writer\": %s, \"write_rate_ops_per_s\": %s, "
      "\"slice_pairs\": %zu, "
      "\"setup_reps\": %d, \"wal\": false, \"fsync\": false},\n",
      (unsigned long long)kCorpusElements, in.ds.ancestors.size(),
      in.ds.descendants.size(),
      Quote(c.compressed ? "compressed" : "fixed").c_str(), c.pool_frames,
      (unsigned long long)c.miss_latency_us, c.join_threads, c.prefetch_depth,
      c.adaptive_prefetch ? "true" : "false", c.reader_clients,
      c.concurrent_writer ? "true" : "false", Num(c.write_rate).c_str(),
      c.slice_pairs, kSetupReps);
  std::fprintf(f, "  \"truth_pairs\": %llu,\n", (unsigned long long)truth);
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n",
               rep.correct() ? "true" : "false",
               (unsigned long long)attempted);
  std::fprintf(f, "  \"failed\": %llu,\n  \"checks\": [",
               (unsigned long long)failed);
  for (size_t i = 0; i < rep.checks().size(); ++i) {
    std::fprintf(f, "%s{\"check\": %s, \"ok\": %s}", i ? ", " : "",
                 Quote(rep.checks()[i].first).c_str(),
                 rep.checks()[i].second ? "true" : "false");
  }
  std::fprintf(f, "],\n  \"metrics\": {");
  for (size_t i = 0; i < rep.metrics().size(); ++i) {
    const Metric& m = rep.metrics()[i];
    std::fprintf(f, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                 i ? "," : "", Quote(m.name).c_str(), Num(m.value).c_str(),
                 Quote(m.unit).c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xrbench --workload hot-join|cold-join|churn --seed N "
                 "--seconds S --trace 0|1 [--report PATH] [--spans PATH] "
                 "[--data-dir DIR]\n");
    return 2;
  }
  WorkloadConfig c;
  if (!LookupWorkload(args.workload, &c)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  Report rep;
  int file_seq = 0;
  auto data_path = [&] {
    return args.data_dir + "/" + c.name + "-" + std::to_string(::getpid()) +
           "-" + std::to_string(file_seq++) + ".db";
  };

  // Inputs from the seed (not part of set-up time).
  Inputs in;
  {
    auto ds = MakeDepartmentDataset(kCorpusElements, args.seed);
    if (!ds.ok()) {
      std::fprintf(stderr, "corpus: %s\n", ds.status().ToString().c_str());
      return 1;
    }
    in.ds = std::move(ds).value();
  }
  const ElementList& anc = in.ds.ancestors;
  if (c.concurrent_writer) {
    std::vector<Element> held;
    for (size_t i = 0; i < in.ds.descendants.size(); ++i) {
      (i % 4 != 3 ? in.d_base : held).push_back(in.ds.descendants[i]);
    }
    SeededShuffle(&held, args.seed ^ 0xC0FFEEull);
    if (held.size() < 2 * kChurnLag) {
      std::fprintf(stderr, "corpus too small for churn\n");
      return 1;
    }
    in.inserted.assign(held.begin(), held.begin() + kChurnLag);
    in.held.assign(held.begin() + kChurnLag, held.end());
    in.d_initial = in.d_base;
    in.d_initial.insert(in.d_initial.end(), in.inserted.begin(),
                        in.inserted.end());
    std::sort(in.d_initial.begin(), in.d_initial.end());
  } else {
    in.d_initial = in.ds.descendants;
  }

  // Set-up, repeated; setup_s is the median. Every fixture is kept and the
  // timed phase rotates across them (joins and write slices round-robin;
  // churn in equal time segments), so one run's figures average over
  // several memory layouts of the pool instead of depending on one.
  std::vector<double> setup_s;
  std::vector<Built> fixtures(kSetupReps);
  for (Built& f : fixtures) {
    const std::string path = data_path();
    const int64_t t0 = NowNs();
    Status st = SetUp(c, in, path, &f);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  rep.Set("setup_s", Quantile(setup_s, 0.5), "s");
  for (Built& f : fixtures) {
    f.held = in.held;
    f.inserted = in.inserted;
  }
  XrTreeOptions xopt;
  xopt.compressed_pages = c.compressed;
  Built& last = fixtures.back();
  BufferPool* pool = last.fx->pool();
  XrTree& a = *last.a;
  XrTree& d = *last.d;

  // Correctness gate: Stack-Tree-Desc over element files vs serial XR-stack
  // on a fresh latency-free pool over each measured database file. The same
  // fresh pool measures the exact page footprint.
  uint64_t truth = 0;
  {
    auto sd = StackTreeDescTruth(anc, in.d_initial, data_path());
    if (!sd.ok()) {
      std::fprintf(stderr, "truth: %s\n", sd.status().ToString().c_str());
      return 1;
    }
    truth = *sd;
  }
  for (Built& f : fixtures) {
    rep.Check(f.fx->pool()->FlushAll().ok(),
              "flush before the fresh-pool truth join");
    f.fx->SetLatencyUs(0);
    {
      BufferPool fresh(f.fx->disk(), kBuildPoolFrames);
      XrTree fa(&fresh, f.a->root(), xopt);
      XrTree fd(&fresh, f.d->root(), xopt);
      JoinOptions o;
      o.materialize = false;
      auto xr = XrStackJoin(fa, fd, o);
      rep.Check(xr.ok() && xr->stats.output_pairs == truth,
                "serial XR-stack on a fresh pool equals Stack-Tree-Desc (" +
                    std::to_string(truth) + " pairs)");
      auto sa = fa.ComputeStabStats();
      auto sdd = fd.ComputeStabStats();
      if (sa.ok() && sdd.ok()) {
        uint64_t pages = 0;
        for (const StabStats& st : {*sa, *sdd}) {
          pages += st.leaf_pages + st.stab_pages + st.ps_dir_pages +
                   st.internal_nodes;
        }
        rep.Set("bytes_per_element",
                Ratio(static_cast<double>(pages * kPageSize),
                      static_cast<double>(anc.size() + in.d_initial.size())),
                "B");
        rep.Set("index_pages", static_cast<double>(pages), "count");
      } else {
        rep.Check(false, "page footprint");
      }
    }
    f.fx->SetLatencyUs(c.miss_latency_us);
  }
  uint64_t lo_pairs = truth, hi_pairs = truth;
  if (c.concurrent_writer) {
    lo_pairs = VectorTruth(anc, in.d_base);
    hi_pairs = VectorTruth(anc, in.ds.descendants);
  }

  uint64_t attempted = 0, failed = 0;
  JoinPhase jp;
  WriteStats w;
  if (!c.concurrent_writer) {
    uint64_t state = args.seed ^ 0xD1E7ull;
    const size_t n = std::min(kWriteWindow, in.d_initial.size());
    const size_t offset = Mix(&state) % (in.d_initial.size() - n + 1);
    const ElementList window(in.d_initial.begin() + offset,
                             in.d_initial.begin() + offset + n);
    jp = RunSingleClient(c, fixtures, truth, window, args.seconds,
                         tracer.get(), &w);
  } else {
    // Churn: two closed-loop serial readers + one open-loop writer that
    // alternates Insert(held-out) with Delete(oldest inserted), all on the
    // fixture of the current time segment.
    std::atomic<bool> stop{false};
    std::atomic<size_t> seg{0};
    std::atomic<uint64_t> joins_done{0};
    std::vector<JoinPhase> per_reader(c.reader_clients);
    const JoinOptions o = JoinOptionsFor(c, 1);
    std::vector<IoStats> before;
    for (Built& f : fixtures) before.push_back(f.fx->pool()->stats());
    const int64_t t0 = NowNs();
    std::vector<std::thread> readers;
    for (int r = 0; r < c.reader_clients; ++r) {
      readers.emplace_back([&, r] {
        JoinPhase& me = per_reader[r];
        while (!stop.load(std::memory_order_acquire)) {
          Built& f = fixtures[seg.load(std::memory_order_acquire)];
          const bool traced = tracer != nullptr && me.joins % 2 == 1;
          Tracer* tr = traced ? tracer.get() : nullptr;
          const uint64_t trace = tr != nullptr ? tr->NewTrace() : 0;
          Result<JoinOutput> out = Status::Aborted("not run");
          int64_t ns = TimeCall(tr, "join.XrStackJoin", trace, 0,
                                [&] { out = XrStackJoin(*f.a, *f.d, o); });
          ++me.joins;
          joins_done.fetch_add(1, std::memory_order_relaxed);
          (traced ? me.traced_lat_ms : me.lat_ms).push_back(ns / 1e6);
          if (!out.ok() || out->stats.output_pairs < lo_pairs ||
              out->stats.output_pairs > hi_pairs) {
            ++me.failed;
          }
          if (out.ok()) me.scanned += out->stats.elements_scanned;
        }
      });
    }
    std::thread writer([&] {
      RunWriter(UINT64_MAX, c.write_rate, &stop, &w,
                [&](uint64_t n, bool* is_insert) {
                  Built& f = fixtures[seg.load(std::memory_order_acquire)];
                  *is_insert = n % 2 == 0;
                  Tracer* tr = tracer.get();
                  const uint64_t trace = tr != nullptr ? tr->NewTrace() : 0;
                  Status st;
                  if (*is_insert) {
                    Element e = f.held.front();
                    f.held.pop_front();
                    TimeCall(tr, "xrtree.Insert", trace, 0,
                             [&] { st = f.d->Insert(e); });
                    (st.ok() ? f.inserted : f.held).push_back(e);
                  } else {
                    Element e = f.inserted.front();
                    f.inserted.pop_front();
                    TimeCall(tr, "xrtree.Delete", trace, 0,
                             [&] { st = f.d->Delete(e.start); });
                    (st.ok() ? f.held : f.inserted).push_back(e);
                  }
                  return st.ok();
                });
    });
    const double run_s = std::min(args.seconds, kMaxJoinPhaseSeconds);
    for (size_t i = 0; i < fixtures.size(); ++i) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              t0 + static_cast<int64_t>(run_s * 1e9 * (i + 1) /
                                        fixtures.size()))));
      if (i + 1 < fixtures.size()) seg.store(i + 1, std::memory_order_release);
    }
    while (joins_done.load(std::memory_order_relaxed) < kMinJoins &&
           (NowNs() - t0) / 1e9 < kMaxJoinPhaseSeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    writer.join();
    jp.seconds = (NowNs() - t0) / 1e9;
    for (const JoinPhase& p : per_reader) {
      jp.lat_ms.insert(jp.lat_ms.end(), p.lat_ms.begin(), p.lat_ms.end());
      jp.traced_lat_ms.insert(jp.traced_lat_ms.end(), p.traced_lat_ms.begin(),
                              p.traced_lat_ms.end());
      jp.joins += p.joins;
      jp.failed += p.failed;
      jp.scanned += p.scanned;
    }
    for (size_t i = 0; i < fixtures.size(); ++i) {
      IoStats io = fixtures[i].fx->pool()->stats() - before[i];
      jp.io += io;
      w.disk_writes += io.disk_writes;
    }
  }
  attempted += jp.joins;
  failed += jp.failed;
  rep.Check(jp.joins >= kMinJoins,
            "at least " + std::to_string(kMinJoins) + " timed joins");
  SetJoinMetrics(jp, c.reader_clients, &rep);

  // The quiescent descendant content of a fixture, for the probes and the
  // final check.
  auto content_of = [&](const Built& f) {
    if (!c.concurrent_writer) return in.d_initial;
    ElementList content = in.d_base;
    content.insert(content.end(), f.inserted.begin(), f.inserted.end());
    std::sort(content.begin(), content.end());
    return content;
  };
  const ElementList d_content = content_of(last);
  const uint64_t quiescent_truth =
      c.concurrent_writer ? VectorTruth(anc, d_content) : truth;

  if (tracer != nullptr) {
    ProbeContext x{&c, pool, &a, &d, &d_content, quiescent_truth,
                   tracer.get(), &rep};
    Status st = RunLayerProbes(x);
    rep.Check(st.ok(), "per-layer probes: " + st.ToString());
  }

  if (c.concurrent_writer && tracer != nullptr) {
    // Churn's writer shares the pool with the readers, so per-operation
    // fetch counts come from a short single-threaded replay.
    for (size_t i = 0; i < kChurnReplayPairs && !last.held.empty(); ++i) {
      Element e = last.held.front();
      IoStats b0 = pool->stats();
      Status si = d.Insert(e);
      IoStats b1 = pool->stats();
      Status sd = si.ok() ? d.Delete(e.start) : si;
      IoStats b2 = pool->stats();
      ++attempted;
      if (!si.ok() || !sd.ok()) ++failed;
      w.insert_fetches += Fetches(b1 - b0);
      w.delete_fetches += Fetches(b2 - b1);
      last.held.pop_front();
      last.held.push_back(e);
    }
  }
  attempted += w.ops;
  failed += w.failed;
  SetWriteMetrics(w, &rep);
  if (tracer != nullptr) {
    const double pairs = c.concurrent_writer
                             ? static_cast<double>(kChurnReplayPairs)
                             : w.ops / 2.0;
    rep.Set("xrtree.insert_fetches", Ratio(w.insert_fetches, pairs), "count");
    rep.Set("xrtree.delete_fetches", Ratio(w.delete_fetches, pairs), "count");
  }

  // Final quiescent check on every fixture: exact join and full structural
  // validation.
  for (Built& f : fixtures) {
    f.fx->SetLatencyUs(0);
    const uint64_t expect =
        c.concurrent_writer ? VectorTruth(anc, content_of(f)) : truth;
    JoinOptions o;
    o.materialize = false;
    auto fin = XrStackJoin(*f.a, *f.d, o);
    rep.Check(fin.ok() && fin->stats.output_pairs == expect,
              "post-run exact join equals the truth (" +
                  std::to_string(expect) + " pairs)");
    Status ca = f.a->CheckConsistency();
    Status cd = f.d->CheckConsistency();
    rep.Check(ca.ok() && cd.ok(), "post-run CheckConsistency on both trees: " +
                                      ca.ToString() + " / " + cd.ToString());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.Set("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");
  rep.Set("error_rate", Ratio(failed, attempted), "ratio");
  rep.Check(failed == 0, "no failed or wrong operations");
  if (c.concurrent_writer) {
    rep.Set("churn.base_pairs", static_cast<double>(lo_pairs), "count");
    rep.Set("churn.full_pairs", static_cast<double>(hi_pairs), "count");
  }

  std::string metrics;
  for (const std::string& name : args.trace ? kPerLayer : kEndToEnd) {
    const Metric* m = rep.Find(name);
    rep.Check(m != nullptr, "metric " + name + " measured");
    if (m == nullptr) continue;
    metrics += (metrics.empty() ? "" : ", ") + Quote(m->name) +
               ": {\"value\": " + Num(m->value) + ", \"unit\": " +
               Quote(m->unit) + "}";
  }

  // Human-readable table, then the report file, spans, and the result line.
  std::printf("workload=%s seed=%llu seconds=%s trace=%d truth_pairs=%llu\n",
              c.name.c_str(), (unsigned long long)args.seed,
              Num(args.seconds).c_str(), args.trace ? 1 : 0,
              (unsigned long long)truth);
  for (const Metric& m : rep.metrics()) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [what, ok] : rep.checks()) {
    std::printf("  check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
  if (!args.report_path.empty() &&
      !WriteReport(args.report_path, args, c, in, truth, attempted, failed,
                   rep)) {
    std::fprintf(stderr, "cannot write %s\n", args.report_path.c_str());
    return 1;
  }
  if (tracer != nullptr && !args.spans_path.empty() &&
      !tracer->Write(args.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    return 1;
  }
  const std::string line =
      "{\"correct\": " + std::string(rep.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
      metrics + "}}";
  std::printf("%s\n", line.c_str());
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace xrtree

int main(int argc, char** argv) { return xrtree::perfbench::Main(argc, argv); }
