#include "join/parallel_join.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "join/xr_stack.h"

namespace xrtree {

namespace {

/// The emission order of Algorithm 6: descendant start, then ancestor
/// start (the stack is drained outermost-first for each descendant).
bool EmissionLess(const JoinPair& x, const JoinPair& y) {
  if (x.descendant.start != y.descendant.start) {
    return x.descendant.start < y.descendant.start;
  }
  return x.ancestor.start < y.ancestor.start;
}

/// Splices `part` onto `merged`, preserving global emission order. Both
/// inputs are emission-ordered, and every pair of `part` comes from a
/// strictly later ancestor range, so only the tail of `merged` whose
/// descendants overlap `part`'s window can interleave — locate it with one
/// binary search and inplace_merge just that span. Disjoint windows reduce
/// to a pure concatenation.
void MergeEmissionOrdered(std::vector<JoinPair>* merged,
                          std::vector<JoinPair>&& part) {
  if (part.empty()) return;
  if (merged->empty()) {
    *merged = std::move(part);
    return;
  }
  const Position first_d = part.front().descendant.start;
  auto overlap = std::lower_bound(
      merged->begin(), merged->end(), first_d,
      [](const JoinPair& p, Position d) { return p.descendant.start < d; });
  const size_t mid = merged->size();
  const size_t overlap_at = static_cast<size_t>(overlap - merged->begin());
  merged->insert(merged->end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  if (overlap_at < mid) {
    std::inplace_merge(merged->begin() + overlap_at, merged->begin() + mid,
                       merged->end(), EmissionLess);
  }
}

/// The range tasks of one ParallelXrStackJoin call. The caller runs task
/// 0; tasks 1.. are claimed by index, so whoever gets to one first runs
/// it: a worker, or the caller helping to drain its own join.
struct RangeTasks {
  RangeTasks(size_t count, std::function<void(size_t)> run)
      : count(count), run(std::move(run)) {}

  void Run(size_t i) {
    run(i);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++finished;
    }
    done.notify_all();
  }

  /// Claims and runs the next unclaimed task; false when none was left.
  /// Touches `run` (and the caller state it refers to) only after a claim
  /// succeeds, so a worker holding a ticket for a join that has already
  /// returned does nothing.
  bool RunNext() {
    const size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return false;
    Run(i);
    return true;
  }

  void WaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return finished == count; });
  }

  const size_t count;
  const std::function<void(size_t)> run;
  std::atomic<size_t> next{1};
  std::mutex mu;
  std::condition_variable done;
  size_t finished = 0;  ///< guarded by mu
};

/// The threads that run ParallelXrStackJoin's range tasks (DESIGN.md §9),
/// shared by every call in the process. Started on first use and grown to
/// the most tasks any one join has posted; idle workers wait on the queue.
/// The function-local static is destroyed at process exit, which joins
/// them.
class RangeWorkers {
 public:
  static RangeWorkers& Instance() {
    static RangeWorkers workers;
    return workers;
  }

  ~RangeWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  RangeWorkers(const RangeWorkers&) = delete;
  RangeWorkers& operator=(const RangeWorkers&) = delete;

  /// Queues one ticket per task of `tasks` but the caller's own first
  /// one, starting workers until there are that many.
  void Post(const std::shared_ptr<RangeTasks>& tasks) {
    const size_t tickets = tasks->count - 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < tickets) {
        threads_.emplace_back([this] { Work(); });
      }
      for (size_t i = 0; i < tickets; ++i) queue_.push_back(tasks);
    }
    for (size_t i = 0; i < tickets; ++i) ready_.notify_one();
  }

 private:
  RangeWorkers() = default;

  void Work() {
    for (;;) {
      std::shared_ptr<RangeTasks> tasks;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        tasks = std::move(queue_.front());
        queue_.pop_front();
      }
      tasks->RunNext();
    }
  }

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<RangeTasks>> queue_;  ///< one entry per ticket
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

}  // namespace

Result<std::vector<std::pair<Position, Position>>> PlanJoinPartitions(
    const XrTree& ancestors, uint32_t num_threads) {
  std::vector<std::pair<Position, Position>> ranges;
  if (num_threads > 1) {
    XR_ASSIGN_OR_RETURN(std::vector<Position> keys,
                        ancestors.PartitionKeys(num_threads - 1));
    Position lo = 0;
    for (Position k : keys) {
      // PartitionKeys can hand back duplicate separators (a heavily skewed
      // key distribution thins to repeated boundaries) and, under
      // concurrent writers, keys that no longer advance past `lo`. Either
      // way the range [k, k) is degenerate: a task run on it joins nothing
      // but still pays a queue hand-off + two descents. Drop it.
      if (k <= lo || k == kNilPosition) continue;
      ranges.emplace_back(lo, k);
      lo = k;
    }
    ranges.emplace_back(lo, kNilPosition);
  } else {
    ranges.emplace_back(0, kNilPosition);
  }
  return ranges;
}

Result<JoinOutput> ParallelXrStackJoin(const XrTree& ancestors,
                                       const XrTree& descendants,
                                       const JoinOptions& options) {
  XR_ASSIGN_OR_RETURN(auto ranges,
                      PlanJoinPartitions(ancestors, options.num_threads));
  if (ranges.size() <= 1) return XrStackJoin(ancestors, descendants, options);
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return Status::Aborted(kJoinCancelledMessage);
  }

  // One independent XR-stack task per range. Tasks share the caller's
  // pool (const queries are reader-concurrent, DESIGN.md §9) and keep all
  // join state in locals. They also share one cancellation flag: the first
  // range to fail sets it, and every sibling aborts at its next loop
  // iteration instead of scanning on toward a result that will be thrown
  // away. The caller's own flag is *relocated* to external_cancel, not
  // overwritten — workers observe both, so an external cancellation still
  // aborts the join promptly.
  std::atomic<bool> cancel{false};
  JoinOptions worker_options = options;
  // Each range sizes its read-ahead by its share of the pool.
  worker_options.num_threads = static_cast<uint32_t>(ranges.size());
  worker_options.external_cancel =
      options.cancel != nullptr ? options.cancel : options.external_cancel;
  worker_options.cancel = &cancel;
  std::vector<Result<JoinOutput>> results(
      ranges.size(),
      Result<JoinOutput>(Status::Aborted(kJoinCancelledMessage)));
  // The caller runs range 0 and then claims whatever ranges no worker has
  // started, so a join finishes even when every worker is busy with other
  // joins' tasks: concurrent callers cannot deadlock on the shared set.
  auto tasks = std::make_shared<RangeTasks>(ranges.size(), [&](size_t i) {
    results[i] = XrStackJoinRange(ancestors, descendants, ranges[i].first,
                                  ranges[i].second, worker_options);
    if (!results[i].ok()) cancel.store(true, std::memory_order_relaxed);
  });
  RangeWorkers::Instance().Post(tasks);
  tasks->Run(0);
  while (tasks->RunNext()) {
  }
  tasks->WaitAll();

  // Deterministic first-error selection: the lowest range index whose
  // error is a real failure (not the cancellation sentinel) wins,
  // independent of which worker's thread happened to fail first on this
  // scheduling. Cancelled siblings are casualties of that error, not
  // errors to report.
  uint32_t failed_ranges = 0;
  const Status* first_error = nullptr;
  const Status* first_cancelled = nullptr;
  for (const auto& r : results) {
    if (r.ok()) continue;
    ++failed_ranges;
    const Status& s = r.status();
    bool is_cancel_sentinel =
        s.IsAborted() && s.message() == kJoinCancelledMessage;
    if (is_cancel_sentinel) {
      if (first_cancelled == nullptr) first_cancelled = &s;
    } else if (first_error == nullptr) {
      first_error = &s;
    }
  }
  if (first_error == nullptr) first_error = first_cancelled;

  // A caller-cancelled join is not a failure to recover from: the caller
  // asked for the work to stop, so rerunning it serially (degrade path)
  // would do the opposite. Surface Aborted directly.
  const std::atomic<bool>* caller_flag = worker_options.external_cancel;
  if (caller_flag != nullptr &&
      caller_flag->load(std::memory_order_relaxed)) {
    return Status::Aborted(kJoinCancelledMessage);
  }

  if (first_error != nullptr) {
    if (options.degrade_to_serial && first_error->IsRetryable()) {
      // Graceful degradation: one thread pins far fewer frames and retries
      // with the pool's full backoff budget, so a transient that defeated
      // N concurrent workers usually clears. Serial output IS the
      // reference ordering, so the result is byte-identical by definition.
      JoinOptions serial_options = options;
      serial_options.num_threads = 1;
      auto serial = XrStackJoin(ancestors, descendants, serial_options);
      if (serial.ok()) {
        serial->stats.failed_ranges = failed_ranges;
        serial->stats.degraded_to_serial = true;
      }
      return serial;
    }
    return *first_error;
  }

  JoinOutput out;
  for (auto& r : results) {
    out.stats.output_pairs += r->stats.output_pairs;
    out.stats.elements_scanned += r->stats.elements_scanned;
    out.stats.probe_refills += r->stats.probe_refills;
    out.stats.probe_fallbacks += r->stats.probe_fallbacks;
    out.stats.probe_steps += r->stats.probe_steps;
    MergeEmissionOrdered(&out.pairs, std::move(r->pairs));
  }
  return out;
}

}  // namespace xrtree
