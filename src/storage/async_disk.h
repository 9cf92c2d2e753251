#ifndef XRTREE_STORAGE_ASYNC_DISK_H_
#define XRTREE_STORAGE_ASYNC_DISK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/disk_interface.h"

namespace xrtree {

/// Tuning knobs for the asynchronous read layer (DESIGN.md §13).
struct AsyncDiskOptions {
  /// Completion worker threads draining the submission queue. Each worker
  /// serves one submission at a time, so up to `workers` reads overlap on a
  /// device that serves independent requests concurrently.
  size_t workers = 8;
  /// Bounded queue depth: submissions beyond this are rejected with a
  /// retryable ResourceExhausted instead of blocking the submitter (the
  /// backpressure contract — a full queue must never deadlock).
  size_t queue_depth = 64;
};

/// io_uring-style submission/completion queue over a DiskInterface: Submit()
/// enqueues a run of PageReadRequest slots and returns immediately; a
/// completion worker performs the read (one base ReadBatch call, so
/// consecutive-id runs still collapse into one device submission) and then
/// invokes the caller's completion function on the worker thread.
///
/// Ownership: the request slots and everything the completion closure
/// touches must stay alive until the completion has run. The BufferPool,
/// whose only submissions are read-ahead runs, keeps that contract by
/// sharing each batch's state with its completion closures.
///
/// Thread-safe; Submit never blocks on the device. The destructor drains:
/// every accepted submission completes (read + completion) before the
/// workers are joined.
class AsyncDisk {
 public:
  explicit AsyncDisk(DiskInterface* base, const AsyncDiskOptions& options = {});
  ~AsyncDisk();

  AsyncDisk(const AsyncDisk&) = delete;
  AsyncDisk& operator=(const AsyncDisk&) = delete;

  /// Enqueues `n` request slots as one submission. On acceptance, a worker
  /// will call base->ReadBatch(requests, n) and then `completion()`. A full
  /// queue rejects with retryable ResourceExhausted and runs nothing — the
  /// caller falls back to an inline read (or retries).
  Status Submit(PageReadRequest* requests, size_t n,
                std::function<void()> completion);

  /// Blocks until the queue is empty and no submission is being served.
  void Drain();

  /// Queued-but-unserved plus currently-serving submissions (tests).
  size_t pending() const;

  uint64_t submissions() const {
    return submissions_.load(std::memory_order_relaxed);
  }
  uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }
  const AsyncDiskOptions& options() const { return options_; }

 private:
  struct Op {
    PageReadRequest* requests = nullptr;
    size_t n = 0;
    std::function<void()> completion;
  };

  void WorkerLoop();

  DiskInterface* const base_;
  const AsyncDiskOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes workers
  std::condition_variable drain_cv_;  // wakes Drain()
  std::deque<Op> queue_;              // guarded by mu_
  size_t active_ = 0;                 // submissions being served; mu_
  bool stop_ = false;                 // mu_
  std::vector<std::thread> workers_;  // spawned lazily on first Submit; mu_
  std::atomic<uint64_t> submissions_{0};
  std::atomic<uint64_t> rejections_{0};
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_ASYNC_DISK_H_
