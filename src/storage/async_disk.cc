#include "storage/async_disk.h"

#include <string>

namespace xrtree {

AsyncDisk::AsyncDisk(DiskInterface* base, const AsyncDiskOptions& options)
    : base_(base), options_(options) {}

AsyncDisk::~AsyncDisk() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain the queue before exiting (the wait predicate admits them
  // while ops remain), so every accepted submission completes.
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

Status AsyncDisk::Submit(PageReadRequest* requests, size_t n,
                         std::function<void()> completion) {
  if (requests == nullptr || n == 0) {
    return Status::InvalidArgument("AsyncDisk::Submit: empty submission");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::InvalidArgument("AsyncDisk::Submit after shutdown");
    }
    if (queue_.size() >= options_.queue_depth) {
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "async submission queue full (depth " +
          std::to_string(options_.queue_depth) + ")");
    }
    if (workers_.empty()) {
      size_t n_workers = options_.workers > 0 ? options_.workers : 1;
      workers_.reserve(n_workers);
      for (size_t i = 0; i < n_workers; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    Op op;
    op.requests = requests;
    op.n = n;
    op.completion = std::move(completion);
    queue_.push_back(std::move(op));
    submissions_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return Status::Ok();
}

void AsyncDisk::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested and fully drained
    Op op = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    // The device call and the caller's completion run with no AsyncDisk
    // lock held: completions take the pool latch and entry mutexes, and a
    // slow device read must not serialize the other workers.
    base_->ReadBatch(op.requests, op.n);
    if (op.completion) op.completion();
    op.completion = nullptr;  // destroy closure state outside mu_
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) drain_cv_.notify_all();
  }
}

void AsyncDisk::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

size_t AsyncDisk::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + active_;
}

}  // namespace xrtree
