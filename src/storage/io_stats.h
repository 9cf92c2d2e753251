#ifndef XRTREE_STORAGE_IO_STATS_H_
#define XRTREE_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace xrtree {

/// Every counter of a storage stack, in one list: the IoStats and
/// AtomicIoStats members and their arithmetic (operator-, operator+=,
/// Snapshot, Reset) are all generated from it, so adding a counter is one
/// line here (plus a clause in IoStats::ToString if it should print).
///
///   disk_reads, disk_writes
///       physical page reads / writes issued to the file.
///   read_batches
///       vectorized submissions (DiskInterface::ReadBatch): one per
///       contiguous run of page ids handed to the device in a single
///       positional vector read. `disk_reads` still counts every page, so
///       disk_reads / read_batches is the achieved batching factor. Every
///       pool read -- demand misses included, as single-page runs -- goes
///       through ReadBatch, so the factor covers all read traffic.
///   buffer_hits, buffer_misses
///       FetchPage satisfied from the pool / requiring a disk read.
///   pages_allocated
///   failed_unpins
///       PageGuard releases whose unpin errored.
///   pool_exhausted_waits
///       times a Fetch/NewPage found every frame of the pool unavailable and
///       had to back off and retry (pool-pressure signal for concurrent
///       benches).
///   prefetch_issued, prefetch_hits, prefetch_wasted
///       read-ahead accounting (BufferPool::PrefetchBatchAsync). A
///       prefetched page is `issued` once when its image is installed
///       unpinned, then resolves to exactly one of `hits` (a later
///       FetchPage found it still resident) or `wasted`
///       (evicted/discarded before any fetch touched it). Pages still
///       resident and untouched are counted by neither, so while a pool
///       lives: prefetch_issued == prefetch_hits + prefetch_wasted +
///       resident-unused.
///   prefetch_errors
///       prefetch reads that failed (I/O error or integrity check) -- the
///       page was skipped and no frame installed; the eventual demand fetch
///       pays and surfaces the real error.
///   io_retries, repairs_attempted, repairs_succeeded, pages_quarantined
///       fault-tolerance accounting (DESIGN.md §11). `io_retries` counts
///       retryable-error retries of the demand-fetch path (successful or
///       not). A checksum-failed fetch increments `repairs_attempted` and,
///       while the repair is pending, `pages_quarantined` (once per
///       distinct page); a repair that re-verifies increments
///       `repairs_succeeded`.
///   clock_sweeps
///       second-chance victim searches (DESIGN.md §13); each may advance the
///       pool's CLOCK hand up to two full revolutions.
#define XR_IO_STATS_FIELDS(X) \
  X(disk_reads)               \
  X(disk_writes)              \
  X(read_batches)             \
  X(buffer_hits)              \
  X(buffer_misses)            \
  X(pages_allocated)          \
  X(failed_unpins)            \
  X(pool_exhausted_waits)     \
  X(prefetch_issued)          \
  X(prefetch_hits)            \
  X(prefetch_wasted)          \
  X(prefetch_errors)          \
  X(io_retries)               \
  X(repairs_attempted)        \
  X(repairs_succeeded)        \
  X(pages_quarantined)        \
  X(clock_sweeps)

/// Counters describing the I/O work done by a storage stack (fields: see
/// XR_IO_STATS_FIELDS). The paper's evaluation reports elapsed time
/// dominated by buffer-pool page misses (§6.2); these counters are the
/// primitive measurements behind every table and figure we reproduce.
///
/// Measurement convention: counters are monotonic while a component lives.
/// Callers that need a per-interval view take a snapshot before and after
/// and subtract (`after - before`). `operator-` saturates at zero so a delta
/// taken across a DiskInterface::ResetStats degrades to an undercount
/// instead of a ~2^64 garbage value.
struct IoStats {
#define XR_IO_STATS_DECLARE(name) uint64_t name = 0;
  XR_IO_STATS_FIELDS(XR_IO_STATS_DECLARE)
#undef XR_IO_STATS_DECLARE

  IoStats operator-(const IoStats& rhs) const {
    IoStats d;
#define XR_IO_STATS_SUB(name) d.name = name > rhs.name ? name - rhs.name : 0;
    XR_IO_STATS_FIELDS(XR_IO_STATS_SUB)
#undef XR_IO_STATS_SUB
    return d;
  }

  IoStats& operator+=(const IoStats& rhs) {
#define XR_IO_STATS_ADD(name) name += rhs.name;
    XR_IO_STATS_FIELDS(XR_IO_STATS_ADD)
#undef XR_IO_STATS_ADD
    return *this;
  }

  uint64_t total_page_accesses() const { return buffer_hits + buffer_misses; }

  std::string ToString() const {
    std::string s = "reads=" + std::to_string(disk_reads) +
                    " writes=" + std::to_string(disk_writes) +
                    " hits=" + std::to_string(buffer_hits) +
                    " misses=" + std::to_string(buffer_misses) +
                    " alloc=" + std::to_string(pages_allocated);
    if (read_batches > 0) {
      s += " read_batches=" + std::to_string(read_batches);
    }
    if (pool_exhausted_waits > 0) {
      s += " exhausted_waits=" + std::to_string(pool_exhausted_waits);
    }
    if (prefetch_issued > 0) {
      s += " prefetch_issued=" + std::to_string(prefetch_issued) +
           " prefetch_hits=" + std::to_string(prefetch_hits) +
           " prefetch_wasted=" + std::to_string(prefetch_wasted);
    }
    if (prefetch_errors > 0) {
      s += " prefetch_errors=" + std::to_string(prefetch_errors);
    }
    if (io_retries > 0) {
      s += " io_retries=" + std::to_string(io_retries);
    }
    if (clock_sweeps > 0) {
      s += " clock_sweeps=" + std::to_string(clock_sweeps);
    }
    if (repairs_attempted > 0) {
      s += " repairs=" + std::to_string(repairs_succeeded) + "/" +
           std::to_string(repairs_attempted) +
           " quarantined=" + std::to_string(pages_quarantined);
    }
    if (failed_unpins > 0) {
      s += " FAILED_UNPINS=" + std::to_string(failed_unpins);
    }
    return s;
  }
};

/// Relaxed-atomic mirror of IoStats for counters bumped on concurrent hot
/// paths. Each counter is individually coherent; Snapshot() is not a
/// cross-counter atomic cut (none is needed — every counter is monotonic,
/// and interval measurement is snapshot subtraction with saturation).
struct AtomicIoStats {
#define XR_IO_STATS_DECLARE(name) std::atomic<uint64_t> name{0};
  XR_IO_STATS_FIELDS(XR_IO_STATS_DECLARE)
#undef XR_IO_STATS_DECLARE

  IoStats Snapshot() const {
    IoStats s;
#define XR_IO_STATS_LOAD(name) s.name = name.load(std::memory_order_relaxed);
    XR_IO_STATS_FIELDS(XR_IO_STATS_LOAD)
#undef XR_IO_STATS_LOAD
    return s;
  }

  void Reset() {
#define XR_IO_STATS_ZERO(name) name.store(0, std::memory_order_relaxed);
    XR_IO_STATS_FIELDS(XR_IO_STATS_ZERO)
#undef XR_IO_STATS_ZERO
  }
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_IO_STATS_H_
