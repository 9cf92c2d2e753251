#ifndef XRTREE_STORAGE_BUFFER_POOL_H_
#define XRTREE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/async_disk.h"
#include "storage/disk_interface.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace xrtree {

/// Construction-time knobs for the BufferPool. The defaults reproduce the
/// classic configuration (and the paper's 100-page pool when `pool_size` is
/// set so); the retry policies are the fault-tolerance layer's tuning
/// surface.
struct BufferPoolOptions {
  size_t pool_size = 256;
  /// Retry schedule for *retryable* I/O errors (Status::IsRetryable) on the
  /// demand-fetch miss path. Sleeps happen outside the pool latch. The
  /// defaults absorb EINTR-style blips in ~a few hundred µs and give up
  /// within 50 ms.
  RetryPolicy io_retry{/*max_retries=*/4, /*yield_retries=*/0,
                       /*initial_delay_us=*/100, /*max_delay_us=*/2000,
                       /*deadline_us=*/50000};
  /// Retry schedule for a fully pinned pool (every frame pinned by other
  /// threads). Mirrors the historical behaviour: 16 yields then short
  /// fixed sleeps, bounded by attempt count, no deadline.
  RetryPolicy pin_retry{/*max_retries=*/128, /*yield_retries=*/16,
                        /*initial_delay_us=*/50, /*max_delay_us=*/50,
                        /*deadline_us=*/0};
  /// Clean re-reads of a checksum-failed page before (and independent of)
  /// WAL repair — recovers bit-flips that happened on the wire rather than
  /// on the platter.
  uint32_t corrupt_read_retries = 2;
  /// Attempt WAL-based page repair on checksum failure (needs an attached
  /// Wal; see WalOptions::retain_images_for_repair for the repair source).
  bool enable_wal_repair = true;
  /// Base seed for retry jitter (mixed with the page id and a per-fetch
  /// sequence number).
  uint64_t retry_seed = 0;
};

/// Fixed-capacity page cache with second-chance (CLOCK) replacement and pin
/// counting, in the shape of a classic textbook/System-R buffer manager. The
/// paper fixes the pool at 100 pages (§6.1); `bench/buffer_sensitivity`
/// sweeps it.
///
/// All pages are accessed through FetchPage/NewPage which pin the frame;
/// callers must UnpinPage (or hold a PageGuard) when done. Pinned pages are
/// never evicted; fetching when every candidate frame is pinned backs off a
/// bounded number of times and then fails with Status::ResourceExhausted
/// (the index code never pins more than a handful of pages at once).
///
/// Concurrency: one mutex (the pool latch) serializes every change to the
/// page table, the frames' page ids, the CLOCK hand, the free-frame list
/// and the in-flight table. A hit and an unpin take no latch (DESIGN.md §9):
/// the page table is a fixed array of atomic (page id, frame) slots that
/// any thread probes, and a frame's page id and pin count share one atomic
/// word, so a hit pins with one CAS that also checks the page id. Latched
/// code re-targets a frame only after claiming it (CAS of its pin count
/// from 0); a hit that meets a claim, or finds no slot, falls back to the
/// latched path. A miss reads the disk with no latch held (DESIGN.md §12),
/// so one global CLOCK domain — the paper's single buffer — costs no I/O
/// concurrency. Every read, demand miss or read-ahead, lands in a private
/// buffer and enters the pool through one install step, which takes its
/// frame only then: no frame is held by a read in flight. Counters are
/// relaxed atomics outside any lock. Any number of threads may Fetch/Unpin
/// concurrently. Structural mutation (NewPage/FreePage id allocation)
/// serializes only on a small allocator lock. Page *contents* are guarded by per-page latches
/// (Page::RLatch/WLatch): any number of tree writers may run concurrently
/// with each other and with readers, crabbing W-latches down their
/// descents (DESIGN.md §14). Commit/Checkpoint/FlushAll/FlushPage take the
/// commit barrier (`commit_mutex()`) exclusively; tree write operations
/// hold it shared, so every page image a commit logs is from a completed
/// operation — see DESIGN.md §9/§14 for the full threading model.
///
/// The pool is also the integrity boundary: every physical write-back
/// stamps the page's PageTrailer (CRC32 + format version) and every fetch
/// from disk verifies it, so a torn, misdirected, bit-flipped or
/// pre-checksum page surfaces as Status::Corruption instead of silently
/// wrong query results.
///
/// With a Wal attached (SetWal), write-backs append page images to the log
/// instead of touching the data file, and misses consult the log's image
/// overlay before falling back to disk. Commit()/Checkpoint() then define
/// the atomic-durability protocol; the data file only ever advances from
/// one committed state to the next.
///
/// The pool also owns the free-page list: FreePage recycles a page id for
/// reuse by NewPage, and the Catalog persists the list across reopens so
/// deleted pages stop leaking.
class BufferPool {
 public:
  BufferPool(DiskInterface* disk, size_t pool_size);
  /// Full-options constructor; the size-only form above delegates here
  /// with default retry policies.
  BufferPool(DiskInterface* disk, const BufferPoolOptions& options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the pinned page `page_id`, reading it from disk on a miss.
  Result<Page*> FetchPage(PageId page_id);

  /// Best-effort, fire-and-forget batch read-ahead: installs each
  /// non-resident page of `ids` unpinned so a later FetchPage hits instead
  /// of paying a blocking miss. Strictly weaker than FetchPage: invalid,
  /// unallocated, resident and already-in-flight ids are skipped; a page
  /// that finds no free or clean-evictable frame is skipped (prefetch
  /// never writes back a dirty victim, so it never touches the WAL); and a
  /// page whose read or integrity check fails is skipped (the eventual real
  /// fetch surfaces the error). The pages are registered in-flight and each
  /// contiguous id run is submitted to AsyncDisk on the caller's thread;
  /// the call then returns without waiting on the device, and the
  /// completion workers install the images. Because registration happens
  /// before the call returns, a FetchPage of any submitted id that follows
  /// parks on the read instead of issuing a duplicate. Counted in
  /// prefetch_issued / prefetch_hits / prefetch_wasted / prefetch_errors
  /// (see IoStats). Read-path only: callers must not prefetch pages a
  /// concurrent writer may be mutating, and must hold no page latch or pin
  /// (a rejected submission is served inline, on the caller's thread).
  void PrefetchBatchAsync(const std::vector<PageId>& ids);

  /// Blocks until every submitted read-ahead run has completed and
  /// installed (AsyncDisk::Drain). Demand misses are read on the fetching
  /// thread and never wait here. Determinism hook for tests and benches;
  /// production readers never wait.
  void WaitForPrefetchIdle();

  /// Allocates a fresh page and returns it pinned and zeroed.
  Result<Page*> NewPage();

  /// Drops a pin. `dirty` marks the page as needing write-back. Finds the
  /// frame through the page table without the pool latch.
  Status UnpinPage(PageId page_id, bool dirty);
  /// Drops a pin on a page this pool returned pinned: one atomic step on
  /// the frame, no lookup and no latch (PageGuard's release).
  Status UnpinPage(Page* page, bool dirty);

  /// Writes the page back if dirty. Page may be pinned or not.
  Status FlushPage(PageId page_id);

  /// Flushes every dirty page in the pool.
  Status FlushAll();

  /// Drops a page from the pool without writing it back. Pure cache
  /// eviction: the id is NOT recycled (see FreePage). Precondition: the
  /// page is unpinned.
  Status DiscardPage(PageId page_id);

  /// Frees a page: drops it from the pool (no write-back) and recycles its
  /// id into the free list, where NewPage will reuse it before allocating
  /// fresh pages. The Catalog persists the list across reopens. Any logged
  /// WAL image of the page is suppressed so a later miss can never serve
  /// the stale pre-free content. Precondition: the page is unpinned and not
  /// a reserved header page.
  Status FreePage(PageId page_id);

  /// Replaces the in-memory free list (Catalog::Load installs the persisted
  /// list at open time). Duplicates and reserved/invalid ids are rejected.
  Status SetFreeList(const std::vector<PageId>& pages);

  /// Snapshot of the current free list, sorted, for persistence.
  std::vector<PageId> FreeListSnapshot() const;

  /// Attaches (or detaches, with nullptr) a write-ahead log. The Wal must
  /// already be recovered. While attached, dirty pages are logged rather
  /// than written to the data file.
  void SetWal(Wal* wal);
  Wal* wal() const { return wal_.load(std::memory_order_acquire); }

  /// Commits the current logical update: logs every dirty resident page,
  /// appends a commit record and fsyncs the log. If the log has outgrown
  /// its checkpoint threshold, also checkpoints. Requires an attached Wal.
  Status Commit();

  /// Applies the log's committed images to the data file and truncates the
  /// log. Call after Commit(). Requires an attached Wal.
  Status Checkpoint();

  size_t pool_size() const { return frames_.size(); }
  DiskInterface* disk() const { return disk_; }
  const BufferPoolOptions& options() const { return options_; }

  /// True while `page_id` is quarantined: a fetch found its image failing
  /// the integrity check and repair has not yet succeeded. A successful
  /// repair lifts the quarantine; an unrepairable page stays quarantined
  /// and every fetch keeps surfacing DataLoss (after re-attempting repair,
  /// in case a clean image has appeared in the log since).
  bool IsQuarantined(PageId page_id) const;

  /// Currently quarantined page ids, sorted (tests and operator tooling).
  std::vector<PageId> QuarantineSnapshot() const;

  /// Records a failed unpin from a PageGuard release (a pin-accounting bug:
  /// the page was already unpinned or is no longer resident). Counted in
  /// IoStats::failed_unpins; aborts in debug builds.
  void NoteFailedUnpin(const Status& error);

  /// Coherent snapshot of the merged counters: pool-level hit/miss/wait
  /// counters plus the disk's read/write/alloc counters. Every counter is a
  /// monotonic relaxed atomic; measure intervals by snapshot subtraction
  /// (IoStats::operator- saturates).
  IoStats stats() const;

  /// Number of currently pinned frames (for tests/assertions).
  size_t pinned_frames() const;

  /// Commit barrier (DESIGN.md §14): tree write operations hold this
  /// shared for their whole latch-crabbing descent; Commit / Checkpoint /
  /// FlushAll / FlushPage take it exclusively. The exclusive side therefore
  /// only ever observes writer-quiescent page images — a commit record
  /// never carries a half-applied split.
  std::shared_mutex& commit_mutex() const { return commit_mu_; }

  /// Monotonic counter bumped once per *tree-node* free (a merge or root
  /// collapse retiring an index page — WriteLatchSet::DeferFree, while the
  /// dead page is still W-latched).
  /// Snapshot iterators record it while holding a leaf R-latch: if it is
  /// unchanged when they later chase the leaf's `next` link, no index page
  /// has been freed in between, so the id still names the same live leaf
  /// (the ABA defense for latch-free lateral moves). Stab-chain page frees
  /// deliberately do NOT bump it — chain ids are never held across a latch
  /// release, and insert streams rewrite chains constantly.
  uint64_t free_epoch() const {
    return free_epoch_.load(std::memory_order_acquire);
  }
  void BumpFreeEpoch() {
    free_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  using FrameId = size_t;

  /// One in-flight page read (see DESIGN.md §12). Registered in
  /// `in_flight_` under the pool latch before the reader drops the
  /// latch to do the I/O; concurrent fetchers of the same page find the
  /// entry and park on `cv` instead of issuing a duplicate read
  /// (single-flight). The reader always completes the entry — erase from
  /// the map under the pool latch, then set `done` and notify — whether
  /// the read was installed, failed, turned out stale or found no frame;
  /// woken waiters simply re-run their fetch loop (the common outcome is a
  /// pool hit).
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // guarded by mu
  };

  /// One registered read: its in-flight entry, the private buffer it lands
  /// in (the demand leader's own page, or a slice of a read-ahead batch),
  /// which source served it, and its read-and-verify outcome.
  struct PendingRead {
    PageId page_id = kInvalidPageId;
    std::shared_ptr<InFlight> entry;
    char* buf = nullptr;
    bool from_log = false;  // the WAL overlay served it, not the data file
    Status read;
  };

  /// What InstallRead did with a finished read.
  enum class Install {
    kInstalled,        // resident now; pinned once for a demand leader
    kStale,            // the id became resident or its source flipped
    kReadFailed,       // the read or its integrity check failed
    kNoFrame,          // every frame pinned (read-ahead: or dirty)
    kWriteBackFailed,  // evicting the victim failed; the error is *error
  };

  /// The page table: a fixed, open-addressed array of atomic (page id,
  /// frame) slots with linear probing, sized to at least twice the frame
  /// count at construction and never resized. Only latched code inserts or
  /// erases (erase shifts the rest of a probe run back, so there are no
  /// tombstones); under the pool latch a Find is exact. Without the latch
  /// a Find is a hint: it may miss a page whose slot is moving, or name a
  /// frame that has since been re-targeted, and the caller's CAS pin on
  /// the frame word settles which.
  class PageTable {
   public:
    static constexpr FrameId kNone = ~FrameId{0};
    explicit PageTable(size_t frames);
    FrameId Find(PageId id) const;
    void Insert(PageId id, FrameId frame);  // latch held; id absent
    void Erase(PageId id);                  // latch held; id present

   private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};
    size_t Home(PageId id) const {
      return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    std::unique_ptr<std::atomic<uint64_t>[]> slots_;
    size_t mask_;
    unsigned shift_;
  };

  // Pins `page_id` through the page table without the latch; null when the
  // table shows no frame holding it unclaimed (the caller falls back).
  Page* TryPinResident(PageId page_id);
  // The bookkeeping of a hit on `page`, which is pinned: one hit (unless
  // this fetch already counted a miss), prefetch credit, the CLOCK bit.
  Page* CountHit(Page* page, bool miss_counted);

  // Victim selection: second-chance CLOCK sweep — the hand skips empty and
  // pinned slots, clears set reference bits, and claims the first unpinned
  // resident frame whose bit is already clear (at most two revolutions).
  // `clean_only` additionally skips dirty frames (read-ahead must never
  // write back). Latch held.
  bool FindVictim(FrameId* out, bool clean_only);
  // Evicts the occupant of `frame`, which the caller has claimed (flushing
  // if dirty; a failed write-back releases the claim). Latch held.
  Status EvictFrame(FrameId frame);
  // Stamps the integrity trailer and writes the frame's page out. Latch held.
  Status WriteBack(Page* page);
  // WriteBack of every dirty resident page (FlushAll, Commit). Takes the
  // latch; the caller holds the commit barrier exclusively.
  Status WriteBackAllDirty();
  // Claims, resets and frees the frame of `page_id` if it is resident (a
  // discard or free); false when the page is pinned. Latch held.
  bool DropResident(PageId page_id);
  // Grabs a free or evictable frame (a clean one if `clean_only`). On
  // success `*out` is a reset frame. Returns false with *error OK when no
  // frame qualifies (caller backs off and retries), false with *error set
  // when an eviction write-back failed. Latch held.
  bool AcquireFrame(FrameId* out, Status* error, bool clean_only = false);

  // Builds the ResourceExhausted message for a pool whose every frame is
  // pinned, with a pinned-frame census (takes the pool latch; call without
  // it held).
  std::string ExhaustedMessage() const;

  // Next delay of a retry schedule that is built on its first use: an
  // operation that never retries (every pool hit) never touches the
  // pool-global retry_seq_. The jitter seed mixes the configured base, the
  // page id and a per-operation sequence number so concurrent retriers
  // never sleep in lockstep. Returns false once the schedule is spent.
  bool NextRetry(std::optional<RetryState>* state, const RetryPolicy& policy,
                 PageId page_id, uint64_t* delay);

  // Quarantine + repair of a page whose image failed its integrity check.
  // Runs outside the pool latch (serialized by repair_mu_): bounded clean
  // re-reads from the data file first, then the newest WAL repair image
  // (reinstalled to the data file and re-verified). On success the page
  // leaves quarantine and the caller's fetch loop retries; otherwise
  // returns DataLoss (the page stays quarantined).
  Status RepairCorruptPage(PageId page_id, const Status& cause);

  // Marks an in-flight entry done and wakes its parked waiters. Call after
  // releasing the pool latch (the entry must already be erased from
  // in_flight_, under that latch, by the same completion).
  static void CompleteInFlight(const std::shared_ptr<InFlight>& entry);

  // The one place a read image enters the pool (DESIGN.md §12). Under the
  // pool latch it revalidates (residency, WAL-overlay parity), then takes a
  // frame for a good image through AcquireFrame — dirty victims only for a
  // demand fetch, so read-ahead never writes back or touches the WAL — and
  // copies the image in: pinned once for the demand leader with `ref_`
  // clear, or unpinned with `prefetched_` and `ref_` set. It erases and
  // completes the in-flight entry on every outcome but one: a demand read
  // that finds every frame pinned keeps its entry (followers stay parked),
  // and the leader backs off and calls again. `*page` is set on kInstalled.
  Install InstallRead(const PendingRead& r, bool demand, Page** page,
                      Status* error);

  // Completes a registered read without installing anything. Takes the
  // pool latch.
  void DropRead(const PendingRead& r);

  /// Read-ahead completion workers and submission-queue depth (DESIGN.md
  /// §13). A full queue rejects a run and the submitter reads it inline.
  static constexpr size_t kAsyncWorkers = 8;
  static constexpr size_t kAsyncQueueDepth = 64;

  DiskInterface* const disk_;
  /// Read-ahead submission/completion queue over disk_. Reset (drained and
  /// joined) by the destructor before FlushAll, so no completion can touch
  /// a dying pool.
  std::unique_ptr<AsyncDisk> async_;
  std::atomic<Wal*> wal_{nullptr};
  BufferPoolOptions options_;

  /// The frames' page bytes: one anonymous, page-aligned mapping of
  /// pool_size * kPageSize bytes (DESIGN.md §13). The OS hands it out zeroed
  /// and faults it in on first touch, so a frame no page has occupied costs
  /// neither set-up time nor resident memory. Declared before frames_ so it
  /// is unmapped after them.
  class FrameMapping {
   public:
    explicit FrameMapping(size_t bytes);
    ~FrameMapping();
    FrameMapping(const FrameMapping&) = delete;
    FrameMapping& operator=(const FrameMapping&) = delete;
    char* base() const { return base_; }

   private:
    char* base_;
    size_t bytes_;
  };
  FrameMapping frame_bytes_;

  // The pool latch and everything it guards.
  mutable std::mutex mu_;
  /// The frames, fixed at construction: heap-allocated bookkeeping (so a
  /// Page pointer captured under the latch stays valid after it), each over
  /// its own kPageSize slice of frame_bytes_.
  std::vector<std::unique_ptr<Page>> frames_;
  PageTable page_table_;
  /// Second-chance sweep position (CLOCK replacement, DESIGN.md §13).
  FrameId clock_hand_ = 0;
  std::vector<FrameId> free_frames_;
  /// Reads currently in flight, demand misses and prefetches alike.
  /// Holders keep shared_ptr copies so an entry stays valid for parked
  /// waiters after the reader erases it from the map.
  std::unordered_map<PageId, std::shared_ptr<InFlight>> in_flight_;

  /// Every pool-side counter (relaxed atomics, bumped with or without the
  /// latch); stats() adds the disk's own counters.
  AtomicIoStats counters_;

  // Fault-tolerance state: quarantined ids under their own small lock
  // (never held together with the pool latch); repair_mu_ serializes repair
  // passes so concurrent fetchers of one corrupt page do a single repair.
  mutable std::mutex quarantine_mu_;
  std::unordered_set<PageId> quarantined_;
  std::mutex repair_mu_;
  std::atomic<uint64_t> retry_seq_{0};

  // Page-id allocation state: the recycled-id free list, behind its own
  // small lock (never held together with the pool latch). free_set_ mirrors
  // free_pages_ to keep FreePage idempotent (double-free must not hand the
  // same id out twice).
  mutable std::mutex alloc_mu_;
  std::vector<PageId> free_pages_;
  std::unordered_set<PageId> free_set_;

  /// Commit barrier: shared = tree write op, exclusive = commit/flush.
  mutable std::shared_mutex commit_mu_;
  /// Tree-node free counter (see free_epoch()).
  std::atomic<uint64_t> free_epoch_{0};
};

/// RAII pin holder. Unpins (with the recorded dirty flag) on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      page_ = other.page_;
      dirty_ = other.dirty_;
      other.pool_ = nullptr;
      other.page_ = nullptr;
      other.dirty_ = false;
    }
    return *this;
  }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  ~PageGuard() { Release(); }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }
  PageId page_id() const { return page_ ? page_->page_id() : kInvalidPageId; }

  void MarkDirty() { dirty_ = true; }

  /// Unpins now instead of at scope end. A failed unpin is a pin-accounting
  /// bug: it is counted in IoStats::failed_unpins (and aborts debug builds)
  /// rather than silently swallowed.
  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      Status unpin = pool_->UnpinPage(page_, dirty_);
      if (!unpin.ok()) pool_->NoteFailedUnpin(unpin);
    }
    pool_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_BUFFER_POOL_H_
