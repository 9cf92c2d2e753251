#include "storage/buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "storage/checksum.h"

namespace xrtree {

BufferPool::BufferPool(DiskInterface* disk, size_t pool_size)
    : BufferPool(disk, [&] {
        BufferPoolOptions o;
        o.pool_size = pool_size;
        return o;
      }()) {}

BufferPool::FrameMapping::FrameMapping(size_t bytes) : bytes_(bytes) {
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<char*>(base);
}

BufferPool::FrameMapping::~FrameMapping() { ::munmap(base_, bytes_); }

BufferPool::PageTable::PageTable(size_t frames) {
  size_t capacity = 2;
  unsigned bits = 1;
  while (capacity < 2 * frames) {
    capacity *= 2;
    ++bits;
  }
  slots_.reset(new std::atomic<uint64_t>[capacity]);
  for (size_t i = 0; i < capacity; ++i) {
    slots_[i].store(kEmpty, std::memory_order_relaxed);
  }
  mask_ = capacity - 1;
  shift_ = 64 - bits;
}

BufferPool::FrameId BufferPool::PageTable::Find(PageId id) const {
  // At most half the slots are ever full, so a probe run ends at an empty
  // slot; the bound only caps a latch-free probe racing a shift.
  size_t i = Home(id);
  for (size_t n = 0; n <= mask_; ++n, i = (i + 1) & mask_) {
    const uint64_t slot = slots_[i].load(std::memory_order_acquire);
    if (slot == kEmpty) break;
    if (static_cast<PageId>(slot >> 32) == id) {
      return static_cast<FrameId>(static_cast<uint32_t>(slot));
    }
  }
  return kNone;
}

void BufferPool::PageTable::Insert(PageId id, FrameId frame) {
  size_t i = Home(id);
  while (slots_[i].load(std::memory_order_relaxed) != kEmpty) {
    i = (i + 1) & mask_;
  }
  slots_[i].store((uint64_t{id} << 32) | frame, std::memory_order_release);
}

void BufferPool::PageTable::Erase(PageId id) {
  size_t hole = Home(id);
  while (static_cast<PageId>(slots_[hole].load(std::memory_order_relaxed) >>
                             32) != id) {
    hole = (hole + 1) & mask_;
  }
  // Backward shift: pull each later entry of the probe run whose home does
  // not lie in (hole, j] into the hole. Each entry is written to its new
  // slot before its old one is overwritten, so a latch-free probe sees it
  // once, twice or (having passed the new slot already) not at all — a
  // miss that its fetch settles under the latch.
  for (size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
    const uint64_t slot = slots_[j].load(std::memory_order_relaxed);
    if (slot == kEmpty) break;
    const size_t home = Home(static_cast<PageId>(slot >> 32));
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole].store(slot, std::memory_order_release);
      hole = j;
    }
  }
  slots_[hole].store(kEmpty, std::memory_order_release);
}

BufferPool::BufferPool(DiskInterface* disk, const BufferPoolOptions& options)
    : disk_(disk),
      options_(options),
      frame_bytes_(options.pool_size * kPageSize),
      page_table_(options.pool_size) {
  const size_t n = options.pool_size;
  assert(n > 0);
  frames_.reserve(n);
  free_frames_.reserve(n);
  for (size_t f = 0; f < n; ++f) {
    // The frame's bytes are untouched zero pages of the mapping: the
    // free-list invariant (a free frame is all zero) holds from the start.
    frames_.push_back(
        std::unique_ptr<Page>(new Page(frame_bytes_.base() + f * kPageSize)));
    free_frames_.push_back(n - 1 - f);  // pop_back yields frame 0
  }
  async_ = std::make_unique<AsyncDisk>(
      disk_, AsyncDiskOptions{kAsyncWorkers, kAsyncQueueDepth});
}

BufferPool::~BufferPool() {
  // No caller may still be submitting; draining and joining the async
  // workers here guarantees no completion can touch pool state once
  // teardown proceeds to the flush.
  async_.reset();
  FlushAll().ok();
}

bool BufferPool::FindVictim(FrameId* out, bool clean_only) {
  const size_t n = frames_.size();
  counters_.clock_sweeps.fetch_add(1, std::memory_order_relaxed);
  // Up to two revolutions: the first pass may spend every set reference
  // bit, the second then lands on a victim — unless every frame is free,
  // pinned, or (for clean_only) dirty.
  for (size_t scanned = 0; scanned < 2 * n; ++scanned) {
    const FrameId f = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    Page* page = frames_[f].get();
    const uint64_t w = page->state_.load(std::memory_order_relaxed);
    const PageId id = static_cast<PageId>(w >> 32);
    if (id == kInvalidPageId) continue;  // free
    if (Page::Pins(w) != 0) continue;
    if (clean_only && page->is_dirty()) continue;
    if (page->ref_.load(std::memory_order_relaxed)) {
      page->ref_.store(false, std::memory_order_relaxed);  // second chance
      continue;
    }
    // A latch-free hit may pin the frame after the look above: the claim
    // fails then, and the sweep moves on. Once claimed, the dirty bit is
    // final (the last unpin stored it before releasing).
    if (!page->TryClaim(id)) continue;
    if (clean_only && page->is_dirty()) {
      page->Publish(id, 0);
      continue;
    }
    *out = f;
    return true;
  }
  return false;
}

Status BufferPool::WriteBack(Page* page) {
  const PageId page_id = page->page_id();
  // Cleared before the write: a pin holder's dirty unpin that lands during
  // it marks the page dirty again instead of being lost.
  page->is_dirty_.store(false, std::memory_order_relaxed);
  Status written;
  Wal* wal = wal_.load(std::memory_order_acquire);
  if (wal != nullptr) {
    // Log-first ordering: with a WAL attached the data file is only written
    // from committed images (Checkpoint/Recover), never directly. The log
    // append stamps the trailer with the record's LSN.
    written = wal->LogPageImage(page_id, page->data_);
  } else {
    StampPageTrailer(page->data_, page_id);
    written = disk_->WritePage(page_id, page->data_);
  }
  if (!written.ok()) page->is_dirty_.store(true, std::memory_order_relaxed);
  return written;
}

Status BufferPool::EvictFrame(FrameId frame) {
  Page* page = frames_[frame].get();
  const PageId id = page->page_id();
  if (page->is_dirty()) {
    Status written = WriteBack(page);
    if (!written.ok()) {
      page->Publish(id, 0);  // still resident, unpinned and dirty
      return written;
    }
  }
  if (page->prefetched_.load(std::memory_order_relaxed)) {
    // Prefetched but never fetched: the read-ahead was wasted.
    counters_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
  }
  page_table_.Erase(id);
  page->Reset();
  return Status::Ok();
}

bool BufferPool::AcquireFrame(FrameId* out, Status* error, bool clean_only) {
  *error = Status::Ok();
  if (!free_frames_.empty()) {
    *out = free_frames_.back();
    free_frames_.pop_back();
    // Every path returning a frame to the free list must Reset() it first;
    // stale prefetch provenance here would mis-credit prefetch_hits on the
    // frame's next occupant.
    assert(!frames_[*out]->prefetched_.load(std::memory_order_relaxed) &&
           frames_[*out]->state_.load(std::memory_order_relaxed) ==
               Page::Word(kInvalidPageId, 0) &&
           "free-list frame not Reset()");
    return true;
  }
  FrameId victim;
  if (FindVictim(&victim, clean_only)) {
    *error = EvictFrame(victim);
    if (!error->ok()) return false;
    *out = victim;
    return true;
  }
  return false;  // every frame pinned (or dirty); caller backs off
}

std::string BufferPool::ExhaustedMessage() const {
  return "buffer pool exhausted: every frame pinned (" +
         std::to_string(pinned_frames()) + " pinned, " +
         std::to_string(frames_.size()) + " frames)";
}

bool BufferPool::NextRetry(std::optional<RetryState>* state,
                           const RetryPolicy& policy, PageId page_id,
                           uint64_t* delay) {
  if (!state->has_value()) {
    uint64_t seq = retry_seq_.fetch_add(1, std::memory_order_relaxed);
    state->emplace(policy, options_.retry_seed ^
                               (page_id * 0x9E3779B97F4A7C15ull) ^ (seq << 17));
  }
  return (*state)->Next(delay);
}

void BufferPool::CompleteInFlight(const std::shared_ptr<InFlight>& entry) {
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->done = true;
  }
  entry->cv.notify_all();
}

BufferPool::Install BufferPool::InstallRead(const PendingRead& r,
                                            bool demand, Page** page,
                                            Status* error) {
  // The world may have changed during the unlatched read — NewPage can have
  // recycled the id into a resident frame, and FreePage/LogPageImage can
  // have flipped which source (log overlay vs data file) is current. A
  // stale image is dropped; a demand leader re-runs its loop, consuming no
  // retry budget (staleness means progress elsewhere, not an I/O fault).
  Install outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Wal* wal = wal_.load(std::memory_order_acquire);
    const bool overlay_now = wal != nullptr && wal->HasImage(r.page_id);
    FrameId frame;
    if (page_table_.Find(r.page_id) != PageTable::kNone ||
        overlay_now != r.from_log) {
      outcome = Install::kStale;
    } else if (!r.read.ok()) {
      outcome = Install::kReadFailed;
    } else if (AcquireFrame(&frame, error, /*clean_only=*/!demand)) {
      // The frame is reset and holds no page id, so no latch-free hit can
      // pin it until Publish makes the image visible.
      Page* p = frames_[frame].get();
      std::memcpy(p->data_, r.buf, kPageSize);
      // A demand install is fetched once, not re-referenced; read-ahead is
      // read *for* a fetch and gets one sweep of grace.
      p->prefetched_.store(!demand, std::memory_order_relaxed);
      p->ref_.store(!demand, std::memory_order_relaxed);
      p->Publish(r.page_id, demand ? 1 : 0);  // pinned for the leader
      page_table_.Insert(r.page_id, frame);
      *page = p;
      outcome = Install::kInstalled;
    } else if (!error->ok()) {
      outcome = Install::kWriteBackFailed;
    } else {
      outcome = Install::kNoFrame;
      if (demand) return outcome;  // the leader keeps its entry and retries
    }
    in_flight_.erase(r.page_id);
  }
  CompleteInFlight(r.entry);
  return outcome;
}

void BufferPool::DropRead(const PendingRead& r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(r.page_id);
  }
  CompleteInFlight(r.entry);
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  if (page_id == kInvalidPageId) {
    return Status::InvalidArgument("FetchPage(kInvalidPageId)");
  }
  // Built on the first retry, so a hit touches no pool-global counter.
  std::optional<RetryState> pin_retry;
  std::optional<RetryState> io_retry;
  // Successful repairs per fetch before giving up. Under sustained
  // probabilistic corruption the refetch after a repair can itself come
  // back flipped; allowing a few rounds drives the failure odds to p^k
  // instead of p^2. An *unrepairable* page never loops — the first repair
  // pass returns DataLoss.
  constexpr int kMaxRepairsPerFetch = 8;
  int repairs = 0;
  // A stale completed read (the id was recycled or its overlay source
  // flipped mid-read) consumes no retry budget — staleness means progress
  // elsewhere, not a fault — but sustained writer churn on one id must not
  // spin a fetcher forever; the bound is generous because every stale round
  // requires a whole free/recycle or log-append to land mid-read.
  constexpr int kMaxStaleRetriesPerFetch = 64;
  int stale_retries = 0;
  // One logical fetch counts exactly one of hit/miss, no matter how many
  // loop iterations (retries, repairs, parked waits, stale re-reads) it
  // takes: hits + misses == FetchPage calls, always.
  bool miss_counted = false;
  // The leader's private page: a read lands here and InstallRead copies it
  // into a frame. Allocated on the first read this fetch leads, so a hit
  // runs in a small stack frame.
  std::unique_ptr<char[]> image;
  for (;;) {
    // The hit path: no latch. It fails over to the latched lookup below when
    // the page is absent, claimed, or its slot is moving.
    if (Page* hit = TryPinResident(page_id)) return CountHit(hit, miss_counted);
    std::shared_ptr<InFlight> entry;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Under the latch the table is exact and no frame is claimed, so this
      // pins any resident page.
      if (Page* hit = TryPinResident(page_id)) {
        return CountHit(hit, miss_counted);
      }
      auto fl = in_flight_.find(page_id);
      if (fl != in_flight_.end()) {
        // Another thread is already reading this page (demand miss or
        // prefetch). Take a reference and park on it below, outside the
        // latch — single-flight: no duplicate read, and fetchers of other
        // pages proceed unimpeded.
        entry = fl->second;
      } else {
        if (!miss_counted) {
          counters_.buffer_misses.fetch_add(1, std::memory_order_relaxed);
          miss_counted = true;
        }
        // Lead the read: publish the in-flight entry, then drop the latch.
        entry = std::make_shared<InFlight>();
        in_flight_.emplace(page_id, entry);
        leader = true;
      }
    }
    if (!leader) {
      // Park until the in-flight read completes, then re-run the loop:
      // normally the page is now resident (hit); if the read failed, turned
      // out stale or found no frame, this thread becomes the next leader.
      std::unique_lock<std::mutex> wait_lock(entry->mu);
      entry->cv.wait(wait_lock, [&] { return entry->done; });
      continue;
    }
    PendingRead r;
    r.page_id = page_id;
    r.entry = std::move(entry);
    if (!image) image.reset(new char[kPageSize]);
    r.buf = image.get();
    // A miss on a free-listed id is a dangling reference — a reader chased
    // a leaf-chain link into a page a concurrent merge just retired. Refuse
    // it (the caller re-descends) instead of serving whatever stale bytes
    // the data file still holds for the id.
    {
      bool freed;
      {
        std::lock_guard<std::mutex> alock(alloc_mu_);
        freed = free_set_.count(page_id) > 0;
      }
      if (freed) {
        DropRead(r);
        return Status::NotFound("FetchPage: page " + std::to_string(page_id) +
                                " is on the free list");
      }
    }
    // Leader: the read happens outside the latch, on this thread, into the
    // private page. The WAL overlay is an in-memory/log-offset lookup and is
    // consulted first; a data-file read is a single-slot ReadBatch, so
    // read_batches counts it like every other pool read.
    Wal* wal = wal_.load(std::memory_order_acquire);
    if (wal != nullptr) {
      auto served = wal->TryReadImage(page_id, r.buf);
      if (!served.ok()) {
        r.read = served.status();
      } else {
        r.from_log = *served;
      }
    }
    if (r.read.ok() && !r.from_log) {
      PageReadRequest req{page_id, r.buf, Status::Ok()};
      disk_->ReadBatch(&req, 1);
      r.read = std::move(req.status);
    }
    if (r.read.ok()) r.read = VerifyPageTrailer(r.buf, page_id);
    Page* page = nullptr;
    Status write_back;
    Install outcome;
    // Every frame pinned: back off with the image and the in-flight entry
    // kept, so the page is never read twice; when the budget runs out,
    // complete the entry without installing.
    while ((outcome = InstallRead(r, /*demand=*/true, &page, &write_back)) ==
           Install::kNoFrame) {
      counters_.pool_exhausted_waits.fetch_add(1, std::memory_order_relaxed);
      uint64_t delay;
      if (!NextRetry(&pin_retry, options_.pin_retry, page_id, &delay)) {
        DropRead(r);
        return Status::ResourceExhausted(ExhaustedMessage());
      }
      BackoffSleep(delay);
    }
    if (outcome == Install::kInstalled) return page;
    if (outcome == Install::kWriteBackFailed) return write_back;
    if (outcome == Install::kStale) {
      if (++stale_retries > kMaxStaleRetriesPerFetch) {
        return Status::Aborted(
            "FetchPage: page " + std::to_string(page_id) +
            " kept being recycled or re-logged mid-read (" +
            std::to_string(stale_retries - 1) + " stale images discarded)");
      }
      continue;
    }
    const Status& read = r.read;
    if (read.IsRetryable()) {
      uint64_t delay;
      if (!NextRetry(&io_retry, options_.io_retry, page_id, &delay)) {
        return read;  // retry budget exhausted
      }
      counters_.io_retries.fetch_add(1, std::memory_order_relaxed);
      BackoffSleep(delay);
      continue;
    }
    if (read.IsCorruption() && !r.from_log) {
      // The data-file copy failed its integrity check. Quarantine and try
      // to repair (clean re-read, then WAL image); a successful repair
      // loops back to fetch the now-clean page.
      if (++repairs > kMaxRepairsPerFetch) return read;
      XR_RETURN_IF_ERROR(RepairCorruptPage(page_id, read));
      continue;
    }
    // Hard I/O error, or a corrupt image served from the log itself (the
    // data-file bytes are stale — repairing from them would serve torn
    // state): surface to the caller.
    return read;
  }
}

Page* BufferPool::TryPinResident(PageId page_id) {
  const FrameId f = page_table_.Find(page_id);
  if (f == PageTable::kNone) return nullptr;
  Page* page = frames_[f].get();
  return page->TryPin(page_id) ? page : nullptr;
}

Page* BufferPool::CountHit(Page* page, bool miss_counted) {
  if (!miss_counted) {
    counters_.buffer_hits.fetch_add(1, std::memory_order_relaxed);
  }
  // The pin keeps every claimer away, so exactly one of this exchange and
  // an eviction's prefetch_wasted sees the flag.
  if (page->prefetched_.load(std::memory_order_relaxed) &&
      page->prefetched_.exchange(false, std::memory_order_relaxed)) {
    // First fetch of a read-ahead page: the prefetch paid off. A scan has
    // consumed it, so it gives up the grace its install granted and becomes
    // the sweep's next victim; a page fetched again earns the bit back.
    counters_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
    page->ref_.store(false, std::memory_order_relaxed);
    return page;
  }
  // Second chance for the CLOCK sweep; read first so a hot page's hits do
  // not keep writing its bookkeeping line.
  if (!page->ref_.load(std::memory_order_relaxed)) {
    page->ref_.store(true, std::memory_order_relaxed);
  }
  return page;
}

Status BufferPool::RepairCorruptPage(PageId page_id, const Status& cause) {
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    if (quarantined_.insert(page_id).second) {
      counters_.pages_quarantined.fetch_add(1, std::memory_order_relaxed);
    }
  }
  counters_.repairs_attempted.fetch_add(1, std::memory_order_relaxed);

  alignas(8) char buf[kPageSize];
  bool repaired = false;
  // Pass 1: bounded clean re-reads. When the corruption happened on the
  // wire (the sustained fault model flips a byte of the *returned* image,
  // the file stays intact) a re-read comes back clean. Transient read
  // errors during the pass just consume an attempt.
  for (uint32_t i = 0; i < options_.corrupt_read_retries && !repaired; ++i) {
    if (disk_->ReadPage(page_id, buf).ok() &&
        VerifyPageTrailer(buf, page_id).ok()) {
      repaired = true;
    }
  }
  // Pass 2: WAL-based repair — reinstall the newest committed image of the
  // page (live or retained at checkpoint) and re-verify it from the data
  // file so the fix is durable, not just in-memory.
  if (!repaired && options_.enable_wal_repair) {
    Wal* wal = wal_.load(std::memory_order_acquire);
    if (wal != nullptr) {
      auto image = wal->TryReadRepairImage(page_id, buf);
      if (image.ok() && *image && VerifyPageTrailer(buf, page_id).ok()) {
        if (disk_->WritePage(page_id, buf).ok()) {
          alignas(8) char check[kPageSize];
          if (disk_->ReadPage(page_id, check).ok() &&
              VerifyPageTrailer(check, page_id).ok()) {
            repaired = true;
          }
        }
      }
    }
  }
  if (!repaired) {
    return Status::DataLoss(
        "page " + std::to_string(page_id) +
        " failed its integrity check and no clean image exists (" +
        cause.ToString() + ")");
  }
  counters_.repairs_succeeded.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.erase(page_id);
  return Status::Ok();
}

bool BufferPool::IsQuarantined(PageId page_id) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_.count(page_id) > 0;
}

std::vector<PageId> BufferPool::QuarantineSnapshot() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  std::vector<PageId> out(quarantined_.begin(), quarantined_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Result<Page*> BufferPool::NewPage() {
  // Take a page id first: recycle from the free list before extending the
  // file. A free-list entry that is somehow still resident is in use — drop
  // it rather than reissue it. The allocator lock is never held together
  // with the pool latch.
  PageId page_id = kInvalidPageId;
  bool recycled = false;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(alloc_mu_);
      if (!free_pages_.empty()) {
        page_id = free_pages_.back();
        free_pages_.pop_back();
        free_set_.erase(page_id);
        recycled = true;
      }
    }
    if (!recycled) {
      page_id = disk_->AllocatePage();
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (page_table_.Find(page_id) == PageTable::kNone) break;
    recycled = false;  // stale entry: skip it, try the next candidate
  }

  std::optional<RetryState> pin_retry;  // built on the first retry
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      FrameId frame;
      Status error;
      bool have = false;
      // Re-validate residency inside the install critical section. Between
      // id selection above (which drops the latch; fresh ids are never
      // checked at all) and this latch hold, a racing read of the same id
      // can have installed a frame: prefetch of a stale id legitimately
      // touches freed and just-allocated ids, and the all-zero image of a
      // never-written page passes the trailer check. Installing blindly on
      // top would overwrite the page-table mapping and orphan that frame
      // in the LRU — its later eviction would erase the mapping of *this*
      // live frame, making the new page unflushable (lost write). Reclaim
      // the racing frame in place instead. A read still in flight needs no
      // handling here: its completion re-validates residency under this
      // same latch and discards the image once we are installed.
      const FrameId resident_frame = page_table_.Find(page_id);
      if (resident_frame != PageTable::kNone) {
        Page* resident = frames_[resident_frame].get();
        // The claim fails only on a real pin: a pin can land on a frame
        // only while it holds the page asked for.
        if (resident->TryClaim(page_id)) {
          frame = resident_frame;
          if (resident->prefetched_.load(std::memory_order_relaxed)) {
            counters_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
          }
          page_table_.Erase(page_id);
          resident->Reset();
          have = true;
        }
        // Pinned resident frame: a racing fetcher still holds the
        // superseded install; treated like a fully pinned pool — back
        // off below until the pin drops.
      } else if (AcquireFrame(&frame, &error)) {
        have = true;
      } else if (!error.ok()) {
        return error;
      }
      if (have) {
        if (recycled) {
          // The log may still hold an image of the id's previous life; a
          // miss must never serve that stale content (see FreePage).
          Wal* wal = wal_.load(std::memory_order_acquire);
          if (wal != nullptr) wal->SuppressOverlay(page_id);
        }
        // Both branches above hand over a reset, all-zero frame (the
        // reclaimed one was just Reset; AcquireFrame yields a free-list or
        // freshly evicted frame), so the new page is zeroed already.
        Page* page = frames_[frame].get();
        // ensure the zeroed page reaches disk
        page->is_dirty_.store(true, std::memory_order_relaxed);
        // A brand-new page starts with ref_ clear (Reset did that): it has
        // been touched once, exactly like a demand-installed page.
        page->Publish(page_id, 1);
        page_table_.Insert(page_id, frame);
        return page;
      }
    }
    counters_.pool_exhausted_waits.fetch_add(1, std::memory_order_relaxed);
    uint64_t delay;
    if (!NextRetry(&pin_retry, options_.pin_retry, page_id, &delay)) break;
    BackoffSleep(delay);
  }
  // Could not obtain a frame: return the id to the free list instead of
  // leaking it (a fresh id would otherwise leave a permanent hole in the
  // file; a recycled one would be lost to the catalog).
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    if (free_set_.insert(page_id).second) {
      free_pages_.push_back(page_id);
    }
  }
  return Status::ResourceExhausted(ExhaustedMessage());
}

void BufferPool::PrefetchBatchAsync(const std::vector<PageId>& ids) {
  // Everything the completions touch. Heap-allocated and shared so the
  // batch outlives this call: the last run's completion closure drops the
  // final reference.
  struct BatchState {
    std::vector<PendingRead> slots;
    std::vector<char> bufs;
    std::vector<PageReadRequest> requests;
    std::vector<size_t> request_slot;
  };
  const PageId num_pages = disk_->num_pages();
  auto st = std::make_shared<BatchState>();
  std::vector<PendingRead>& slots = st->slots;
  slots.reserve(ids.size());
  // Phase 1: skip pages the page table shows resident, setting their
  // reference bits, with no latch (a warm join's read-ahead is mostly
  // these); take one short latch per
  // remaining page to skip pages resident or already being read after
  // all, and register an in-flight entry for the rest. Registration also
  // dedupes repeated ids within the batch.
  for (const PageId id : ids) {
    if (id == kInvalidPageId || id >= num_pages) continue;
    const FrameId seen = page_table_.Find(id);
    if (seen != PageTable::kNone && frames_[seen]->page_id() == id) {
      // A resident page that a read-ahead names is about to be read: it
      // gets its second chance back (a hint; a frame re-targeted since the
      // look above merely keeps its new page a sweep longer).
      frames_[seen]->ref_.store(true, std::memory_order_relaxed);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (page_table_.Find(id) != PageTable::kNone ||
        in_flight_.count(id) != 0) {
      continue;
    }
    PendingRead slot;
    slot.page_id = id;
    slot.entry = std::make_shared<InFlight>();
    in_flight_.emplace(id, slot.entry);
    slots.push_back(std::move(slot));
  }
  if (slots.empty()) return;

  // Installs one finished slot (usually on a completion worker). Best-effort
  // contract: any failure installs nothing — the demand fetch pays the miss
  // and surfaces (or retries/repairs) the real error.
  auto install = [this](PendingRead& slot) {
    if (slot.read.ok()) slot.read = VerifyPageTrailer(slot.buf, slot.page_id);
    Page* page = nullptr;
    Status no_write_back;  // read-ahead takes clean frames only
    Install outcome =
        InstallRead(slot, /*demand=*/false, &page, &no_write_back);
    if (outcome == Install::kInstalled) {
      counters_.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
    } else if (outcome == Install::kReadFailed) {
      counters_.prefetch_errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Phase 2, no latches held: WAL-overlay pages are served from the log
  // and installed individually (the overlay is an in-memory/log-offset
  // lookup, not a seek); everything else is split into consecutive-id runs
  // and each run is one async submission — runs of the same batch overlap
  // on the completion workers, and each run's pages install the moment *it*
  // completes (out of order relative to other runs).
  std::vector<char>& bufs = st->bufs;
  bufs.resize(slots.size() * kPageSize);
  Wal* wal = wal_.load(std::memory_order_acquire);
  std::vector<PageReadRequest>& requests = st->requests;
  std::vector<size_t>& request_slot = st->request_slot;
  requests.reserve(slots.size());
  request_slot.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    PendingRead& slot = slots[i];
    slot.buf = bufs.data() + i * kPageSize;
    if (wal != nullptr) {
      auto served = wal->TryReadImage(slot.page_id, slot.buf);
      if (!served.ok() || *served) {
        slot.read = served.status();
        slot.from_log = served.ok();
        install(slot);
        continue;
      }
    }
    requests.push_back(PageReadRequest{slot.page_id, slot.buf, Status::Ok()});
    request_slot.push_back(i);
  }

  size_t j = 0;
  while (j < requests.size()) {
    size_t run = 1;
    while (j + run < requests.size() &&
           requests[j + run].page_id == requests[j].page_id + run) {
      ++run;
    }
    auto completion = [st, install, j, run] {
      for (size_t k = j; k < j + run; ++k) {
        PendingRead& slot = st->slots[st->request_slot[k]];
        slot.read = st->requests[k].status;
        install(slot);
      }
    };
    if (!async_->Submit(&requests[j], run, completion).ok()) {
      // Queue full (or shut down): serve this run inline right here —
      // backpressure degrades to the blocking path, never to a stall.
      disk_->ReadBatch(&requests[j], run);
      completion();
    }
    j += run;
  }
}

void BufferPool::WaitForPrefetchIdle() { async_->Drain(); }

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  // A pinned page keeps its frame and its table entry, but a latch-free
  // probe can miss an entry that an erase is shifting; look again under
  // the latch before calling the page not resident.
  FrameId f = page_table_.Find(page_id);
  if (f == PageTable::kNone || frames_[f]->page_id() != page_id) {
    std::lock_guard<std::mutex> lock(mu_);
    f = page_table_.Find(page_id);
    if (f == PageTable::kNone) {
      return Status::InvalidArgument("UnpinPage: page not resident");
    }
  }
  return UnpinPage(frames_[f].get(), dirty);
}

Status BufferPool::UnpinPage(Page* page, bool dirty) {
  if (!page->Unpin(dirty)) {
    return Status::InvalidArgument("UnpinPage: pin count already zero");
  }
  return Status::Ok();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  const FrameId f = page_table_.Find(page_id);
  if (f == PageTable::kNone) return Status::Ok();  // not resident: no-op
  Page* page = frames_[f].get();
  if (page->is_dirty()) {
    XR_RETURN_IF_ERROR(WriteBack(page));
  }
  return Status::Ok();
}

Status BufferPool::WriteBackAllDirty() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& frame : frames_) {
    Page* page = frame.get();
    if (page->page_id() != kInvalidPageId && page->is_dirty()) {
      XR_RETURN_IF_ERROR(WriteBack(page));
    }
  }
  return Status::Ok();
}

Status BufferPool::FlushAll() {
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  return WriteBackAllDirty();
}

bool BufferPool::DropResident(PageId page_id) {
  const FrameId frame = page_table_.Find(page_id);
  if (frame == PageTable::kNone) return true;
  Page* page = frames_[frame].get();
  // The claim fails only on a real pin: a pin can land on a frame only
  // while it holds the page asked for.
  if (!page->TryClaim(page_id)) return false;
  if (page->prefetched_.load(std::memory_order_relaxed)) {
    counters_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
  }
  page_table_.Erase(page_id);
  page->Reset();
  free_frames_.push_back(frame);
  return true;
}

Status BufferPool::DiscardPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!DropResident(page_id)) {
    return Status::InvalidArgument("DiscardPage: page is pinned");
  }
  return Status::Ok();
}

Status BufferPool::FreePage(PageId page_id) {
  if (page_id == kInvalidPageId || page_id < kNumReservedPages) {
    return Status::InvalidArgument("FreePage: reserved or invalid page id");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!DropResident(page_id)) {
      return Status::InvalidArgument("FreePage: page is pinned");
    }
  }
  // The log may hold an image of the page from before the free; once the id
  // is recycled, a miss must read the new owner's data (or legal zeros from
  // the data file), never that stale image.
  Wal* wal = wal_.load(std::memory_order_acquire);
  if (wal != nullptr) wal->SuppressOverlay(page_id);
  std::lock_guard<std::mutex> lock(alloc_mu_);
  if (free_set_.insert(page_id).second) {
    free_pages_.push_back(page_id);
  }
  return Status::Ok();
}

Status BufferPool::SetFreeList(const std::vector<PageId>& pages) {
  std::vector<PageId> list;
  std::unordered_set<PageId> set;
  list.reserve(pages.size());
  for (PageId id : pages) {
    if (id == kInvalidPageId || id < kNumReservedPages ||
        id >= disk_->num_pages()) {
      return Status::Corruption("free list references page " +
                                std::to_string(id) +
                                " outside the allocated range");
    }
    if (!set.insert(id).second) {
      return Status::Corruption("free list contains page " +
                                std::to_string(id) + " twice");
    }
    list.push_back(id);
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  free_pages_ = std::move(list);
  free_set_ = std::move(set);
  return Status::Ok();
}

std::vector<PageId> BufferPool::FreeListSnapshot() const {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  std::vector<PageId> out = free_pages_;
  std::sort(out.begin(), out.end());
  return out;
}

void BufferPool::SetWal(Wal* wal) {
  wal_.store(wal, std::memory_order_release);
}

Status BufferPool::Commit() {
  Wal* wal = wal_.load(std::memory_order_acquire);
  if (wal == nullptr) {
    return Status::InvalidArgument("Commit: no WAL attached");
  }
  // Log every dirty resident page so the commit record covers the whole
  // logical update, including pages that were never evicted. The exclusive
  // commit barrier holds off every tree write operation (they hold it
  // shared), so each image logged here is from a completed op — never a
  // half-applied split; the pool latch only fences off readers.
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  XR_RETURN_IF_ERROR(WriteBackAllDirty());
  XR_RETURN_IF_ERROR(wal->Commit());
  if (wal->needs_checkpoint()) {
    XR_RETURN_IF_ERROR(wal->Checkpoint(disk_));
  }
  return Status::Ok();
}

Status BufferPool::Checkpoint() {
  Wal* wal = wal_.load(std::memory_order_acquire);
  if (wal == nullptr) {
    return Status::InvalidArgument("Checkpoint: no WAL attached");
  }
  std::unique_lock<std::shared_mutex> barrier(commit_mu_);
  return wal->Checkpoint(disk_);
}

IoStats BufferPool::stats() const {
  IoStats merged = disk_->stats();
  merged += counters_.Snapshot();
  return merged;
}

void BufferPool::NoteFailedUnpin(const Status& error) {
  counters_.failed_unpins.fetch_add(1, std::memory_order_relaxed);
  (void)error;
  assert(false && "PageGuard release: UnpinPage failed (pin leak)");
}

size_t BufferPool::pinned_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& f : frames_) {
    if (f->pin_count() > 0) ++n;
  }
  return n;
}

}  // namespace xrtree
