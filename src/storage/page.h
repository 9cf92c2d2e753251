#ifndef XRTREE_STORAGE_PAGE_H_
#define XRTREE_STORAGE_PAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <shared_mutex>

namespace xrtree {

/// Logical page number within a database file. Pages 0 and 1 are the two
/// catalog header slots (see storage/catalog.h).
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Pages reserved at the front of every database file: the ping-pong pair
/// of catalog header slots. The first allocatable data page is page 2.
inline constexpr PageId kNumReservedPages = 2;

/// Fixed page size. The paper targets 2002-era disk pages; 4 KiB keeps the
/// fanout (~250 element entries per leaf) in the same regime.
inline constexpr size_t kPageSize = 4096;

/// Physical layout every page obeys: the leading kDataSize bytes belong to
/// the owning structure (B+-tree node, stab page, element file page,
/// catalog, ...); the trailing kTrailerSize bytes are an integrity trailer
/// stamped by the BufferPool on write-back and verified on fetch. Layout
/// headers must size their slot arrays against kDataSize, never kPageSize.
struct PageLayout {
  static constexpr size_t kTrailerSize = 16;
  static constexpr size_t kDataSize = kPageSize - kTrailerSize;
  /// Bumped whenever the on-disk page format changes incompatibly.
  /// v2: trailer grew an LSN field (8 -> 16 bytes) for WAL recovery.
  static constexpr uint16_t kFormatVersion = 2;
};

/// Usable payload bytes of a page (excludes the integrity trailer).
inline constexpr size_t kPageDataSize = PageLayout::kDataSize;

/// Upper bound on the depth of any paged tree in this engine. With fanouts
/// in the hundreds even a page-sized database fits in a handful of levels;
/// a descent running past this is following a corrupt child pointer.
inline constexpr int kMaxTreeDepth = 64;

/// The integrity trailer occupying the last PageLayout::kTrailerSize bytes.
/// `crc` covers the payload plus the version, the page id (so a page
/// written to the wrong offset — a misdirected write — fails verification)
/// and the LSN. `lsn` is the log sequence number of the WAL record that
/// last carried this page image (0 when the page was written without a
/// WAL attached); recovery and debugging use it to place a page in log
/// order. An all-zero trailer is only legal on an all-zero (never written)
/// page.
struct PageTrailer {
  uint32_t crc;
  uint16_t version;
  uint16_t reserved;
  uint64_t lsn;
};
static_assert(sizeof(PageTrailer) == PageLayout::kTrailerSize);

/// An in-memory frame holding one disk page plus buffer-pool bookkeeping.
/// Frames are owned by the BufferPool; client code receives pinned Page
/// pointers (or PageGuard RAII handles) and must not retain them past unpin.
///
/// The page bytes live apart from the bookkeeping: a pool frame points into
/// the pool's frame mapping (DESIGN.md §13), so building a frame touches
/// none of its data. A Page built on its own (a scratch page) owns a zeroed
/// kPageSize buffer instead.
class Page {
 public:
  Page() : owned_(new char[kPageSize]()), data_(owned_.get()) {}

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Typed view of the page contents. T must be trivially copyable and fit
  /// within kPageSize.
  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<const T*>(data_);
  }

  PageId page_id() const {
    return static_cast<PageId>(state_.load(std::memory_order_acquire) >> 32);
  }
  bool is_dirty() const { return is_dirty_.load(std::memory_order_relaxed); }
  int pin_count() const {
    const uint32_t pins = Pins(state_.load(std::memory_order_acquire));
    return pins == kClaimed ? 0 : static_cast<int>(pins);
  }

  /// Per-page latch (DESIGN.md §14). Guards the page *contents*. The
  /// buffer-pool bookkeeping is atomic and follows the pool's claim
  /// protocol (DESIGN.md §9): any thread pins and unpins without the pool
  /// latch, and only latched pool code claims a frame to re-target it.
  /// Latch only while holding a pin: the latch lives in the frame, and an
  /// unpinned frame may be evicted and re-targeted at any time. Readers
  /// couple R-latches down a descent; writers crab W-latches
  /// (WriteLatchSet). The latch survives Reset() deliberately — a frame is
  /// only ever reset while claimed, so no pin and no latch holder exists.
  void RLatch() const { latch_.lock_shared(); }
  void RUnlatch() const { latch_.unlock_shared(); }
  bool TryRLatch() const { return latch_.try_lock_shared(); }
  void WLatch() { latch_.lock(); }
  void WUnlatch() { latch_.unlock(); }

 private:
  friend class BufferPool;

  /// A pool frame over `frame`: kPageSize bytes of the pool's mapping,
  /// which the OS supplies zeroed, so nothing is written here.
  explicit Page(char* frame) : data_(frame) {}

  /// The low half of `state_` while latched pool code owns the frame: no
  /// pin can be taken until the owner publishes a page id and pin count.
  static constexpr uint32_t kClaimed = 0xFFFFFFFFu;
  static constexpr uint64_t Word(PageId id, uint32_t pins) {
    return (uint64_t{id} << 32) | pins;
  }
  static constexpr uint32_t Pins(uint64_t word) {
    return static_cast<uint32_t>(word);
  }

  /// Pins the frame if it holds `id` and is not claimed. One CAS: the page
  /// id sits in the word it increments, so a pin can only ever land on the
  /// page asked for. Acquire pairs with the release that published the
  /// frame's bytes (an install) or dropped the last pin (a write).
  bool TryPin(PageId id) {
    uint64_t w = state_.load(std::memory_order_relaxed);
    while (static_cast<PageId>(w >> 32) == id && Pins(w) != kClaimed) {
      if (state_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Drops one pin; false when the frame holds no pin to drop. The dirty
  /// bit is stored before the releasing decrement, so whoever claims the
  /// frame next sees it (and the bytes the pin holder wrote).
  bool Unpin(bool dirty) {
    uint64_t w = state_.load(std::memory_order_relaxed);
    do {
      if (Pins(w) == 0 || Pins(w) == kClaimed) return false;
      if (dirty) is_dirty_.store(true, std::memory_order_relaxed);
    } while (!state_.compare_exchange_weak(w, w - 1, std::memory_order_release,
                                           std::memory_order_relaxed));
    return true;
  }

  /// Takes the frame for latched pool code if it holds `id` with no pin.
  /// Fails while any pin is held.
  bool TryClaim(PageId id) {
    uint64_t w = Word(id, 0);
    return state_.compare_exchange_strong(w, Word(id, kClaimed),
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  /// Ends a claim: the frame holds `id` with `pins` pins. Release publishes
  /// everything the claimer wrote to the frame.
  void Publish(PageId id, uint32_t pins) {
    state_.store(Word(id, pins), std::memory_order_release);
  }

  // Every path that returns a frame to a free list (or re-targets it to a
  // new page id) must Reset() it first, while it holds the claim. Clearing
  // `prefetched_` here is part of the prefetch accounting contract: stale
  // provenance on a recycled frame would mis-credit prefetch_hits to the
  // frame's next occupant. The buffer pool asserts this invariant when
  // popping free-list frames. The memset keeps "a free-list frame is all
  // zero" true for recycled frames; a never-used frame is zero because its
  // mapping is. The final store ends the claim: no page id, no pin.
  void Reset() {
    std::memset(data_, 0, kPageSize);
    is_dirty_.store(false, std::memory_order_relaxed);
    prefetched_.store(false, std::memory_order_relaxed);
    ref_.store(false, std::memory_order_relaxed);
    Publish(kInvalidPageId, 0);
  }

  /// Backing buffer of a standalone page; null for a pool frame.
  std::unique_ptr<char[]> owned_;
  char* const data_;
  /// Content latch; mutable so const (reader) views can share-lock.
  mutable std::shared_mutex latch_;
  /// Page id (high half) and pin count or kClaimed (low half), one word so
  /// a pin and the check of what it pins are one atomic step.
  std::atomic<uint64_t> state_{Word(kInvalidPageId, 0)};
  std::atomic<bool> is_dirty_{false};
  /// Installed by PrefetchBatchAsync and not yet touched by any FetchPage. The
  /// BufferPool resolves the flag into exactly one of prefetch_hits (first
  /// fetch, which exchanges it under its pin) or prefetch_wasted (evicted or
  /// discarded first, under the claim).
  std::atomic<bool> prefetched_{false};
  /// Second-chance (CLOCK) reference bit. Set by a pool hit (and by a
  /// prefetch install, granting read-ahead one grace revolution); cleared
  /// when the sweep hand passes. Demand installs leave it clear so a
  /// fetched-once page ranks below a re-referenced one — which keeps the
  /// policy's eviction order LRU-compatible for the classic access traces
  /// the single-threaded tests pin down. A hint: relaxed, written by
  /// latch-free hits and by the latched sweep alike.
  std::atomic<bool> ref_{false};
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_PAGE_H_
