#ifndef XRTREE_STORAGE_PAGE_LATCH_H_
#define XRTREE_STORAGE_PAGE_LATCH_H_

#include <initializer_list>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace xrtree {

/// The write-side latch-crabbing toolkit (DESIGN.md §14). A WriteLatchSet is
/// one tree write operation's working set: every page it holds is pinned AND
/// write-latched, so the operation can mutate any of them while readers (who
/// R-latch-couple down the same descent) and concurrent writers are held
/// off page by page instead of by a global writer lock.
///
/// Protocol (deadlock freedom):
///  - All multi-latch acquisition is top-down (parent before child) or, for
///    lateral neighbours, strictly rightward (a split fixes its old
///    successor's prev pointer; a merge fixes the removed node's successor).
///  - Crabbing: after latching a child that is *safe* (insert: has room;
///    delete: above min fill), release every held ancestor — no structural
///    change can propagate above a safe node.
///  - Never re-acquire a released ancestor within one operation (that would
///    be a bottom-up acquisition).
///  - A delete's rebalance lets its leaves go before it latches siblings of
///    their parent: a held leaf can be another merge's rightward successor,
///    and that merge's writer may hold the sibling.
///
/// Freed tree nodes go through DeferFree: the caller tombstones the page
/// (stamps an invalid magic) while still holding its W-latch, and the
/// actual BufferPool::FreePage runs after ReleaseAll has dropped every
/// latch — readers that were blocked on a dead page's latch hold pins, and
/// FreePage refuses pinned pages. DeferFree bumps the pool's free epoch
/// while the dead page is still W-latched, so a snapshot cursor that later
/// latches it, or finds its id free-listed, sees the epoch moved and
/// re-descends (see BufferPool::free_epoch()).
class WriteLatchSet {
 public:
  explicit WriteLatchSet(BufferPool* pool) : pool_(pool) {}
  ~WriteLatchSet() { ReleaseAll(); }

  WriteLatchSet(const WriteLatchSet&) = delete;
  WriteLatchSet& operator=(const WriteLatchSet&) = delete;

  /// Returns `id` pinned and W-latched. If the set already holds `id`, the
  /// cached pointer comes back immediately (re-entrant within one op). A
  /// fresh acquisition blocks until the latch is granted — call sites must
  /// respect the top-down / rightward ordering above.
  Result<Page*> Acquire(PageId id);

  /// Adopts a page the caller just got from BufferPool::NewPage (pinned,
  /// not yet latched) into the set: W-latches it before anyone else can see
  /// its id. Always latch a new page *before* formatting it — a freed id
  /// may be recycled while a stale reader still holds it from an old
  /// snapshot, and that reader must block (then see the new magic) rather
  /// than observe a half-formatted node.
  void AdoptNew(Page* page);

  bool Holds(PageId id) const;

  /// Cached pointer for a held page, nullptr otherwise.
  Page* Get(PageId id) const;

  /// Records that a held page was mutated; its unpin carries dirty=true.
  void MarkDirty(PageId id);

  /// Crab-release one held page (unlatch + unpin). No-op if not held.
  void Release(PageId id);

  /// Crab-release every held page except the listed ones (the "child is
  /// safe, drop the ancestors" step).
  void ReleaseAllExcept(std::initializer_list<PageId> keep) {
    ReleaseAllExcept(std::span<const PageId>(keep.begin(), keep.size()));
  }
  void ReleaseAllExcept(std::span<const PageId> keep);

  /// Bumps the free epoch and queues `id` for FreePage after the latches
  /// drop. The caller must have tombstoned the page (invalid magic) under
  /// its held W-latch, and must still hold it.
  void DeferFree(PageId id);

  /// Unlatches and unpins everything, then processes deferred frees
  /// (bounded-retry FreePage; a page kept pinned by a slow
  /// reader beyond the retry budget is leaked to the pool rather than
  /// blocking the writer — the id is simply never recycled). Idempotent;
  /// also run by the destructor.
  Status ReleaseAll();

  size_t held_count() const { return held_.size(); }

 private:
  struct Held {
    PageId id;
    Page* page;
    bool dirty;
  };

  void ReleaseHeld(Held& h);

  BufferPool* pool_;
  std::vector<Held> held_;
  std::vector<PageId> deferred_;
};

/// A pinned page with a shared (read) latch held — the unit of reader
/// latch coupling. Destruction unlatches first, then the embedded PageGuard
/// drops the pin (members destroy in reverse declaration order after the
/// body runs, and ~ReadLatchedPage's body unlatches before either).
class ReadLatchedPage {
 public:
  ReadLatchedPage() = default;
  ReadLatchedPage(BufferPool* pool, Page* page) : guard_(pool, page) {
    page->RLatch();
    latched_ = true;
  }
  ReadLatchedPage(ReadLatchedPage&& o) noexcept
      : guard_(std::move(o.guard_)), latched_(o.latched_) {
    o.latched_ = false;
  }
  ReadLatchedPage& operator=(ReadLatchedPage&& o) noexcept {
    if (this != &o) {
      Unlatch();
      guard_ = std::move(o.guard_);
      latched_ = o.latched_;
      o.latched_ = false;
    }
    return *this;
  }
  ReadLatchedPage(const ReadLatchedPage&) = delete;
  ReadLatchedPage& operator=(const ReadLatchedPage&) = delete;
  ~ReadLatchedPage() { Unlatch(); }

  /// Drops the latch now (the pin stays until destruction/Release).
  void Unlatch() {
    if (latched_) {
      guard_.get()->RUnlatch();
      latched_ = false;
    }
  }
  /// Drops latch and pin now.
  void Release() {
    Unlatch();
    guard_.Release();
  }

  Page* get() const { return guard_.get(); }
  PageId page_id() const { return guard_.page_id(); }
  explicit operator bool() const { return static_cast<bool>(guard_); }

 private:
  PageGuard guard_;
  bool latched_ = false;
};

}  // namespace xrtree

#endif  // XRTREE_STORAGE_PAGE_LATCH_H_
