#include "storage/page_latch.h"

#include <algorithm>
#include <chrono>
#include <thread>

// ThreadSanitizer's potential-deadlock detector builds a lock-order graph
// over mutex *instances*. Page latches live in buffer-pool frames, and a
// frame serves many different pages over its lifetime, so the instance
// graph accumulates edges from unrelated pages and reports inversions for
// latch-crabbing descents that are cycle-free over page identities at any
// instant (DESIGN.md §14 gives the ordering argument). Suppress deadlock
// reports whose stacks go through the page latch; data-race detection and
// deadlock detection on every named mutex (WAL mutex, writer gate, pool
// latch, commit barrier) remain fully active.
#if defined(__SANITIZE_THREAD__)
#define XR_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XR_TSAN_ACTIVE 1
#endif
#endif
#ifdef XR_TSAN_ACTIVE
extern "C" const char* __tsan_default_suppressions() {
  return "deadlock:xrtree::Page::WLatch\n"
         "deadlock:xrtree::Page::RLatch\n";
}
#endif

namespace xrtree {

Result<Page*> WriteLatchSet::Acquire(PageId id) {
  if (Page* cached = Get(id)) return cached;
  XR_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(id));
  page->WLatch();
  held_.push_back(Held{id, page, false});
  return page;
}

void WriteLatchSet::AdoptNew(Page* page) {
  page->WLatch();
  held_.push_back(Held{page->page_id(), page, false});
}

bool WriteLatchSet::Holds(PageId id) const { return Get(id) != nullptr; }

Page* WriteLatchSet::Get(PageId id) const {
  for (const Held& h : held_) {
    if (h.id == id) return h.page;
  }
  return nullptr;
}

void WriteLatchSet::MarkDirty(PageId id) {
  for (Held& h : held_) {
    if (h.id == id) {
      h.dirty = true;
      return;
    }
  }
}

void WriteLatchSet::ReleaseHeld(Held& h) {
  // Unlatch before unpin: the latch lives in the frame, and the pin is
  // what keeps the frame from being evicted or re-targeted under us.
  h.page->WUnlatch();
  Status unpin = pool_->UnpinPage(h.page, h.dirty);
  if (!unpin.ok()) pool_->NoteFailedUnpin(unpin);
}

void WriteLatchSet::Release(PageId id) {
  for (size_t i = 0; i < held_.size(); ++i) {
    if (held_[i].id == id) {
      ReleaseHeld(held_[i]);
      held_.erase(held_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void WriteLatchSet::ReleaseAllExcept(std::span<const PageId> keep) {
  std::vector<Held> kept;
  kept.reserve(keep.size());
  for (Held& h : held_) {
    bool retain = false;
    for (PageId k : keep) {
      if (h.id == k) {
        retain = true;
        break;
      }
    }
    if (retain) {
      kept.push_back(h);
    } else {
      ReleaseHeld(h);
    }
  }
  held_ = std::move(kept);
}

void WriteLatchSet::DeferFree(PageId id) {
  // Publish the death before the latch can drop: a reader that sampled the
  // epoch earlier must see it change before it can read the tombstone or
  // NewPage can hand the id out again.
  pool_->BumpFreeEpoch();
  deferred_.push_back(id);
}

Status WriteLatchSet::ReleaseAll() {
  for (Held& h : held_) ReleaseHeld(h);
  held_.clear();
  if (deferred_.empty()) return Status::Ok();
  std::vector<PageId> dead;
  dead.swap(deferred_);
  Status first_error = Status::Ok();
  for (PageId id : dead) {
    // A reader that was blocked on the dead page's W-latch still holds a
    // pin for a moment after we release; FreePage refuses pinned pages, so
    // retry briefly. Such a reader is a cursor hop, which sees the epoch
    // DeferFree moved, or a descent at a collapsed root, which sees root_
    // moved; both re-descend, and the tombstone (invalid magic) keeps any
    // other read from taking it as a live node. If a pin outlives the
    // retry budget, leak the id: the
    // tree is correct, the page is merely never recycled.
    constexpr int kRetries = 64;
    Status freed;
    for (int attempt = 0; attempt < kRetries; ++attempt) {
      freed = pool_->FreePage(id);
      if (freed.ok()) break;
      if (attempt < 8) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (!freed.ok() && first_error.ok()) first_error = freed;
  }
  // A leaked page is not an operation failure; surface nothing. (The first
  // error is kept for debugging hooks if this policy ever tightens.)
  (void)first_error;
  return Status::Ok();
}

}  // namespace xrtree
