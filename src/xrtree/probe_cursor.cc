#include "xrtree/probe_cursor.h"

#include <algorithm>

#include "storage/page_latch.h"
#include "xrtree/ancestor_probe.h"

namespace xrtree {

Status XrProbeCursor::FindAncestorsAbove(Position sd, Position min_start,
                                         ElementList* out, uint64_t* scanned,
                                         Position* next_start) {
  out->clear();
  const uint64_t seq = tree_->write_seq_.load(std::memory_order_acquire);
  bool served = valid_ && seq == tag_;
  if (served && !(leaf_lo_ <= sd && sd < leaf_hi_)) {
    // Re-descend from the deepest cached level whose range covers sd (the
    // root's range covers every position).
    size_t depth = depth_;
    while (depth > 1 && !(levels_[depth - 1].lo <= sd &&
                          sd < levels_[depth - 1].hi)) {
      --depth;
    }
    XR_ASSIGN_OR_RETURN(served, Refill(sd, seq, depth));
  } else if (!served) {
    XR_ASSIGN_OR_RETURN(served, Refill(sd, seq, 0));
  }

  uint64_t local_scanned = 0;
  Position terminator = kNilPosition;
  if (served) {
    collected_.clear();
    for (size_t d = 0; d < depth_; ++d) {
      const Level& lv = levels_[d];
      // The search cannot fail over an in-memory chain.
      (void)ForEachStabbedPsl(
          lv.slots.data(), static_cast<uint32_t>(lv.slots.size()), sd,
          min_start, [&](Position key) {
            CollectStabbedInSlice(lv.stab.data(),
                                  static_cast<uint32_t>(lv.stab.size()), key,
                                  sd, min_start, &collected_, &local_scanned);
            return Status::Ok();
          });
    }
    const uint32_t n = static_cast<uint32_t>(leaf_.size());
    // The previous probe over this copy stopped at the first start >= its
    // point, which the join's next floor (that point - 1) does not pass.
    uint32_t i = ScanLeafForAncestors(leaf_.data(), n, sd, min_start, out,
                                      &local_scanned, leaf_finger_);
    leaf_finger_ = i;
    // A floor at or past sd skips the elements in [sd, min_start], so the
    // finger then says nothing about sd.
    scan_point_ = min_start < sd ? sd : kNilPosition;
    if (next_start != nullptr) {
      if (i < n) {
        terminator = leaf_[i].start;
      } else if (tail_known_) {
        terminator = tail_start_;
      } else {
        // Same lookup as the one-shot path's tail probe; its answer holds
        // for every later point past the leaf's last element while the
        // copy stays valid, so it is fetched once per leaf.
        XR_ASSIGN_OR_RETURN(XrTree::Cursor it, tree_->LowerBound(sd));
        tail_start_ = it.Valid() ? it.Get().start : kNilPosition;
        tail_known_ = true;
        terminator = tail_start_;
        served = tree_->write_seq_.load(std::memory_order_acquire) == tag_;
      }
    }
  }
  if (!served) {
    ++fallbacks_;
    valid_ = false;
    XR_ASSIGN_OR_RETURN(*out, tree_->FindAncestorsAbove(sd, min_start,
                                                        scanned, next_start));
    return Status::Ok();
  }
  // The leaf scan emits in start order; only stab entries need sorting in.
  if (!collected_.empty()) {
    for (const StabEntry& se : collected_) out->push_back(ToElement(se));
    std::sort(out->begin(), out->end());
  }
  if (scanned != nullptr) *scanned += local_scanned;
  if (next_start != nullptr) *next_start = terminator;
  return Status::Ok();
}

Result<bool> XrProbeCursor::Refill(Position sd, uint64_t seq,
                                   size_t depth) {
  ++refills_;
  valid_ = false;
  // A writer that bumped the sequence before `seq` was loaded has
  // registered itself here first, so it is seen and not copied mid-write.
  if (tree_->writers_active_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  auto raced = [&] {
    return tree_->write_seq_.load(std::memory_order_acquire) != seq;
  };
  // A failed page check is a race when a writer ran, corruption otherwise.
  auto race_or = [&](const Status& st) -> Result<bool> {
    if (raced()) return false;
    return st;
  };
  BufferPool* pool = tree_->pool_;
  Position lo = 0;
  Position hi = kNilPosition;
  ReadLatchedPage cur;
  if (depth == 0) {
    PageId root_id = tree_->root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) {
      depth_ = 0;
      leaf_.clear();
      leaf_lo_ = 0;
      leaf_hi_ = kNilPosition;
    } else {
      auto fetched = pool->FetchPage(root_id);
      if (!fetched.ok()) return false;
      cur = ReadLatchedPage(pool, *fetched);
      if (tree_->root_.load(std::memory_order_acquire) != root_id) {
        return false;
      }
    }
  } else {
    // The parent's copy is current (seq == tag), so its child link names a
    // live node — unless a writer started since, which the check after the
    // latch catches before anything is read.
    const Level& parent = levels_[depth - 1];
    const uint32_t count = static_cast<uint32_t>(parent.slots.size());
    uint32_t slot = ChildSlotIn(parent.slots.data(), count, sd);
    PageId child =
        slot == 0 ? parent.leftmost : parent.slots[slot - 1].child;
    lo = slot == 0 ? parent.lo : parent.slots[slot - 1].key;
    hi = slot == count ? parent.hi : parent.slots[slot].key;
    auto fetched = pool->FetchPage(child);
    if (!fetched.ok()) return false;
    cur = ReadLatchedPage(pool, *fetched);
    if (raced()) return false;
  }

  // R-latch-coupled descent, copying each level under its latch (the stab
  // chain too: the node's R latch keeps writers from rewriting it).
  for (size_t d = depth; cur; ++d) {
    if (d >= static_cast<size_t>(kMaxTreeDepth)) return false;
    const Page* raw = cur.get();
    const auto* hdr = XrHeader(raw);
    if (Status st = XrCheckPage(raw); !st.ok()) return race_or(st);
    if (hdr->is_leaf) {
      leaf_.clear();
      if (Status st = XrLeafAppend(raw, &leaf_); !st.ok()) return race_or(st);
      depth_ = d;
      leaf_lo_ = lo;
      leaf_hi_ = hi;
      break;
    }
    if (hdr->count == 0) return false;
    if (levels_.size() <= d) levels_.emplace_back();
    Level& lv = levels_[d];
    lv.lo = lo;
    lv.hi = hi;
    lv.leftmost = hdr->leftmost;
    lv.slots.assign(XrInternalSlots(raw), XrInternalSlots(raw) + hdr->count);
    auto stab = tree_->ReadNodeStab(raw);
    if (!stab.ok()) return race_or(stab.status());
    lv.stab = std::move(*stab);
    uint32_t slot = ChildSlotIn(lv.slots.data(), hdr->count, sd);
    PageId child = slot == 0 ? lv.leftmost : lv.slots[slot - 1].child;
    if (slot > 0) lo = lv.slots[slot - 1].key;
    if (slot < hdr->count) hi = lv.slots[slot].key;
    auto fetched = pool->FetchPage(child);
    if (!fetched.ok()) return false;
    ReadLatchedPage next(pool, *fetched);
    cur = std::move(next);
  }
  cur.Release();
  if (raced()) return false;
  tag_ = seq;
  valid_ = true;
  tail_known_ = false;
  leaf_finger_ = 0;
  scan_point_ = kNilPosition;
  return true;
}

}  // namespace xrtree
