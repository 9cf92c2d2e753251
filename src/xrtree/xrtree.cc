#include "xrtree/xrtree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "storage/element_file.h"
#include "xrtree/ancestor_probe.h"
#include "xrtree/page_codec.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {

namespace {

/// First leaf slot whose start >= key.
uint32_t XrLeafLowerBound(const Page* page, Position key) {
  const Element* slots = XrLeafSlots(page);
  uint32_t lo = 0, hi = XrHeader(page)->count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].start < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t XrChildSlot(const Page* page, Position key) {
  return XrChildSlot(XrInternalSlots(page), XrHeader(page)->count, key);
}

PageId XrChildAt(const Page* page, uint32_t child_slot) {
  return child_slot == 0 ? XrHeader(page)->leftmost
                         : XrInternalSlots(page)[child_slot - 1].child;
}

/// Smallest key of `page` that stabs [s, e] (i.e. the smallest key >= s,
/// when it is <= e). Returns true and the key slot on success. This is the
/// primary-stab test of Definition 2 applied to one node.
bool SmallestStabbingKey(const Page* page, Position s, Position e,
                         uint32_t* slot_out) {
  const XrInternalEntry* slots = XrInternalSlots(page);
  uint32_t n = XrHeader(page)->count;
  uint32_t lo = 0, hi = n;
  while (lo < hi) {  // first key >= s
    uint32_t mid = (lo + hi) / 2;
    if (slots[mid].key < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n && slots[lo].key <= e) {
    *slot_out = lo;
    return true;
  }
  return false;
}

/// Bound on decompress-on-write split rounds per Insert or Delete. Each
/// round halves the compressed leaf holding the key, and a compressed leaf
/// holds at most kXrcMaxPageEntries, so a handful suffice; the bound only
/// stops a corrupt page from looping forever.
constexpr int kMaxDecompressRounds = 40;

}  // namespace

XrTree::XrTree(BufferPool* pool, PageId root, const XrTreeOptions& options)
    : pool_(pool), root_(root) {
  leaf_cap_ = options.leaf_capacity == 0
                  ? static_cast<uint32_t>(kXrLeafMaxEntries)
                  : std::min<uint32_t>(options.leaf_capacity,
                                       kXrLeafMaxEntries);
  internal_cap_ = options.internal_capacity == 0
                      ? static_cast<uint32_t>(kXrInternalMaxEntries)
                      : std::min<uint32_t>(options.internal_capacity,
                                           kXrInternalMaxEntries);
  naive_split_key_ = options.naive_split_key;
  use_ps_dir_ = !options.disable_ps_directory;
  compressed_ = options.compressed_pages;
  assert(leaf_cap_ >= 2 && internal_cap_ >= 2);
}

Status XrTree::InitRootLeaf() {
  XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
  PageGuard page(pool_, raw);
  page.MarkDirty();
  // W-latch before formatting: the id may be recycled, and a stale reader
  // still holding it from an old snapshot must block rather than observe a
  // half-formatted node.
  raw->WLatch();
  auto* hdr = XrHeader(raw);
  hdr->magic = kXrLeafMagic;
  hdr->is_leaf = 1;
  hdr->count = 0;
  hdr->next = kInvalidPageId;
  hdr->prev = kInvalidPageId;
  hdr->leftmost = kInvalidPageId;
  hdr->stab_head = kInvalidPageId;
  hdr->ps_dir = kInvalidPageId;
  root_.store(raw->page_id(), std::memory_order_release);
  raw->WUnlatch();
  return Status::Ok();
}

template <typename Visit>
Result<ReadLatchedPage> XrTree::DescendRead(Position key,
                                            Visit&& visit) const {
  for (;;) {
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return ReadLatchedPage();
    auto fetched = pool_->FetchPage(root_id);
    if (!fetched.ok()) {
      // The root can only have moved under us (a grow/shrink recycled the
      // id); a stale id surfacing any error while the root has moved is a
      // retry, anything else is real.
      if (root_.load(std::memory_order_acquire) != root_id) continue;
      return fetched.status();
    }
    ReadLatchedPage cur(pool_, *fetched);
    // Validate after latching: a root split that completed between the load
    // and the latch grant W-held this page throughout, so either we blocked
    // and now see a non-root node (root_ changed — retry) or we raced ahead
    // of it entirely.
    if (root_.load(std::memory_order_acquire) != root_id) continue;
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      Page* raw = cur.get();
      XR_RETURN_IF_ERROR(XrCheckPage(raw));
      if (XrHeader(raw)->is_leaf) return cur;
      XR_RETURN_IF_ERROR(visit(static_cast<const Page*>(raw)));
      PageId child = XrChildAt(raw, XrChildSlot(raw, key));
      // Couple: latch the child while the parent latch pins the link.
      XR_ASSIGN_OR_RETURN(Page * craw, pool_->FetchPage(child));
      ReadLatchedPage next(pool_, craw);
      cur = std::move(next);
    }
    return Status::Corruption("xrtree: descent did not reach a leaf");
  }
}

Result<ReadLatchedPage> XrTree::DescendToLeafRead(Position key) const {
  return DescendRead(key, [](const Page*) { return Status::Ok(); });
}

Result<std::vector<PageId>> XrTree::LeafRunAfter(Position key, size_t max_run,
                                                 Position* resume_key,
                                                 Position hi) const {
  std::vector<PageId> run;
  if (max_run == 0) return run;
  // Record the children after the taken slot at every level; when the
  // descent bottoms out, the last recording is the leaf's sibling run. (An
  // internal node with `count` keys has `count + 1` children, at child
  // slots 0..count. The child at slot i >= 1 begins at the separator
  // slots[i-1].key, which is the resume key when that child is the last
  // one recorded.) A child whose separator is at or past `hi` starts
  // outside the caller's range and is never visited — stop the run there
  // rather than prefetch dead pages.
  auto record_run = [&](const Page* node) {
    const uint32_t count = XrHeader(node)->count;
    const XrInternalEntry* slots = XrInternalSlots(node);
    run.clear();
    uint32_t last = 0;
    for (uint32_t next = XrChildSlot(node, key) + 1;
         next <= count && run.size() < max_run; ++next) {
      if (hi != kNilPosition && slots[next - 1].key >= hi) break;
      run.push_back(XrChildAt(node, next));
      last = next;
    }
    if (resume_key != nullptr && !run.empty()) {
      *resume_key = slots[last - 1].key;
    }
    return Status::Ok();
  };
  XR_RETURN_IF_ERROR(DescendRead(key, record_run).status());
  return run;
}

Result<std::vector<StabEntry>> XrTree::ReadNodeStab(const Page* node) const {
  const auto* hdr = XrHeader(node);
  StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_, compressed_);
  return list.ReadAll();
}

Status XrTree::WriteNodeStab(Page* node, std::vector<StabEntry> entries) {
  std::sort(entries.begin(), entries.end(), StabEntryLess);
  auto* hdr = XrHeader(node);
  StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_, compressed_);
  XR_RETURN_IF_ERROR(list.WriteAll(entries));
  hdr->stab_head = list.head();
  hdr->ps_dir = list.ps_dir();

  // Refresh every key's (ps, pe) summary: the region of the first element
  // of its PSL (Definition 3), or nil when the PSL is empty.
  XrInternalEntry* slots = XrInternalSlots(node);
  size_t ei = 0;
  for (uint32_t i = 0; i < hdr->count; ++i) {
    while (ei < entries.size() && entries[ei].key < slots[i].key) ++ei;
    if (ei < entries.size() && entries[ei].key == slots[i].key) {
      slots[i].ps = entries[ei].s;
      slots[i].pe = entries[ei].e;
    } else {
      slots[i].ps = kNilPosition;
      slots[i].pe = kNilPosition;
    }
  }
  return Status::Ok();
}

Status XrTree::InsertStabIntoNode(Page* node, const StabEntry& entry) {
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(node));
  entries.push_back(entry);
  return WriteNodeStab(node, std::move(entries));
}

// ---------------------------------------------------------------------------
// Insertion (Algorithm 1)
// ---------------------------------------------------------------------------

Status XrTree::Insert(const Element& element) {
  if (!(element.start < element.end)) {
    return Status::InvalidArgument("element start must precede end");
  }
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  // Inserts share the writer gate with each other (they crab); Delete,
  // BulkLoad, BulkLoadFromFile and Compact take it exclusively.
  std::shared_lock<std::shared_mutex> gate(writer_gate_);
  if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
    std::lock_guard<std::mutex> init(root_init_mu_);
    if (root_.load(std::memory_order_acquire) == kInvalidPageId) {
      XR_RETURN_IF_ERROR(InitRootLeaf());
    }
  }

  // I1: crab down; on the way, insert the element into the stab list of the
  // highest (topmost) internal node with a stabbing key. That node stays
  // W-latched to the end of the operation even when the crab would drop it:
  // the rollback paths must still reach it, and holding it pins the
  // element's topmost-node invariant against concurrent promotions.
  // A concurrent split can only promote a key into an ancestor we released
  // while holding that ancestor's W-latch itself (a full child is unsafe,
  // so its parent was retained by the splitter), and our coupled descent
  // serializes against it — we see the key either above or below, never
  // neither. Each pass either loses a race with a root split (nothing was
  // placed yet), splits a compressed leaf and re-descends, or finishes.
  int splits = 0;
  for (;;) {
    WriteLatchSet ls(pool_);
    std::vector<PathEntry> path;
    bool placed = false;
    PageId placed_page = kInvalidPageId;
    Position placed_key = 0;
    PageId root_id = root_.load(std::memory_order_acquire);
    auto fetched = ls.Acquire(root_id);
    if (!fetched.ok()) {
      if (root_.load(std::memory_order_acquire) != root_id) continue;
      return fetched.status();
    }
    // A root split won the race: the stale root now covers only a slice of
    // the key space.
    if (root_.load(std::memory_order_acquire) != root_id) continue;
    Page* node = *fetched;
    for (int depth = 0;; ++depth) {
      XR_RETURN_IF_ERROR(XrCheckPage(node));
      if (XrHeader(node)->is_leaf) break;
      if (depth == kMaxTreeDepth) {
        return Status::Corruption("xrtree: descent did not reach a leaf");
      }
      if (!placed) {
        uint32_t stab_slot;
        if (SmallestStabbingKey(node, element.start, element.end,
                                &stab_slot)) {
          Position key = XrInternalSlots(node)[stab_slot].key;
          XR_RETURN_IF_ERROR(
              InsertStabIntoNode(node, MakeStabEntry(element, key)));
          ls.MarkDirty(node->page_id());
          placed = true;
          placed_page = node->page_id();
          placed_key = key;
        }
      }
      uint32_t slot = XrChildSlot(node, element.start);
      path.push_back({node->page_id(), slot});
      PageId child_id = XrChildAt(node, slot);
      XR_ASSIGN_OR_RETURN(Page * child, ls.Acquire(child_id));
      const auto* chdr = XrHeader(child);
      uint32_t cap = chdr->is_leaf ? leaf_cap_ : internal_cap_;
      if (chdr->count < cap) {
        // Safe child: a split below cannot propagate past it — drop the
        // ancestors, but never the stab-placement node.
        if (placed) {
          ls.ReleaseAllExcept({child_id, placed_page});
        } else {
          ls.ReleaseAllExcept({child_id});
        }
      }
      node = child;
    }
    path.push_back({node->page_id(), 0});

    // Decompress-on-write inside the crab (DESIGN.md §15). A leaf whose
    // entries fit leaf_capacity is left in the fixed layout under its own
    // latch (when full, it failed the crab's safety test, so LeafInsert's
    // split has its ancestors). Only a compressed leaf holds more, and it
    // failed that test too: split it here under the ancestors the crab
    // kept, then re-descend. The split rewrites stab lists on the held path
    // and could retag or move the speculative placement, so undo it first.
    if (placed && XrHeader(node)->count > leaf_cap_) {
      XR_RETURN_IF_ERROR(
          RollbackStabPlacement(ls, placed_page, placed_key, element));
    }
    XR_ASSIGN_OR_RETURN(bool split, DecompressLeafStep(ls, path));
    if (split) {
      if (++splits == kMaxDecompressRounds) {
        return Status::Corruption(
            "xrtree: decompress-on-write did not converge");
      }
      continue;
    }
    return LeafInsert(ls, path, element, placed, placed_page, placed_key);
  }
}

Status XrTree::RollbackStabPlacement(WriteLatchSet& ls, PageId placed_page,
                                     Position placed_key,
                                     const Element& element) {
  // Undo the speculative I1 stab placement (duplicate key, or a compressed
  // leaf about to split). The placement node is still in the latch set by
  // construction.
  Page* nraw = ls.Get(placed_page);
  if (nraw == nullptr) {
    return Status::Corruption("xrtree: stab placement node was released");
  }
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(nraw));
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const StabEntry& se) {
                           return se.key == placed_key &&
                                  se.s == element.start &&
                                  se.e == element.end;
                         });
  if (it != entries.end()) {
    entries.erase(it);
    XR_RETURN_IF_ERROR(WriteNodeStab(nraw, std::move(entries)));
    ls.MarkDirty(placed_page);
  }
  return Status::Ok();
}

Status XrTree::LeafInsert(WriteLatchSet& ls, std::vector<PathEntry>& path,
                          const Element& element, bool placed,
                          PageId placed_page, Position placed_key) {
  // I2: insert into the (fixed-format) leaf.
  PageId leaf_id = path.back().page;
  Page* lraw = ls.Get(leaf_id);
  if (lraw == nullptr) {
    return Status::Corruption("xrtree: leaf not held for insert");
  }
  auto* hdr = XrHeader(lraw);
  Element* slots = XrLeafSlots(lraw);
  uint32_t at = XrLeafLowerBound(lraw, element.start);
  if (at < hdr->count && slots[at].start == element.start) {
    // Roll back before reporting the duplicate (the resident element keeps
    // its own entry, if any).
    if (placed) {
      XR_RETURN_IF_ERROR(
          RollbackStabPlacement(ls, placed_page, placed_key, element));
    }
    return Status::InvalidArgument("duplicate key " +
                                   std::to_string(element.start));
  }
  Element stored = element;
  SetInStabList(&stored, placed);

  if (hdr->count < leaf_cap_) {
    std::memmove(slots + at + 1, slots + at,
                 (hdr->count - at) * sizeof(Element));
    slots[at] = stored;
    ++hdr->count;
    ls.MarkDirty(leaf_id);
    size_.fetch_add(1, std::memory_order_acq_rel);
    return Status::Ok();
  }

  // I22: split the leaf.
  std::vector<Element> all(slots, slots + hdr->count);
  all.insert(all.begin() + at, stored);
  XR_RETURN_IF_ERROR(SplitLeaf(ls, std::move(path), std::move(all)));
  size_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

Status XrTree::SplitLeaf(WriteLatchSet& ls, std::vector<PathEntry> path,
                         std::vector<Element> all) {
  PageId leaf_id = path.back().page;
  path.pop_back();
  Page* lraw = ls.Get(leaf_id);
  if (lraw == nullptr) {
    return Status::Corruption("xrtree: leaf not held for its split");
  }
  auto* hdr = XrHeader(lraw);
  const uint16_t format = XrLeafFormatAfterEdit(lraw, leaf_cap_);
  const size_t half = all.size() / 2;

  // Split-key choice (§3.2): any value in (last_left.start, first_right.start]
  // separates the leaves; prefer first_right.start - 1, which avoids stabbing
  // the right leaf's first element (the paper's key-79-vs-80 example).
  Position last_left = all[half - 1].start;
  Position first_right = all[half].start;
  Position sep = (!naive_split_key_ && first_right - 1 > last_left)
                     ? first_right - 1
                     : first_right;

  // Newly stabbed elements (InStabList == no with s <= sep <= e) become the
  // StabSet' proposed to the parent; their flags turn to yes.
  std::vector<StabEntry> stab_set;
  for (Element& e : all) {
    if (!InStabList(e) && e.start <= sep && sep <= e.end) {
      SetInStabList(&e, true);
      stab_set.push_back(MakeStabEntry(e, sep));
    }
  }

  XR_ASSIGN_OR_RETURN(Page * rraw, pool_->NewPage());
  ls.AdoptNew(rraw);  // latched before any formatting
  ls.MarkDirty(rraw->page_id());
  auto* rhdr = XrHeader(rraw);
  rhdr->magic = kXrLeafMagic;
  rhdr->is_leaf = 1;
  rhdr->next = hdr->next;
  rhdr->prev = leaf_id;
  rhdr->leftmost = kInvalidPageId;
  rhdr->stab_head = kInvalidPageId;
  rhdr->ps_dir = kInvalidPageId;
  // A compressed half re-encodes into a page that held its superset, so it
  // always fits (see page_codec.h).
  XR_RETURN_IF_ERROR(
      XrLeafWrite(rraw, all.data() + half, all.size() - half, format));
  XR_RETURN_IF_ERROR(XrLeafWrite(lraw, all.data(), half, format));
  PageId old_next = rhdr->next;
  hdr->next = rraw->page_id();
  ls.MarkDirty(leaf_id);

  if (old_next != kInvalidPageId) {
    // Rightward lateral acquisition — consistent with every other lateral
    // in the protocol, so no writer-writer cycle.
    XR_ASSIGN_OR_RETURN(Page * nraw, ls.Acquire(old_next));
    XrHeader(nraw)->prev = rraw->page_id();
    ls.MarkDirty(old_next);
  }
  return InsertIntoParent(ls, path, sep, rraw->page_id(),
                          std::move(stab_set));
}

Result<XrLeafView> XrTree::ReadLeafForEdit(WriteLatchSet& ls, Page* leaf,
                                           std::vector<Element>* scratch) {
  XR_ASSIGN_OR_RETURN(XrLeafView view, XrLeafRead(leaf, scratch));
  if (view.in_place || view.size > leaf_cap_) return view;
  XR_RETURN_IF_ERROR(XrLeafWrite(leaf, view.data, view.size,
                                 XrLeafFormatAfterEdit(leaf, leaf_cap_)));
  ls.MarkDirty(leaf->page_id());
  return XrLeafRead(leaf, scratch);
}

Result<bool> XrTree::DecompressLeafStep(WriteLatchSet& ls,
                                        const std::vector<PathEntry>& path) {
  Page* lraw = ls.Get(path.back().page);
  if (lraw == nullptr) {
    return Status::Corruption("xrtree: leaf not held for decompression");
  }
  std::vector<Element> scratch;
  XR_ASSIGN_OR_RETURN(XrLeafView leaf, ReadLeafForEdit(ls, lraw, &scratch));
  if (leaf.size <= leaf_cap_) return false;
  XR_RETURN_IF_ERROR(SplitLeaf(ls, path, {leaf.begin(), leaf.end()}));
  return true;
}

Status XrTree::InsertIntoParent(WriteLatchSet& ls,
                                std::vector<PathEntry>& path,
                                Position sep_key, PageId right_child,
                                std::vector<StabEntry> stab_set) {
  for (StabEntry& se : stab_set) se.key = sep_key;

  if (path.empty()) {
    // I4: grow the tree with a new root holding the promoted key and its
    // StabSet'. We hold the old root's W-latch (it was unsafe the whole
    // way), which is what makes the root_ store safe against the readers'
    // validate-after-latch retry.
    PageId old_root = root_.load(std::memory_order_acquire);
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    ls.AdoptNew(raw);
    ls.MarkDirty(raw->page_id());
    auto* hdr = XrHeader(raw);
    hdr->magic = kXrInternalMagic;
    hdr->is_leaf = 0;
    hdr->count = 1;
    hdr->next = kInvalidPageId;
    hdr->prev = kInvalidPageId;
    hdr->leftmost = old_root;
    hdr->stab_head = kInvalidPageId;
    hdr->ps_dir = kInvalidPageId;
    XrInternalSlots(raw)[0] = {sep_key, kNilPosition, kNilPosition,
                               right_child};
    XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(stab_set)));
    root_.store(raw->page_id(), std::memory_order_release);
    return Status::Ok();
  }

  PathEntry entry = path.back();
  path.pop_back();
  Page* raw = ls.Get(entry.page);
  if (raw == nullptr) {
    // The crab released this ancestor because a descendant was safe, yet a
    // split reached it — the safety test was wrong. Structural bug.
    return Status::Corruption("xrtree: split propagated past the crab scope");
  }
  auto* hdr = XrHeader(raw);
  XrInternalEntry* slots = XrInternalSlots(raw);
  uint32_t at = entry.slot;

  // Gather the node's stab entries and apply the new-key effects:
  //  * elements of the successor key's PSL with s <= sep_key are now
  //    primarily stabbed by sep_key (it is smaller) — retag them;
  //  * StabSet' arrives tagged with sep_key.
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(raw));
  if (at < hdr->count) {
    Position successor = slots[at].key;
    for (StabEntry& se : entries) {
      if (se.key == successor && se.s <= sep_key) se.key = sep_key;
    }
  }
  entries.insert(entries.end(), stab_set.begin(), stab_set.end());

  if (hdr->count < internal_cap_) {
    // I31: room available — insert the key entry and commit the stab list.
    std::memmove(slots + at + 1, slots + at,
                 (hdr->count - at) * sizeof(XrInternalEntry));
    slots[at] = {sep_key, kNilPosition, kNilPosition, right_child};
    ++hdr->count;
    XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(entries)));
    ls.MarkDirty(entry.page);
    return Status::Ok();
  }

  // I32: split the internal node. The middle key km moves up, together
  // with StabSet'' — every element of SL(I) ∪ SL(Inew) stabbed by km
  // (Fig. 5).
  std::vector<XrInternalEntry> all(slots, slots + hdr->count);
  all.insert(all.begin() + at,
             {sep_key, kNilPosition, kNilPosition, right_child});
  uint32_t mid = static_cast<uint32_t>(all.size() / 2);
  Position km = all[mid].key;

  std::vector<StabEntry> left_entries, right_entries, stab_up;
  for (const StabEntry& se : entries) {
    if (se.s <= km && km <= se.e) {
      stab_up.push_back(se);
    } else if (se.key < km) {
      left_entries.push_back(se);
    } else {
      right_entries.push_back(se);
    }
  }

  XR_ASSIGN_OR_RETURN(Page * rraw, pool_->NewPage());
  ls.AdoptNew(rraw);
  ls.MarkDirty(rraw->page_id());
  auto* rhdr = XrHeader(rraw);
  rhdr->magic = kXrInternalMagic;
  rhdr->is_leaf = 0;
  rhdr->count = static_cast<uint32_t>(all.size()) - mid - 1;
  rhdr->next = kInvalidPageId;
  rhdr->prev = kInvalidPageId;
  rhdr->leftmost = all[mid].child;
  rhdr->stab_head = kInvalidPageId;
  rhdr->ps_dir = kInvalidPageId;
  std::memcpy(XrInternalSlots(rraw), all.data() + mid + 1,
              rhdr->count * sizeof(XrInternalEntry));

  hdr->count = mid;
  std::memcpy(slots, all.data(), mid * sizeof(XrInternalEntry));
  ls.MarkDirty(entry.page);

  XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(left_entries)));
  XR_RETURN_IF_ERROR(WriteNodeStab(rraw, std::move(right_entries)));

  return InsertIntoParent(ls, path, km, rraw->page_id(), std::move(stab_up));
}

// ---------------------------------------------------------------------------
// Stab-list relocation primitives (shared by Algorithms 1 and 2)
// ---------------------------------------------------------------------------

Status XrTree::PlaceEntry(WriteLatchSet& ls, PageId from,
                          const StabEntry& entry) {
  // The descent may re-enter pages the caller already holds (on-path
  // children); Acquire is re-entrant for those. Pages newly latched here
  // are released as soon as the descent moves past them — coupling, not
  // accumulation — and never before their child is latched.
  PageId cur = from;
  PageId prev_owned = kInvalidPageId;
  for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
    bool pre_held = ls.Holds(cur);
    XR_ASSIGN_OR_RETURN(Page * raw, ls.Acquire(cur));
    if (prev_owned != kInvalidPageId) ls.Release(prev_owned);
    prev_owned = pre_held ? kInvalidPageId : cur;
    XR_RETURN_IF_ERROR(XrCheckPage(raw));
    if (XrHeader(raw)->is_leaf) {
      // No internal node below stabs the element: flag it InStabList=no.
      XR_ASSIGN_OR_RETURN(bool found, XrLeafSetFlag(raw, entry.s, false));
      if (!found) {
        return Status::Corruption("PlaceEntry: element missing from leaf");
      }
      ls.MarkDirty(cur);
      if (prev_owned != kInvalidPageId) ls.Release(prev_owned);
      return Status::Ok();
    }
    uint32_t stab_slot;
    if (SmallestStabbingKey(raw, entry.s, entry.e, &stab_slot)) {
      StabEntry tagged = entry;
      tagged.key = XrInternalSlots(raw)[stab_slot].key;
      XR_RETURN_IF_ERROR(InsertStabIntoNode(raw, tagged));
      ls.MarkDirty(cur);
      if (prev_owned != kInvalidPageId) ls.Release(prev_owned);
      return Status::Ok();
    }
    cur = XrChildAt(raw, XrChildSlot(raw, entry.s));
  }
  return Status::Corruption("xrtree: sweep did not reach a leaf");
}

Status XrTree::CollectStabbedDescent(WriteLatchSet& ls, PageId subtree,
                                     Position k,
                                     std::vector<StabEntry>* out) {
  PageId cur = subtree;
  PageId prev_owned = kInvalidPageId;
  for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
    bool pre_held = ls.Holds(cur);
    XR_ASSIGN_OR_RETURN(Page * raw, ls.Acquire(cur));
    if (prev_owned != kInvalidPageId) ls.Release(prev_owned);
    prev_owned = pre_held ? kInvalidPageId : cur;
    XR_RETURN_IF_ERROR(XrCheckPage(raw));
    if (XrHeader(raw)->is_leaf) {
      bool dirty = false;
      std::vector<Element> scratch;
      XR_ASSIGN_OR_RETURN(XrLeafView leaf, XrLeafRead(raw, &scratch));
      for (const Element& el : leaf) {
        if (el.start > k) break;
        if (!InStabList(el) && k <= el.end) {
          out->push_back(MakeStabEntry(el, k));
          XR_ASSIGN_OR_RETURN(bool found, XrLeafSetFlag(raw, el.start, true));
          if (!found) {
            return Status::Corruption("xrtree: stabbed element vanished");
          }
          dirty = true;
        }
      }
      if (dirty) ls.MarkDirty(cur);
      if (prev_owned != kInvalidPageId) ls.Release(prev_owned);
      return Status::Ok();
    }
    // Remove (and collect) every stab entry of this node stabbed by k.
    XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(raw));
    std::vector<StabEntry> kept;
    kept.reserve(entries.size());
    bool changed = false;
    for (const StabEntry& se : entries) {
      if (se.s <= k && k <= se.e) {
        out->push_back(se);
        changed = true;
      } else {
        kept.push_back(se);
      }
    }
    if (changed) {
      XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(kept)));
      ls.MarkDirty(cur);
    }
    cur = XrChildAt(raw, XrChildSlot(raw, k));
  }
  return Status::Corruption("xrtree: sweep did not reach a leaf");
}

Status XrTree::ReplaceSeparatorKey(WriteLatchSet& ls, PageId parent,
                                   uint32_t key_slot, Position knew) {
  Page* praw = ls.Get(parent);
  if (praw == nullptr) {
    return Status::Corruption("xrtree: separator change outside crab scope");
  }
  auto* hdr = XrHeader(praw);
  XrInternalEntry* slots = XrInternalSlots(praw);
  assert(key_slot < hdr->count);
  (void)hdr;
  slots[key_slot].key = knew;
  slots[key_slot].ps = kNilPosition;
  slots[key_slot].pe = kNilPosition;
  ls.MarkDirty(parent);

  // Recompute every entry's primary key over the new key set; entries no
  // longer stabbed by any key of this node are demoted below.
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(praw));
  std::vector<StabEntry> kept, demote;
  for (StabEntry se : entries) {
    uint32_t slot;
    if (SmallestStabbingKey(praw, se.s, se.e, &slot)) {
      se.key = slots[slot].key;
      kept.push_back(se);
    } else {
      demote.push_back(se);
    }
  }

  // Pull up elements below that the new key stabs: they live on the path
  // of knew inside the two adjacent subtrees (elements with s < knew sit
  // left of the separator, an element with s == knew sits right of it).
  std::vector<StabEntry> pulled;
  XR_RETURN_IF_ERROR(
      CollectStabbedDescent(ls, XrChildAt(praw, key_slot), knew, &pulled));
  XR_RETURN_IF_ERROR(
      CollectStabbedDescent(ls, XrChildAt(praw, key_slot + 1), knew,
                            &pulled));
  for (StabEntry se : pulled) {
    uint32_t slot;
    bool ok = SmallestStabbingKey(praw, se.s, se.e, &slot);
    if (!ok) return Status::Corruption("pulled entry not stabbed by parent");
    se.key = slots[slot].key;
    kept.push_back(se);
  }

  XR_RETURN_IF_ERROR(WriteNodeStab(praw, std::move(kept)));
  ls.MarkDirty(parent);
  for (const StabEntry& se : demote) {
    XR_RETURN_IF_ERROR(PlaceEntry(ls, parent, se));
  }
  return Status::Ok();
}

Status XrTree::RemoveSeparatorKey(WriteLatchSet& ls, PageId parent,
                                  uint32_t key_slot) {
  Page* praw = ls.Get(parent);
  if (praw == nullptr) {
    return Status::Corruption("xrtree: separator change outside crab scope");
  }
  auto* hdr = XrHeader(praw);
  XrInternalEntry* slots = XrInternalSlots(praw);
  assert(key_slot < hdr->count);
  Position removed = slots[key_slot].key;
  std::memmove(slots + key_slot, slots + key_slot + 1,
               (hdr->count - key_slot - 1) * sizeof(XrInternalEntry));
  --hdr->count;
  ls.MarkDirty(parent);

  // D31: entries of PSL(removed) are retagged to another stabbing key of
  // this node, or reinserted into the highest stabbing node below.
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(praw));
  std::vector<StabEntry> kept, demote;
  for (StabEntry se : entries) {
    if (se.key != removed) {
      kept.push_back(se);
      continue;
    }
    uint32_t slot;
    if (SmallestStabbingKey(praw, se.s, se.e, &slot)) {
      se.key = slots[slot].key;
      kept.push_back(se);
    } else {
      demote.push_back(se);
    }
  }
  XR_RETURN_IF_ERROR(WriteNodeStab(praw, std::move(kept)));
  ls.MarkDirty(parent);
  for (const StabEntry& se : demote) {
    XR_RETURN_IF_ERROR(PlaceEntry(ls, parent, se));
  }
  return Status::Ok();
}

Status XrTree::MergeStabLists(Page* dest, Page* victim) {
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> a, ReadNodeStab(dest));
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> b, ReadNodeStab(victim));
  a.insert(a.end(), b.begin(), b.end());
  XR_RETURN_IF_ERROR(WriteNodeStab(victim, {}));
  // Note: dest's keys must already include the victim's for the (ps, pe)
  // refresh to see them; callers merge key arrays before stab lists.
  return WriteNodeStab(dest, std::move(a));
}

// ---------------------------------------------------------------------------
// Deletion (Algorithm 2)
// ---------------------------------------------------------------------------

Status XrTree::Delete(Position key) {
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  // Exclusive writer gate: the D31 reinsertion and key-replacement sweeps
  // descend into subtrees OFF the deletion path, which can deadlock against
  // a concurrent inserter's rightward lateral latches. Readers still run
  // throughout — every page mutation below happens under its W-latch.
  std::unique_lock<std::shared_mutex> gate(writer_gate_);
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return Status::NotFound("empty tree");

  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  Page* lraw = nullptr;
  // Full-path descent, nothing crab-released: D1 revisits ancestors (the
  // topmost stab erase) and the underflow sweeps revisit the path's
  // subtrees, so every node stays held. The gate keeps the structure (and
  // root_) stable, so no retry loop is needed — except for the
  // decompress-on-write rounds below, which re-descend after splitting an
  // over-full compressed leaf (the gate is exclusive, so this is private).
  for (int round = 0;; ++round) {
    if (round == kMaxDecompressRounds) {
      return Status::Corruption("xrtree: decompress-on-write did not converge");
    }
    PageId cur = root_.load(std::memory_order_acquire);
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      XR_ASSIGN_OR_RETURN(Page * raw, ls.Acquire(cur));
      XR_RETURN_IF_ERROR(XrCheckPage(raw));
      if (XrHeader(raw)->is_leaf) {
        path.push_back({cur, 0});
        lraw = raw;
        break;
      }
      uint32_t slot = XrChildSlot(raw, key);
      path.push_back({cur, slot});
      cur = XrChildAt(raw, slot);
    }
    if (lraw == nullptr) {
      return Status::Corruption("xrtree: descent did not reach a leaf");
    }
    XR_ASSIGN_OR_RETURN(bool split, DecompressLeafStep(ls, path));
    if (!split) break;
    ls.ReleaseAll();
    path.clear();
    lraw = nullptr;
  }
  PageId leaf_id = path.back().page;

  Element victim;
  {
    auto* hdr = XrHeader(lraw);
    Element* slots = XrLeafSlots(lraw);
    uint32_t at = XrLeafLowerBound(lraw, key);
    if (at >= hdr->count || slots[at].start != key) {
      return Status::NotFound("key " + std::to_string(key));
    }
    victim = slots[at];
    std::memmove(slots + at, slots + at + 1,
                 (hdr->count - at - 1) * sizeof(Element));
    --hdr->count;
    ls.MarkDirty(leaf_id);
  }
  size_.fetch_sub(1, std::memory_order_acq_rel);

  // D1: remove the element from the stab list holding it — the topmost
  // node on the path with a stabbing key. All path nodes are still held.
  if (InStabList(victim)) {
    bool erased = false;
    for (const PathEntry& pe : path) {
      Page* raw = ls.Get(pe.page);
      if (raw == nullptr) {
        return Status::Corruption("xrtree: deletion path node not held");
      }
      if (XrHeader(raw)->is_leaf) break;
      uint32_t slot;
      if (SmallestStabbingKey(raw, victim.start, victim.end, &slot)) {
        Position primary = XrInternalSlots(raw)[slot].key;
        XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries,
                            ReadNodeStab(raw));
        auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const StabEntry& se) {
                                 return se.key == primary &&
                                        se.s == victim.start;
                               });
        if (it == entries.end()) {
          return Status::Corruption("InStabList element missing from the "
                                    "topmost stabbing node");
        }
        entries.erase(it);
        XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(entries)));
        ls.MarkDirty(pe.page);
        erased = true;
        break;
      }
    }
    if (!erased) {
      return Status::Corruption("InStabList set but no stabbing key found");
    }
  }

  // D2: resolve leaf underflow.
  uint32_t count = XrHeader(lraw)->count;
  bool is_root_leaf = (leaf_id == root_.load(std::memory_order_acquire));
  if (is_root_leaf || count >= leaf_cap_ / 2) return Status::Ok();
  return HandleLeafUnderflow(ls, path);
}

Status XrTree::HandleLeafUnderflow(WriteLatchSet& ls,
                                   std::vector<PathEntry>& path) {
  assert(path.size() >= 2);
  PathEntry leaf_entry = path.back();
  PathEntry parent_entry = path[path.size() - 2];
  // Path convention: an entry's slot is the child slot taken FROM that
  // node, so the leaf's position within its parent lives on the parent's
  // entry.
  uint32_t child_slot = parent_entry.slot;

  Page* praw = ls.Get(parent_entry.page);
  Page* lraw = ls.Get(leaf_entry.page);
  if (praw == nullptr || lraw == nullptr) {
    return Status::Corruption("xrtree: underflow outside the crab scope");
  }
  auto* phdr = XrHeader(praw);
  auto* lhdr = XrHeader(lraw);
  uint32_t min_fill = leaf_cap_ / 2;

  // D22: redistribution with a sibling. Moving an element changes the
  // separator key, with full stab-list effects via ReplaceSeparatorKey.
  // Sibling latches are safe under the exclusive writer gate: no other
  // writer runs, and readers never hold a sibling while waiting on a page
  // this operation holds (they acquire strictly top-down).
  // Each sibling examined is read for an edit: one whose entries fit
  // leaf_capacity is decompressed on write, so the merges below move fixed
  // slots. A larger (compressed) one always lends (count > leaf_capacity >
  // min_fill) and is rewritten compressed by the format rule; removing a
  // boundary entry always re-encodes in place (DESIGN.md §15).
  std::vector<Element> scratch;
  if (child_slot > 0) {
    PageId sib_id = XrChildAt(praw, child_slot - 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    XR_ASSIGN_OR_RETURN(XrLeafView sib, ReadLeafForEdit(ls, sraw, &scratch));
    if (sib.size > min_fill) {
      Element* lslots = XrLeafSlots(lraw);
      const Element moved = sib.data[sib.size - 1];
      XR_RETURN_IF_ERROR(XrLeafWrite(sraw, sib.data, sib.size - 1,
                                     XrLeafFormatAfterEdit(sraw, leaf_cap_)));
      std::memmove(lslots + 1, lslots, lhdr->count * sizeof(Element));
      lslots[0] = moved;
      ++lhdr->count;
      Position knew = lslots[0].start;
      ls.MarkDirty(leaf_entry.page);
      ls.MarkDirty(sib_id);
      return ReplaceSeparatorKey(ls, parent_entry.page, child_slot - 1,
                                 knew);
    }
  }
  if (child_slot < phdr->count) {
    PageId sib_id = XrChildAt(praw, child_slot + 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    XR_ASSIGN_OR_RETURN(XrLeafView sib, ReadLeafForEdit(ls, sraw, &scratch));
    if (sib.size > min_fill) {
      Element* lslots = XrLeafSlots(lraw);
      const Element moved = sib.data[0];
      const Position knew = sib.data[1].start;
      XR_RETURN_IF_ERROR(XrLeafWrite(sraw, sib.data + 1, sib.size - 1,
                                     XrLeafFormatAfterEdit(sraw, leaf_cap_)));
      lslots[lhdr->count] = moved;
      ++lhdr->count;
      ls.MarkDirty(leaf_entry.page);
      ls.MarkDirty(sib_id);
      return ReplaceSeparatorKey(ls, parent_entry.page, child_slot, knew);
    }
  }

  // D23: merge with a sibling; the separator key disappears from the
  // parent (with its stab effects). The dead page is tombstoned under its
  // held W-latch and freed only after every latch drops (DeferFree).
  uint32_t removed_slot;
  if (child_slot > 0) {
    PageId sib_id = XrChildAt(praw, child_slot - 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    std::memcpy(XrLeafSlots(sraw) + shdr->count, XrLeafSlots(lraw),
                lhdr->count * sizeof(Element));
    shdr->count += lhdr->count;
    shdr->next = lhdr->next;
    if (lhdr->next != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * nraw, ls.Acquire(lhdr->next));
      XrHeader(nraw)->prev = sib_id;
      ls.MarkDirty(lhdr->next);
    }
    ls.MarkDirty(sib_id);
    removed_slot = child_slot - 1;
    lhdr->magic = 0;  // tombstone: blocked readers see a dead page
    ls.MarkDirty(leaf_entry.page);
    ls.DeferFree(leaf_entry.page);
  } else {
    PageId sib_id = XrChildAt(praw, child_slot + 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    std::memcpy(XrLeafSlots(lraw) + lhdr->count, XrLeafSlots(sraw),
                shdr->count * sizeof(Element));
    lhdr->count += shdr->count;
    lhdr->next = shdr->next;
    if (shdr->next != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * nraw, ls.Acquire(shdr->next));
      XrHeader(nraw)->prev = leaf_entry.page;
      ls.MarkDirty(shdr->next);
    }
    ls.MarkDirty(leaf_entry.page);
    removed_slot = child_slot;
    shdr->magic = 0;
    ls.MarkDirty(sib_id);
    ls.DeferFree(sib_id);
  }

  XR_RETURN_IF_ERROR(RemoveSeparatorKey(ls, parent_entry.page, removed_slot));

  bool parent_is_root =
      (parent_entry.page == root_.load(std::memory_order_acquire));
  if (parent_is_root && phdr->count == 0) {
    // D4: shorten the tree. RemoveSeparatorKey demoted every remaining
    // stab entry below, so the dying root's chain is empty. The store is
    // safe: we hold the old root's W-latch, so reader descents re-validate.
    if (phdr->stab_head != kInvalidPageId) {
      return Status::Corruption("shrinking root still owns stab entries");
    }
    root_.store(phdr->leftmost, std::memory_order_release);
    phdr->magic = 0;
    ls.MarkDirty(parent_entry.page);
    ls.DeferFree(parent_entry.page);
    return Status::Ok();
  }
  uint32_t imin = internal_cap_ / 2;
  if (parent_is_root || phdr->count >= imin) return Status::Ok();
  path.pop_back();
  return HandleInternalUnderflow(ls, path, path.size() - 1);
}

Status XrTree::HandleInternalUnderflow(WriteLatchSet& ls,
                                       std::vector<PathEntry>& path,
                                       size_t depth) {
  assert(depth >= 1);
  PathEntry node_entry = path[depth];
  PathEntry parent_entry = path[depth - 1];
  uint32_t child_slot = parent_entry.slot;

  Page* praw = ls.Get(parent_entry.page);
  Page* nraw = ls.Get(node_entry.page);
  if (praw == nullptr || nraw == nullptr) {
    return Status::Corruption("xrtree: underflow outside the crab scope");
  }
  auto* phdr = XrHeader(praw);
  XrInternalEntry* pslots = XrInternalSlots(praw);
  auto* nhdr = XrHeader(nraw);
  XrInternalEntry* nslots = XrInternalSlots(nraw);
  uint32_t imin = internal_cap_ / 2;

  // D32: redistribution through the parent. The separator comes down, the
  // sibling's boundary key goes up; ReplaceSeparatorKey then fixes every
  // stab consequence (the moved-up key's stabbed elements are pulled out
  // of the sibling by the descent sweep; the moved-down key's elements are
  // demoted out of the parent).
  if (child_slot > 0) {
    PageId sib_id = XrChildAt(praw, child_slot - 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    XrInternalEntry* sslots = XrInternalSlots(sraw);
    if (shdr->count > imin) {
      Position km = pslots[child_slot - 1].key;
      Position kl = sslots[shdr->count - 1].key;
      std::memmove(nslots + 1, nslots, nhdr->count * sizeof(XrInternalEntry));
      nslots[0] = {km, kNilPosition, kNilPosition, nhdr->leftmost};
      nhdr->leftmost = sslots[shdr->count - 1].child;
      ++nhdr->count;
      --shdr->count;
      ls.MarkDirty(node_entry.page);
      ls.MarkDirty(sib_id);
      return ReplaceSeparatorKey(ls, parent_entry.page, child_slot - 1, kl);
    }
  }
  if (child_slot < phdr->count) {
    PageId sib_id = XrChildAt(praw, child_slot + 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    XrInternalEntry* sslots = XrInternalSlots(sraw);
    if (shdr->count > imin) {
      Position km = pslots[child_slot].key;
      Position kf = sslots[0].key;
      nslots[nhdr->count] = {km, kNilPosition, kNilPosition, shdr->leftmost};
      ++nhdr->count;
      shdr->leftmost = sslots[0].child;
      std::memmove(sslots, sslots + 1,
                   (shdr->count - 1) * sizeof(XrInternalEntry));
      --shdr->count;
      ls.MarkDirty(node_entry.page);
      ls.MarkDirty(sib_id);
      return ReplaceSeparatorKey(ls, parent_entry.page, child_slot, kf);
    }
  }

  // D33: merge, pulling the separator key down into the surviving node and
  // concatenating the stab lists.
  uint32_t removed_slot;
  if (child_slot > 0) {
    PageId sib_id = XrChildAt(praw, child_slot - 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    XrInternalEntry* sslots = XrInternalSlots(sraw);
    Position km = pslots[child_slot - 1].key;
    sslots[shdr->count] = {km, kNilPosition, kNilPosition, nhdr->leftmost};
    ++shdr->count;
    std::memcpy(sslots + shdr->count, nslots,
                nhdr->count * sizeof(XrInternalEntry));
    shdr->count += nhdr->count;
    ls.MarkDirty(sib_id);
    XR_RETURN_IF_ERROR(MergeStabLists(sraw, nraw));
    ls.MarkDirty(sib_id);
    ls.MarkDirty(node_entry.page);
    removed_slot = child_slot - 1;
    nhdr->magic = 0;
    ls.DeferFree(node_entry.page);
  } else {
    PageId sib_id = XrChildAt(praw, child_slot + 1);
    XR_ASSIGN_OR_RETURN(Page * sraw, ls.Acquire(sib_id));
    auto* shdr = XrHeader(sraw);
    XrInternalEntry* sslots = XrInternalSlots(sraw);
    Position km = pslots[child_slot].key;
    nslots[nhdr->count] = {km, kNilPosition, kNilPosition, shdr->leftmost};
    ++nhdr->count;
    std::memcpy(nslots + nhdr->count, sslots,
                shdr->count * sizeof(XrInternalEntry));
    nhdr->count += shdr->count;
    XR_RETURN_IF_ERROR(MergeStabLists(nraw, sraw));
    ls.MarkDirty(node_entry.page);
    ls.MarkDirty(sib_id);
    removed_slot = child_slot;
    shdr->magic = 0;
    ls.DeferFree(sib_id);
  }

  XR_RETURN_IF_ERROR(RemoveSeparatorKey(ls, parent_entry.page, removed_slot));

  bool parent_is_root =
      (parent_entry.page == root_.load(std::memory_order_acquire));
  if (parent_is_root && phdr->count == 0) {
    if (phdr->stab_head != kInvalidPageId) {
      return Status::Corruption("shrinking root still owns stab entries");
    }
    root_.store(phdr->leftmost, std::memory_order_release);
    phdr->magic = 0;
    ls.MarkDirty(parent_entry.page);
    ls.DeferFree(parent_entry.page);
    return Status::Ok();
  }
  uint32_t imin2 = internal_cap_ / 2;
  if (parent_is_root || phdr->count >= imin2) return Status::Ok();
  return HandleInternalUnderflow(ls, path, depth - 1);
}

// ---------------------------------------------------------------------------
// Queries (Algorithms 3-5, §5.3)
// ---------------------------------------------------------------------------

Result<Element> XrTree::Search(Position key) const {
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendToLeafRead(key));
  if (!leaf) return Status::NotFound("empty tree");
  Element e;
  XR_ASSIGN_OR_RETURN(bool found, XrLeafFind(leaf.get(), key, &e));
  if (!found) return Status::NotFound("key " + std::to_string(key));
  e.flags = 0;  // InStabList is an index detail, not element data
  return e;
}

Result<ElementList> XrTree::FindDescendants(const Element& ancestor,
                                            uint64_t* scanned) const {
  // Algorithm 3: a range scan over (sa, ea) on the B+-tree backbone; stab
  // lists are never touched.
  ElementList out;
  XR_ASSIGN_OR_RETURN(XrIterator it, UpperBound(ancestor.start));
  while (it.Valid() && it.Get().start < ancestor.end) {
    Element e = it.Get();
    e.flags = 0;
    out.push_back(e);
    XR_RETURN_IF_ERROR(it.Next());
  }
  if (scanned) *scanned += it.scanned();
  return out;
}

Result<ElementList> XrTree::FindAncestorsAbove(Position sd,
                                               Position min_start,
                                               uint64_t* scanned,
                                               Position* next_start) const {
  ElementList out;
  uint64_t local_scanned = 0;
  std::vector<StabEntry> collected;
  // S1. The chain pages are read under each node's R latch, which is what
  // keeps a writer from rewriting the chain mid-read. The ps directory
  // leads each PSL search to its first page (Theorem 4).
  auto collect = [&](const Page* node) {
    const auto* hdr = XrHeader(node);
    StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_);
    return ForEachStabbedPsl(
        XrInternalSlots(node), hdr->count, sd, min_start, [&](Position key) {
          return list.CollectStabbed(key, sd, min_start, &collected,
                                     &local_scanned);
        });
  };
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendRead(sd, collect));
  if (!leaf) {
    if (next_start) *next_start = kNilPosition;
    return out;
  }
  // S2. A compressed leaf decodes only the suffix of mini-blocks from the
  // one holding min_start + 1; the view always covers through the page
  // end, so the terminator below is unchanged.
  std::vector<Element> scratch;
  XR_ASSIGN_OR_RETURN(
      XrLeafView slots,
      XrLeafRead(leaf.get(), &scratch, min_start == 0 ? 0 : min_start + 1));
  uint32_t i = ScanLeafForAncestors(slots.data, slots.size, sd, min_start,
                                    &out, &local_scanned);
  // The terminating element (first start >= sd) is handed back as the
  // join's next CurA; it is not charged here — the caller's next sweep or
  // cursor move examines it.
  Position terminator = i < slots.size ? slots.data[i].start : kNilPosition;
  leaf.Release();
  if (next_start && i >= slots.size) {
    // The terminator lives past this leaf. A snapshot cursor's fresh
    // descent replaces the old unlatched chain walk: it is epoch-checked
    // and correct against concurrent leaf frees.
    XR_ASSIGN_OR_RETURN(XrIterator it, LowerBound(sd));
    if (it.Valid()) terminator = it.Get().start;
  }
  for (const StabEntry& se : collected) out.push_back(ToElement(se));
  std::sort(out.begin(), out.end());
  if (scanned) *scanned += local_scanned;
  if (next_start) *next_start = terminator;
  return out;
}

Result<ElementList> XrTree::FindAncestors(Position sd,
                                          uint64_t* scanned) const {
  return FindAncestorsAbove(sd, 0, scanned, nullptr);
}

Result<ElementList> XrTree::FindChildren(const Element& ancestor,
                                         uint64_t* scanned) const {
  XR_ASSIGN_OR_RETURN(ElementList all, FindDescendants(ancestor, scanned));
  ElementList out;
  for (const Element& e : all) {
    if (e.level == ancestor.level + 1) out.push_back(e);
  }
  return out;
}

Result<ElementList> XrTree::FindParent(Position sd, uint16_t level,
                                       uint64_t* scanned) const {
  if (level == 0) return ElementList{};  // roots have no parent
  XR_ASSIGN_OR_RETURN(ElementList all, FindAncestors(sd, scanned));
  ElementList out;
  for (const Element& e : all) {
    if (e.level + 1 == level) out.push_back(e);
  }
  return out;
}

Result<XrIterator> XrTree::LowerBound(Position key) const {
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendToLeafRead(key));
  if (!leaf) return XrIterator();
  // Snapshot under the latch; sample the chain link and the free epoch in
  // the same critical section so a lateral hop can detect index frees.
  PageId next = XrHeader(leaf.get())->next;
  uint64_t epoch = pool_->free_epoch();
  std::vector<Element> snap;
  XR_RETURN_IF_ERROR(XrLeafAppend(leaf.get(), &snap, key));
  if (snap.empty()) {
    leaf.Release();
    XrIterator it(this, {}, next, epoch, key, false);
    XR_RETURN_IF_ERROR(it.LandOnNextLeaf());
    return it;
  }
  return XrIterator(this, std::move(snap), next, epoch, key, false);
}

Result<XrIterator> XrTree::UpperBound(Position key) const {
  if (key == kNilPosition) return XrIterator();
  return LowerBound(key + 1);
}

Result<XrIterator> XrTree::Begin() const { return LowerBound(0); }

Result<std::vector<Position>> XrTree::PartitionKeys(size_t max_keys) const {
  std::vector<Position> keys;
  if (max_keys == 0) return keys;

  auto walk = [&]() -> Result<std::vector<Position>> {
    std::vector<Position> found;
    PageId root_id = root_.load(std::memory_order_acquire);
    if (root_id == kInvalidPageId) return found;
    std::vector<PageId> level{root_id};
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      found.clear();
      std::vector<PageId> children;
      bool children_internal = false;
      for (PageId id : level) {
        XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
        ReadLatchedPage page(pool_, raw);
        XR_RETURN_IF_ERROR(XrCheckPage(raw));
        const auto* hdr = XrHeader(raw);
        if (hdr->is_leaf) {
          if (level.size() == 1) {
            return std::vector<Position>{};  // root is a leaf: no separators
          }
          return Status::Corruption("xrtree: partition walk hit a leaf");
        }
        const XrInternalEntry* slots = XrInternalSlots(raw);
        for (uint32_t i = 0; i < hdr->count; ++i) {
          found.push_back(slots[i].key);
        }
        children.push_back(hdr->leftmost);
        for (uint32_t i = 0; i < hdr->count; ++i) {
          children.push_back(slots[i].child);
        }
        if (!children_internal && !children.empty()) {
          XR_ASSIGN_OR_RETURN(Page * craw,
                              pool_->FetchPage(children.front()));
          ReadLatchedPage child(pool_, craw);
          children_internal = XrHeader(craw)->magic == kXrInternalMagic;
        }
      }
      // Within one level keys ascend left-to-right (they separate disjoint
      // ascending leaf ranges); stop at the first level that satisfies the
      // request, or at the last internal level.
      if (found.size() >= max_keys || !children_internal) break;
      level = std::move(children);
    }
    return found;
  };

  // The level walk holds one latch at a time, so a concurrent structural
  // change can invalidate ids between levels (NotFound on a freed page,
  // or a recycled page with the wrong magic). Retry a few times; if writers
  // keep winning, degrade to no partition points — any separator snapshot,
  // including the empty one, is a correct plan.
  for (int attempt = 0; attempt < 4; ++attempt) {
    Result<std::vector<Position>> r = walk();
    if (r.ok()) {
      keys = std::move(*r);
      break;
    }
    const Status& st = r.status();
    if (!st.IsNotFound() && !st.IsCorruption()) return st;
    if (attempt == 3) return std::vector<Position>{};
  }
  if (keys.size() <= max_keys) return keys;
  // Thin to an evenly spaced subset so partitions cover comparable numbers
  // of separator intervals.
  std::vector<Position> picked;
  picked.reserve(max_keys);
  for (size_t i = 1; i <= max_keys; ++i) {
    picked.push_back(keys[i * keys.size() / (max_keys + 1)]);
  }
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

// ---------------------------------------------------------------------------
// Bulk loading
// ---------------------------------------------------------------------------

Status XrTree::BulkLoad(const ElementList& elements, double fill_fraction) {
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  // BulkLoad's contract is a quiescent, empty tree; the exclusive gate is a
  // cheap backstop against a stray concurrent writer.
  std::unique_lock<std::shared_mutex> gate(writer_gate_);
  if (root_.load(std::memory_order_acquire) != kInvalidPageId ||
      size_.load(std::memory_order_acquire) != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
    return Status::InvalidArgument("fill_fraction out of (0, 1]");
  }
  if (!std::is_sorted(elements.begin(), elements.end())) {
    return Status::InvalidArgument("BulkLoad input must be sorted by start");
  }
  size_t i = 0;
  return BulkLoadImpl(
      [&](Element* e) {
        if (i >= elements.size()) return false;
        *e = elements[i++];
        return true;
      },
      fill_fraction);
}

Status XrTree::BulkLoadFromFile(const ElementFile& file,
                                double fill_fraction) {
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  std::unique_lock<std::shared_mutex> gate(writer_gate_);
  if (root_.load(std::memory_order_acquire) != kInvalidPageId ||
      size_.load(std::memory_order_acquire) != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (fill_fraction <= 0.0 || fill_fraction > 1.0) {
    return Status::InvalidArgument("fill_fraction out of (0, 1]");
  }
  // One sequential pass over the file; the build's lookahead is bounded by
  // a page's worth of entries, so the corpus is never materialized.
  ElementFile::Scanner scanner = file.NewScanner();
  XR_RETURN_IF_ERROR(BulkLoadImpl(
      [&](Element* e) {
        if (!scanner.Valid()) return false;
        *e = scanner.Get();
        scanner.Next();
        return true;
      },
      fill_fraction));
  // An I/O or corruption stop looks like EOF to the pull source; surface it
  // (the partially built tree is garbage at that point).
  return scanner.status();
}

Status XrTree::Compact() {
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  std::unique_lock<std::shared_mutex> gate(writer_gate_);
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return Status::Ok();

  // Sorted elements come off the leaf chain (flags are an index detail and
  // are rebuilt by the load's stab pass).
  std::vector<Element> elems;
  {
    PageId cur = root_id;
    for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      PageGuard page(pool_, raw);
      if (XrHeader(raw)->is_leaf) break;
      cur = XrHeader(raw)->leftmost;
    }
    while (cur != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      PageGuard page(pool_, raw);
      XR_RETURN_IF_ERROR(XrLeafAppend(raw, &elems));
      cur = XrHeader(raw)->next;
    }
    for (Element& e : elems) e.flags = 0;
  }

  // Dismantle the old tree: clear each internal node's stab machinery,
  // then free every node page.
  std::vector<PageId> old_pages;
  std::vector<PageId> stack{root_id};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    old_pages.push_back(id);
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard page(pool_, raw);
    XR_RETURN_IF_ERROR(XrCheckPage(raw));
    const auto* hdr = XrHeader(raw);
    if (hdr->is_leaf) continue;
    StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_,
                  compressed_);
    XR_RETURN_IF_ERROR(list.Clear());
    stack.push_back(hdr->leftmost);
    const XrInternalEntry* slots = XrInternalSlots(raw);
    for (uint32_t i = 0; i < hdr->count; ++i) stack.push_back(slots[i].child);
  }
  for (PageId id : old_pages) {
    XR_RETURN_IF_ERROR(pool_->FreePage(id));
  }
  root_.store(kInvalidPageId, std::memory_order_release);
  size_.store(0, std::memory_order_release);

  size_t i = 0;
  return BulkLoadImpl(
      [&](Element* e) {
        if (i >= elems.size()) return false;
        *e = elems[i++];
        return true;
      },
      1.0);
}

Status XrTree::BulkLoadImpl(const std::function<bool(Element*)>& next,
                            double fill_fraction) {
  // Fill targets are clamped above the half-full invariant so bulk-loaded
  // trees always pass CheckConsistency.
  const size_t min_fill = std::max<size_t>(1, leaf_cap_ / 2);
  const uint32_t leaf_fill =
      std::max<uint32_t>(static_cast<uint32_t>(min_fill),
                         static_cast<uint32_t>(leaf_cap_ * fill_fraction));
  const uint32_t internal_fill = std::max<uint32_t>(
      std::max<uint32_t>(2, internal_cap_ / 2),
      static_cast<uint32_t>(internal_cap_ * fill_fraction));

  // Bounded lookahead over the pull source: the tail rules below only need
  // to know whether fewer than one page plus min_fill elements remain, so
  // the buffer never grows past that horizon — this is what keeps
  // BulkLoadFromFile a streaming build.
  const size_t page_max =
      compressed_ ? size_t{kXrcMaxPageEntries} : size_t{leaf_cap_};
  const size_t horizon = page_max + min_fill;
  std::deque<Element> buf;
  bool exhausted = false;
  bool seen_any = false;
  Position prev_start = 0;
  uint64_t total_loaded = 0;
  auto refill = [&]() -> Status {
    while (!exhausted && buf.size() < horizon) {
      Element e;
      if (!next(&e)) {
        exhausted = true;
        break;
      }
      if (seen_any && e.start < prev_start) {
        return Status::InvalidArgument(
            "BulkLoad input must be sorted by start");
      }
      seen_any = true;
      prev_start = e.start;
      buf.push_back(e);
    }
    return Status::Ok();
  };
  XR_RETURN_IF_ERROR(refill());
  if (buf.empty()) return InitRootLeaf();

  struct ChildRef {
    Position first_key;
    PageId page;
  };
  std::vector<ChildRef> level;
  std::vector<PageId> leaf_pages;
  std::vector<Element> chunk;
  PageGuard prev;
  for (;;) {
    XR_RETURN_IF_ERROR(refill());
    if (buf.empty()) break;
    size_t rem = buf.size();
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    PageGuard page(pool_, raw);
    page.MarkDirty();
    auto* hdr = XrHeader(raw);
    hdr->magic = kXrLeafMagic;
    hdr->is_leaf = 1;
    hdr->next = kInvalidPageId;
    hdr->prev = prev ? prev.page_id() : kInvalidPageId;
    hdr->leftmost = kInvalidPageId;
    hdr->stab_head = kInvalidPageId;
    hdr->ps_dir = kInvalidPageId;

    chunk.assign(buf.begin(),
                 buf.begin() + static_cast<ptrdiff_t>(std::min(rem, page_max)));
    for (Element& e : chunk) SetInStabList(&e, false);
    size_t take;
    uint16_t format =
        compressed_ ? kXrPageFormatCompressed : kXrPageFormatFixed;
    if (compressed_) {
      // Greedy longest-prefix encode tells us the achievable fan-out;
      // fill_fraction scales it the way it scales fixed slot counts.
      size_t n_full = XrcEncodeLeaf(raw, chunk.data(), chunk.size());
      if (n_full == 0) {
        return Status::Corruption("bulk load: leaf encode took no entries");
      }
      take = std::max<size_t>(
          min_fill, static_cast<size_t>(n_full * fill_fraction));
      take = std::min(take, n_full);
      if (exhausted && rem > take && rem - take < min_fill) {
        // The tail would be stranded below min_fill: absorb it, fall back
        // to the greedy prefix when that already leaves enough, leave
        // exactly min_fill behind, or — when the remainder is tiny but
        // incompressible — emit it as a single fixed-format page
        // (rem < 2*min_fill <= leaf_cap_ + 1, so it always fits).
        if (n_full >= rem) {
          take = rem;
        } else if (rem - n_full >= min_fill) {
          take = n_full;
        } else if (rem >= 2 * min_fill) {
          take = rem - min_fill;
        } else {
          take = rem;
          format = kXrPageFormatFixed;
        }
      }
    } else {
      // Pack `leaf_fill` entries per page, but never leave the final page
      // below the half-full invariant: either absorb the tail into this
      // page (it fits below capacity) or leave exactly the minimum behind.
      take = std::min<size_t>(leaf_fill, rem);
      if (exhausted && rem > take && rem - take < min_fill) {
        take = (rem <= leaf_cap_) ? rem : rem - min_fill;
      }
    }
    XR_RETURN_IF_ERROR(XrLeafWrite(raw, chunk.data(), take, format));
    if (prev) {
      XrHeader(prev.get())->next = raw->page_id();
      prev.MarkDirty();
    }
    level.push_back({buf.front().start, raw->page_id()});
    leaf_pages.push_back(raw->page_id());
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(take));
    total_loaded += take;
    prev = std::move(page);
  }
  prev.Release();

  size_t internal_levels = 0;
  while (level.size() > 1) {
    ++internal_levels;
    std::vector<ChildRef> next_level;
    size_t i = 0;
    while (i < level.size()) {
      size_t total = level.size() - i;
      size_t nchildren = std::min<size_t>(internal_fill + 1ull, total);
      size_t min_children = internal_cap_ / 2 + 1;
      if (total > nchildren && total - nchildren < min_children) {
        nchildren = (total <= internal_cap_ + 1ull) ? total
                                                    : total - min_children;
      }
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
      PageGuard page(pool_, raw);
      page.MarkDirty();
      auto* hdr = XrHeader(raw);
      hdr->magic = kXrInternalMagic;
      hdr->is_leaf = 0;
      hdr->count = static_cast<uint32_t>(nchildren - 1);
      hdr->next = kInvalidPageId;
      hdr->prev = kInvalidPageId;
      hdr->leftmost = level[i].page;
      hdr->stab_head = kInvalidPageId;
      hdr->ps_dir = kInvalidPageId;
      XrInternalEntry* slots = XrInternalSlots(raw);
      for (size_t j = 1; j < nchildren; ++j) {
        slots[j - 1] = {level[i + j].first_key, kNilPosition, kNilPosition,
                        level[i + j].page};
      }
      next_level.push_back({level[i].first_key, raw->page_id()});
      i += nchildren;
    }
    level = std::move(next_level);
  }
  PageId new_root = level[0].page;

  // Stab pass: for every element, find the topmost node with a stabbing key
  // on its root-to-leaf path, then write each node's chain once. Every
  // element of a leaf shares that path (separators are the children's first
  // starts), so the path is pinned once per leaf and each element walks the
  // pinned nodes. Consecutive leaves share a path prefix, which stays
  // pinned: each internal node is fetched once per run of leaves under it.
  std::unordered_map<PageId, std::vector<StabEntry>> stabs;
  std::vector<PageGuard> path;  // path[d]: the pinned internal node at depth d
  std::vector<Element> scratch;
  for (PageId leaf_id : leaf_pages) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(leaf_id));
    PageGuard leaf(pool_, raw);
    XR_ASSIGN_OR_RETURN(XrLeafView view, XrLeafRead(raw, &scratch));
    if (view.size == 0) continue;
    PageId cur = new_root;
    for (size_t d = 0; d < internal_levels; ++d) {
      if (d == path.size() || path[d].page_id() != cur) {
        path.resize(d);  // unpin the previous leaf's diverging suffix
        XR_ASSIGN_OR_RETURN(Page * nraw, pool_->FetchPage(cur));
        path.emplace_back(pool_, nraw);
      }
      const Page* node = path[d].get();
      cur = XrChildAt(node, XrChildSlot(node, view.data[0].start));
    }
    bool dirty = false;
    // The flag flip is in place on either format (on a compressed leaf, a
    // size-stable varint byte; DESIGN.md §15), so nothing is re-encoded.
    for (const Element& e : view) {
      for (const PageGuard& node : path) {
        uint32_t stab_slot;
        if (!SmallestStabbingKey(node.get(), e.start, e.end, &stab_slot)) {
          continue;
        }
        Position key = XrInternalSlots(node.get())[stab_slot].key;
        stabs[node.page_id()].push_back(MakeStabEntry(e, key));
        XR_ASSIGN_OR_RETURN(bool found, XrLeafSetFlag(raw, e.start, true));
        if (!found) {
          return Status::Corruption("bulk load: stabbed entry vanished");
        }
        dirty = true;
        break;
      }
    }
    if (dirty) leaf.MarkDirty();
  }
  path.clear();
  for (auto& [page_id, entries] : stabs) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(page_id));
    PageGuard node(pool_, raw);
    XR_RETURN_IF_ERROR(WriteNodeStab(raw, std::move(entries)));
    node.MarkDirty();
  }
  root_.store(new_root, std::memory_order_release);
  size_.store(total_loaded, std::memory_order_release);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Introspection and validation
// ---------------------------------------------------------------------------

Result<uint32_t> XrTree::Height() const {
  // Every leaf sits at the same depth, so any key's descent measures it.
  uint32_t height = 0;
  auto count_level = [&](const Page*) {
    ++height;
    return Status::Ok();
  };
  XR_ASSIGN_OR_RETURN(ReadLatchedPage leaf, DescendRead(0, count_level));
  return leaf ? height + 1 : 0;
}

Result<uint64_t> XrTree::CountEntries() {
  uint64_t n = 0;
  // Guard against leaf-chain cycles; see BTree::CountEntries. A compressed
  // leaf holds up to kXrcMaxPageEntries, more than a fixed-format one.
  const uint64_t bound = uint64_t{pool_->disk()->num_pages()} *
                         std::max(kXrLeafMaxEntries, kXrcMaxPageEntries);
  XR_ASSIGN_OR_RETURN(XrIterator it, Begin());
  while (it.Valid()) {
    if (++n > bound) {
      return Status::Corruption("xrtree: leaf chain cycle while counting");
    }
    XR_RETURN_IF_ERROR(it.Next());
  }
  size_.store(n, std::memory_order_release);
  return n;
}

Result<StabStats> XrTree::ComputeStabStats() const {
  // Quiescent-only: the unlatched whole-tree walk races structural changes.
  StabStats stats;
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return stats;
  std::vector<PageId> stack{root_id};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard page(pool_, raw);
    const auto* hdr = XrHeader(raw);
    if (hdr->is_leaf) {
      ++stats.leaf_pages;
      continue;
    }
    ++stats.internal_nodes;
    StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_);
    XR_ASSIGN_OR_RETURN(uint32_t pages, list.CountPages());
    XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, list.ReadAll());
    stats.stab_pages += pages;
    stats.stab_entries += entries.size();
    stats.max_stab_pages_per_node =
        std::max(stats.max_stab_pages_per_node, pages);
    if (hdr->ps_dir != kInvalidPageId) ++stats.ps_dir_pages;
    stack.push_back(hdr->leftmost);
    const XrInternalEntry* slots = XrInternalSlots(raw);
    for (uint32_t i = 0; i < hdr->count; ++i) stack.push_back(slots[i].child);
  }
  if (stats.internal_nodes > 0) {
    stats.avg_stab_pages_per_node =
        static_cast<double>(stats.stab_pages) /
        static_cast<double>(stats.internal_nodes);
  }
  return stats;
}

Status XrTree::CheckNode(PageId id, bool is_root, Position lo, Position hi,
                         int* height) const {
  XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
  PageGuard page(pool_, raw);
  const auto* hdr = XrHeader(raw);

  if (hdr->is_leaf) {
    // The view checks the magic, and the count against the format's
    // capacity: up to kXrcMaxPageEntries for a compressed leaf.
    std::vector<Element> scratch;
    XR_ASSIGN_OR_RETURN(XrLeafView slots, XrLeafRead(raw, &scratch));
    if (!is_root && slots.size < leaf_cap_ / 2) {
      return Status::Corruption("leaf underfilled");
    }
    if (!XrLeafIsCompressed(raw) && slots.size > leaf_cap_) {
      return Status::Corruption("leaf overfull");
    }
    for (uint32_t i = 0; i < slots.size; ++i) {
      if (i > 0 && !(slots.data[i - 1].start < slots.data[i].start)) {
        return Status::Corruption("leaf keys out of order");
      }
      if (slots.data[i].start < lo || slots.data[i].start >= hi) {
        return Status::Corruption("leaf key outside bounds");
      }
    }
    *height = 1;
    return Status::Ok();
  }

  if (hdr->magic != kXrInternalMagic) {
    return Status::Corruption("internal magic");
  }
  if (!is_root && hdr->count < internal_cap_ / 2) {
    return Status::Corruption("internal underfilled");
  }
  if (is_root && hdr->count < 1) {
    return Status::Corruption("internal root without keys");
  }
  if (hdr->count > internal_cap_) {
    return Status::Corruption("internal overfull");
  }
  const XrInternalEntry* slots = XrInternalSlots(raw);
  for (uint32_t i = 0; i < hdr->count; ++i) {
    if (i > 0 && !(slots[i - 1].key < slots[i].key)) {
      return Status::Corruption("internal keys out of order");
    }
    if (slots[i].key < lo || slots[i].key >= hi) {
      return Status::Corruption("internal key outside bounds");
    }
  }

  // Stab-chain structural checks: global (key, s) order, keys present in
  // the node, PSLs strictly nested with matching (ps, pe) summaries.
  StabList list(pool_, hdr->stab_head, hdr->ps_dir, use_ps_dir_);
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, list.ReadAll());
  for (size_t i = 0; i < entries.size(); ++i) {
    const StabEntry& se = entries[i];
    if (i > 0 && !StabEntryLess(entries[i - 1], se)) {
      return Status::Corruption("stab chain out of order");
    }
    if (!(se.s <= se.key && se.key <= se.e)) {
      return Status::Corruption("stab entry not stabbed by its key");
    }
    bool key_found = false;
    uint32_t key_slot = 0;
    for (uint32_t k = 0; k < hdr->count; ++k) {
      if (slots[k].key == se.key) {
        key_found = true;
        key_slot = k;
        break;
      }
      if (slots[k].key > se.key) break;
    }
    if (!key_found) {
      return Status::Corruption("stab entry tagged with a foreign key");
    }
    // Smallest-stabbing-key rule.
    if (key_slot > 0 && se.s <= slots[key_slot - 1].key &&
        slots[key_slot - 1].key <= se.e) {
      return Status::Corruption("stab entry not tagged with smallest key");
    }
    // Nesting within the PSL.
    if (i > 0 && entries[i - 1].key == se.key) {
      if (!(entries[i - 1].s < se.s && se.e < entries[i - 1].e)) {
        return Status::Corruption("PSL not strictly nested");
      }
    }
  }
  // (ps, pe) summaries.
  {
    size_t ei = 0;
    for (uint32_t k = 0; k < hdr->count; ++k) {
      while (ei < entries.size() && entries[ei].key < slots[k].key) ++ei;
      if (ei < entries.size() && entries[ei].key == slots[k].key) {
        if (slots[k].ps != entries[ei].s || slots[k].pe != entries[ei].e) {
          return Status::Corruption("(ps, pe) summary stale");
        }
      } else if (slots[k].ps != kNilPosition ||
                 slots[k].pe != kNilPosition) {
        return Status::Corruption("(ps, pe) should be nil");
      }
    }
  }
  // ps-directory agreement: every key's run must start on the page the
  // directory names.
  if (hdr->ps_dir != kInvalidPageId) {
    for (const StabEntry& se : entries) {
      XR_ASSIGN_OR_RETURN(std::vector<StabEntry> psl, list.ReadPsl(se.key));
      if (psl.empty() || psl[0].key != se.key) {
        return Status::Corruption("ps directory misses a PSL");
      }
    }
  }

  int child_height = -1;
  for (uint32_t i = 0; i <= hdr->count; ++i) {
    Position clo = (i == 0) ? lo : slots[i - 1].key;
    Position chi = (i == hdr->count) ? hi : slots[i].key;
    int h = 0;
    XR_RETURN_IF_ERROR(CheckNode(XrChildAt(raw, i), false, clo, chi, &h));
    if (child_height == -1) child_height = h;
    if (h != child_height) {
      return Status::Corruption("children at different heights");
    }
  }
  *height = child_height + 1;
  return Status::Ok();
}

Status XrTree::CheckConsistency() const {
  // Quiescent-only, like the structural pass it extends.
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return Status::Ok();
  int height = 0;
  XR_RETURN_IF_ERROR(CheckNode(root_id, true, 0, kNilPosition, &height));

  // Semantic pass: snapshot every internal node (keys + stab entries, with
  // ancestry) and every leaf element, then re-derive where each element
  // must live and compare.
  struct NodeSnap {
    PageId id;
    std::vector<Position> keys;
    std::vector<StabEntry> entries;
  };
  std::vector<NodeSnap> nodes;
  std::vector<Element> elems;  // with flags
  uint64_t leaf_count = 0;

  struct Walk {
    PageId id;
  };
  std::vector<Walk> stack{{root_id}};
  while (!stack.empty()) {
    PageId id = stack.back().id;
    stack.pop_back();
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(id));
    PageGuard page(pool_, raw);
    const auto* hdr = XrHeader(raw);
    if (hdr->is_leaf) {
      XR_RETURN_IF_ERROR(XrLeafAppend(raw, &elems));
      leaf_count += hdr->count;
      continue;
    }
    NodeSnap snap;
    snap.id = id;
    const XrInternalEntry* slots = XrInternalSlots(raw);
    for (uint32_t i = 0; i < hdr->count; ++i) snap.keys.push_back(slots[i].key);
    XR_ASSIGN_OR_RETURN(snap.entries, ReadNodeStab(raw));
    nodes.push_back(std::move(snap));
    stack.push_back({hdr->leftmost});
    for (uint32_t i = 0; i < hdr->count; ++i) stack.push_back({slots[i].child});
  }
  if (leaf_count != size_.load(std::memory_order_acquire)) {
    return Status::Corruption("tracked size != leaf element count");
  }

  // Expected placement per element: descend an in-memory mirror.
  std::unordered_map<PageId, const NodeSnap*> by_id;
  for (const NodeSnap& n : nodes) by_id[n.id] = &n;

  uint64_t expected_stabbed = 0;
  for (const Element& e : elems) {
    // Find the topmost node with a key in [start, end] along the descent.
    PageId cur = root_id;
    const NodeSnap* found = nullptr;
    Position primary = 0;
    while (by_id.count(cur)) {
      const NodeSnap* n = by_id.at(cur);
      auto it = std::lower_bound(n->keys.begin(), n->keys.end(), e.start);
      if (it != n->keys.end() && *it <= e.end) {
        found = n;
        primary = *it;
        break;
      }
      // Descend: first key > e.start decides the child; re-fetch the page
      // to map child slots to page ids.
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      PageGuard page(pool_, raw);
      cur = XrChildAt(raw, XrChildSlot(raw, e.start));
    }
    if (found == nullptr) {
      if (InStabList(e)) {
        return Status::Corruption("element flagged InStabList but no key "
                                  "stabs it: " + e.ToString());
      }
      continue;
    }
    ++expected_stabbed;
    if (!InStabList(e)) {
      return Status::Corruption("element stabbed but flag is no: " +
                                e.ToString());
    }
    bool present = false;
    for (const StabEntry& se : found->entries) {
      if (se.s == e.start && se.e == e.end && se.key == primary) {
        present = true;
        break;
      }
    }
    if (!present) {
      return Status::Corruption("element missing from its topmost node's "
                                "stab list: " + e.ToString());
    }
  }
  uint64_t total_entries = 0;
  for (const NodeSnap& n : nodes) total_entries += n.entries.size();
  if (total_entries != expected_stabbed) {
    return Status::Corruption(
        "stab entry count mismatch: " + std::to_string(total_entries) +
        " entries vs " + std::to_string(expected_stabbed) + " stabbed");
  }
  return Status::Ok();
}

}  // namespace xrtree
