#include "xrtree/xrtree.h"

#include <algorithm>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "storage/element_file.h"
#include "xrtree/ancestor_probe.h"
#include "xrtree/page_codec.h"

namespace xrtree {

namespace {

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
    : Skeleton(pool, root, options.leaf_capacity, options.internal_capacity),
      naive_split_key_(options.naive_split_key),
      use_ps_dir_(!options.disable_ps_directory),
      compressed_(options.compressed_pages) {}

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
  XR_RETURN_IF_ERROR(EnsureRoot());

  // I1: crab down; on the way, insert the element into the stab list of the
  // highest (topmost) internal node with a stabbing key. That node stays
  // W-latched to the end of the operation even when the crab would drop it:
  // the rollback paths must still reach it, and holding it pins the
  // element's topmost-node invariant against concurrent promotions.
  // A concurrent split can only promote a key into an ancestor we released
  // while holding that ancestor's W-latch itself (a full child is unsafe,
  // so its parent was retained by the splitter), and our coupled descent
  // serializes against it — we see the key either above or below, never
  // neither. Each pass either splits a compressed leaf and re-descends, or
  // finishes.
  int splits = 0;
  for (;;) {
    WriteLatchSet ls(pool_);
    std::vector<PathEntry> path;
    PageId placed_page = kInvalidPageId;
    Position placed_key = 0;
    auto place = [&](Page* node, PageId* keep) -> Status {
      uint32_t stab_slot;
      if (placed_page != kInvalidPageId ||
          !SmallestStabbingKey(node, element.start, element.end,
                               &stab_slot)) {
        return Status::Ok();
      }
      placed_key = XrInternalSlots(node)[stab_slot].key;
      XR_RETURN_IF_ERROR(
          InsertStabIntoNode(node, MakeStabEntry(element, placed_key)));
      ls.MarkDirty(node->page_id());
      placed_page = *keep = node->page_id();
      return Status::Ok();
    };
    XR_ASSIGN_OR_RETURN(
        Page * leaf,
        DescendWrite(element.start, ls, path,
                     [this](const Header* child) { return HasRoom(child); },
                     place));
    const bool placed = placed_page != kInvalidPageId;

    // Decompress-on-write inside the crab (DESIGN.md §15). A leaf whose
    // entries fit leaf_capacity is left in the fixed layout under its own
    // latch (when full, it failed the crab's safety test, so the split
    // below has its ancestors). Only a compressed leaf holds more, and it
    // failed that test too: split it here under the ancestors the crab
    // kept, then re-descend. The split rewrites stab lists on the held path
    // and could retag or move the speculative placement, so undo it first.
    if (placed && XrHeader(leaf)->count > leaf_cap_) {
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

    // I2: insert into the (fixed-format) leaf, splitting it when full.
    const uint32_t at = LeafLowerBound(leaf, element.start);
    if (at < XrHeader(leaf)->count &&
        XrLeafSlots(leaf)[at].start == element.start) {
      // Roll back before reporting the duplicate (the resident element
      // keeps its own entry, if any).
      if (placed) {
        XR_RETURN_IF_ERROR(
            RollbackStabPlacement(ls, placed_page, placed_key, element));
      }
      return Status::InvalidArgument("duplicate key " +
                                     std::to_string(element.start));
    }
    Element stored = element;
    SetInStabList(&stored, placed);
    return PutInLeaf(ls, path, at, stored);
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

Position XrTree::LeafSplitKey(const std::vector<Element>& all,
                              size_t half) const {
  // Split-key choice (§3.2): any value in (last_left.start, first_right.start]
  // separates the leaves; prefer first_right.start - 1, which avoids stabbing
  // the right leaf's first element (the paper's key-79-vs-80 example).
  const Position last_left = all[half - 1].start;
  const Position first_right = all[half].start;
  return (!naive_split_key_ && first_right - 1 > last_left) ? first_right - 1
                                                            : first_right;
}

std::vector<StabEntry> XrTree::SplitLeafCarry(std::vector<Element>& all,
                                              Position sep) {
  // Newly stabbed elements (InStabList == no with s <= sep <= e) become the
  // StabSet' proposed to the parent; their flags turn to yes.
  std::vector<StabEntry> stab_set;
  for (Element& e : all) {
    if (!InStabList(e) && e.start <= sep && sep <= e.end) {
      SetInStabList(&e, true);
      stab_set.push_back(MakeStabEntry(e, sep));
    }
  }
  return stab_set;
}

Status XrTree::WriteLeaf(Page* leaf, const Element* elems, size_t n,
                         const Page* before) {
  // A compressed write of a subset re-encodes into a page that held its
  // superset, so it always fits (see page_codec.h).
  return XrLeafWrite(leaf, elems, n, XrLeafFormatAfterEdit(before, leaf_cap_));
}

Result<XrLeafView> XrTree::ReadLeafForEdit(WriteLatchSet& ls, Page* leaf,
                                           std::vector<Element>* scratch) {
  XR_ASSIGN_OR_RETURN(XrLeafView view, XrLeafRead(leaf, scratch));
  if (view.in_place || view.size > leaf_cap_) return view;
  XR_RETURN_IF_ERROR(WriteLeaf(leaf, view.data, view.size, leaf));
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

Status XrTree::GatherForNewKey(Page* node, uint32_t at, Position sep_key,
                               std::vector<StabEntry>& carry) {
  // The node's stab entries with the new key's effects: elements of the
  // successor key's PSL with s <= sep_key are now primarily stabbed by
  // sep_key (it is smaller), and StabSet' arrives tagged with sep_key.
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> entries, ReadNodeStab(node));
  if (at < XrHeader(node)->count) {
    const Position successor = XrInternalSlots(node)[at].key;
    for (StabEntry& se : entries) {
      if (se.key == successor && se.s <= sep_key) se.key = sep_key;
    }
  }
  entries.insert(entries.end(), carry.begin(), carry.end());
  carry = std::move(entries);
  return Status::Ok();
}

Status XrTree::CommitNode(Page* node, std::vector<StabEntry>& carry) {
  return WriteNodeStab(node, std::move(carry));
}

Status XrTree::SplitCarry(Page* left, Page* right, Position km,
                          std::vector<StabEntry>& carry) {
  // I32: every element of SL(I) ∪ SL(Inew) stabbed by km is StabSet''
  // (Fig. 5) and moves up tagged with km; the rest stay on their side.
  std::vector<StabEntry> left_entries, right_entries, stab_up;
  for (const StabEntry& se : carry) {
    if (se.s <= km && km <= se.e) {
      stab_up.push_back(se);
      stab_up.back().key = km;
    } else if (se.key < km) {
      left_entries.push_back(se);
    } else {
      right_entries.push_back(se);
    }
  }
  XR_RETURN_IF_ERROR(WriteNodeStab(left, std::move(left_entries)));
  XR_RETURN_IF_ERROR(WriteNodeStab(right, std::move(right_entries)));
  carry = std::move(stab_up);
  return Status::Ok();
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
    cur = ChildAt(raw, ChildSlot(raw, entry.s));
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
    cur = ChildAt(raw, ChildSlot(raw, k));
  }
  return Status::Corruption("xrtree: sweep did not reach a leaf");
}

Status XrTree::OnSeparatorReplaced(WriteLatchSet& ls, PageId parent,
                                   uint32_t key_slot, Position knew) {
  Page* praw = ls.Get(parent);
  const XrInternalEntry* slots = XrInternalSlots(praw);

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
      CollectStabbedDescent(ls, ChildAt(praw, key_slot), knew, &pulled));
  XR_RETURN_IF_ERROR(
      CollectStabbedDescent(ls, ChildAt(praw, key_slot + 1), knew,
                            &pulled));
  for (StabEntry se : pulled) {
    uint32_t slot;
    bool ok = SmallestStabbingKey(praw, se.s, se.e, &slot);
    if (!ok) return Status::Corruption("pulled entry not stabbed by parent");
    se.key = slots[slot].key;
    kept.push_back(se);
  }

  XR_RETURN_IF_ERROR(WriteNodeStab(praw, std::move(kept)));
  for (const StabEntry& se : demote) {
    XR_RETURN_IF_ERROR(PlaceEntry(ls, parent, se));
  }
  return Status::Ok();
}

Status XrTree::OnSeparatorRemoved(WriteLatchSet& ls, PageId parent,
                                  Position removed) {
  Page* praw = ls.Get(parent);
  const XrInternalEntry* slots = XrInternalSlots(praw);

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
  for (const StabEntry& se : demote) {
    XR_RETURN_IF_ERROR(PlaceEntry(ls, parent, se));
  }
  return Status::Ok();
}

Status XrTree::MergeInternal(Page* dest, Page* victim) {
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
  WriteLatchSet ls(pool_);
  std::vector<PathEntry> path;
  // The crab with no safe child: D1 revisits ancestors (the topmost stab
  // erase) and the underflow sweeps revisit the path's subtrees, so every
  // node stays held. The gate keeps the structure (and root_) stable; the
  // decompress-on-write rounds re-descend after splitting an over-full
  // compressed leaf (the gate is exclusive, so this is private).
  for (int round = 0;; ++round) {
    if (round == kMaxDecompressRounds) {
      return Status::Corruption("xrtree: decompress-on-write did not converge");
    }
    XR_RETURN_IF_ERROR(
        DescendWrite(key, ls, path, [](const Header*) { return false; },
                     NoVisit)
            .status());
    XR_ASSIGN_OR_RETURN(bool split, DecompressLeafStep(ls, path));
    if (!split) break;
    ls.ReleaseAll();
  }
  XR_ASSIGN_OR_RETURN(const Element victim, TakeFromLeaf(ls, path, key));

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
  return Rebalance(ls, path);
}

Status XrTree::CheckCollapsingRoot(const Page* root) {
  // OnSeparatorRemoved demoted every remaining stab entry below, so the
  // dying root's chain is empty.
  if (XrHeader(root)->stab_head != kInvalidPageId) {
    return Status::Corruption("shrinking root still owns stab entries");
  }
  return Status::Ok();
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
  XR_ASSIGN_OR_RETURN(Cursor it, UpperBound(ancestor.start));
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
    XR_ASSIGN_OR_RETURN(Cursor it, LowerBound(sd));
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
      }
      // Within one level keys ascend left-to-right (they separate disjoint
      // ascending leaf ranges); stop at the first level that satisfies the
      // request, fetching nothing below it, or at the last internal level.
      if (found.size() >= max_keys) break;
      XR_ASSIGN_OR_RETURN(Page * craw, pool_->FetchPage(children.front()));
      ReadLatchedPage child(pool_, craw);
      if (XrHeader(craw)->magic != kXrInternalMagic) break;
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
  return Skeleton::BulkLoad(elements, fill_fraction);
}

Status XrTree::BulkLoadFromFile(const ElementFile& file,
                                double fill_fraction) {
  WriteScope write_scope(this);
  std::shared_lock<std::shared_mutex> commit_barrier(pool_->commit_mutex());
  std::unique_lock<std::shared_mutex> gate(writer_gate_);
  return Skeleton::BulkLoadFromFile(file, fill_fraction);
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

  return BulkLoadImpl(ListSource{&elems}, 1.0);
}

size_t XrTree::LeafPackMax() const {
  return compressed_ ? size_t{kXrcMaxPageEntries} : size_t{leaf_cap_};
}

Result<size_t> XrTree::PackLeaf(Page* leaf, const std::deque<Element>& buf,
                                size_t take, bool exhausted,
                                double fill_fraction) {
  // Flags are rebuilt by the stab pass.
  std::vector<Element> chunk(
      buf.begin(),
      buf.begin() + static_cast<ptrdiff_t>(std::min(buf.size(),
                                                    LeafPackMax())));
  for (Element& e : chunk) SetInStabList(&e, false);
  uint16_t format = compressed_ ? kXrPageFormatCompressed : kXrPageFormatFixed;
  if (compressed_) {
    // Greedy longest-prefix encode tells us the achievable fan-out;
    // fill_fraction scales it the way it scales fixed slot counts.
    const size_t min_fill = std::max<size_t>(1, leaf_cap_ / 2);
    const size_t rem = buf.size();
    const size_t n_full = XrcEncodeLeaf(leaf, chunk.data(), chunk.size());
    if (n_full == 0) {
      return Status::Corruption("bulk load: leaf encode took no entries");
    }
    take = std::max<size_t>(min_fill,
                            static_cast<size_t>(n_full * fill_fraction));
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
  }
  XR_RETURN_IF_ERROR(XrLeafWrite(leaf, chunk.data(), take, format));
  return take;
}

Status XrTree::FinishBulkLoad(PageId new_root,
                              const std::vector<PageId>& leaf_pages,
                              size_t internal_levels) {
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
      cur = ChildAt(node, ChildSlot(node, view.data[0].start));
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
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Introspection and validation
// ---------------------------------------------------------------------------

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

bool XrTree::LeafMayExceedCapacity(const Page* leaf) const {
  return XrLeafIsCompressed(leaf);  // up to kXrcMaxPageEntries
}

Status XrTree::CheckInternalNode(const Page* raw) const {
  const auto* hdr = XrHeader(raw);
  const XrInternalEntry* slots = XrInternalSlots(raw);
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

  return Status::Ok();
}

Status XrTree::CheckConsistency() const {
  // Quiescent-only, like the structural pass it extends.
  XR_RETURN_IF_ERROR(Skeleton::CheckConsistency());
  PageId root_id = root_.load(std::memory_order_acquire);
  if (root_id == kInvalidPageId) return Status::Ok();

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
      cur = ChildAt(raw, ChildSlot(raw, e.start));
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
