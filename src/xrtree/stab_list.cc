#include "xrtree/stab_list.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "xrtree/page_codec.h"

namespace xrtree {

namespace {

// Appends a stab page's entries regardless of its on-page format.
Status AppendStabPage(const Page* raw, std::vector<StabEntry>* out) {
  const auto* hdr = StabHeader(raw);
  if (hdr->format == kXrPageFormatCompressed) {
    return XrcDecodeStab(raw, out);
  }
  const StabEntry* slots = StabSlots(raw);
  out->insert(out->end(), slots, slots + hdr->count);
  return Status::Ok();
}

// Frees a stab-chain / ps-directory page, tolerating transient pins. With
// concurrent readers the page being retired can be momentarily pinned by an
// in-flight CollectStabbed/ReadPsl; FreePage refuses pinned pages, so
// retry briefly (spinning first, then sleeping)
// and, if the pin persists, leak the page rather than fail the mutation —
// the entry data was already rewritten elsewhere, so correctness is
// unaffected and the page is reclaimed at the next rebuild of the chain.
Status FreeStabPageWithRetry(BufferPool* pool, PageId id) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 64; ++attempt) {
    last = pool->FreePage(id);
    if (last.ok()) return last;
    if (attempt < 8) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  return Status::Ok();  // persistent pin: leak the page, keep the mutation
}

}  // namespace

Result<std::vector<StabEntry>> StabList::ReadAll() const {
  std::vector<StabEntry> out;
  PageId cur = head_;
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageGuard page(pool_, raw);
    const auto* hdr = StabHeader(raw);
    if (hdr->magic != kXrStabMagic) {
      return Status::Corruption("bad stab page magic");
    }
    XR_RETURN_IF_ERROR(AppendStabPage(raw, &out));
    cur = hdr->next;
  }
  return out;
}

Status StabList::FreeChainFrom(PageId first) {
  PageId cur = first;
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageId next = StabHeader(raw)->next;
    XR_RETURN_IF_ERROR(pool_->UnpinPage(cur, false));
    XR_RETURN_IF_ERROR(FreeStabPageWithRetry(pool_, cur));
    cur = next;
  }
  return Status::Ok();
}

Status StabList::WriteAll(const std::vector<StabEntry>& entries) {
  assert(std::is_sorted(entries.begin(), entries.end(), StabEntryLess));

  if (entries.empty()) return Clear();

  // Fill pages, recycling the existing chain before allocating new pages.
  // Fixed-format pages take kStabPageMaxEntries each; compressed pages pack
  // as many entries as their byte budget holds (typically 2-3x more).
  PageId cur = head_;
  PageId prev_id = kInvalidPageId;
  std::vector<PageId> chain;
  std::vector<size_t> page_counts;
  size_t i = 0;
  while (i < entries.size()) {
    PageGuard page;
    if (cur != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
      page = PageGuard(pool_, raw);
      cur = StabHeader(raw)->next;
    } else {
      XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
      page = PageGuard(pool_, raw);
    }
    page.MarkDirty();
    auto* hdr = StabHeader(page.get());
    hdr->magic = kXrStabMagic;
    hdr->next = kInvalidPageId;
    size_t n;
    if (compressed_) {
      n = XrcEncodeStab(page.get(), &entries[i], entries.size() - i);
      if (n == 0) return Status::Corruption("stab entry does not fit a page");
    } else {
      n = std::min(kStabPageMaxEntries, entries.size() - i);
      hdr->count = static_cast<uint32_t>(n);
      hdr->format = kXrPageFormatFixed;  // recycled page may be compressed
      std::memcpy(StabSlots(page.get()), &entries[i], n * sizeof(StabEntry));
    }
    i += n;
    chain.push_back(page.page_id());
    page_counts.push_back(n);
    if (prev_id != kInvalidPageId) {
      XR_ASSIGN_OR_RETURN(Page * praw, pool_->FetchPage(prev_id));
      PageGuard prev(pool_, praw);
      prev.MarkDirty();
      StabHeader(praw)->next = page.page_id();
    }
    prev_id = page.page_id();
  }
  // Free surplus pages from the old chain.
  XR_RETURN_IF_ERROR(FreeChainFrom(cur));
  head_ = chain[0];

  // Rebuild the ps directory: needed only when the chain spans more than
  // one page (§3.3). Page-granular: the page where each key's run begins.
  if (!use_ps_dir_ || chain.size() <= 1) {
    if (ps_dir_ != kInvalidPageId) {
      XR_RETURN_IF_ERROR(FreeStabPageWithRetry(pool_, ps_dir_));
      ps_dir_ = kInvalidPageId;
    }
    return Status::Ok();
  }

  std::vector<PsDirEntry> dir;
  size_t at = 0;
  for (size_t p = 0; p < chain.size(); ++p) {
    for (size_t j = 0; j < page_counts[p]; ++j) {
      Position key = entries[at + j].key;
      if (dir.empty() || dir.back().key != key) {
        dir.push_back({key, chain[p]});
      }
    }
    at += page_counts[p];
  }
  // One directory page always suffices: a node has at most
  // kXrInternalMaxEntries (< kPsDirMaxEntries) keys (§3.3).
  if (dir.size() > kPsDirMaxEntries) {
    return Status::Corruption("ps directory overflow");
  }
  PageGuard dpage;
  if (ps_dir_ != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(ps_dir_));
    dpage = PageGuard(pool_, raw);
  } else {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->NewPage());
    dpage = PageGuard(pool_, raw);
    ps_dir_ = raw->page_id();
  }
  dpage.MarkDirty();
  auto* dhdr = dpage.get()->As<PsDirHeader>();
  dhdr->magic = kXrPsDirMagic;
  dhdr->count = static_cast<uint32_t>(dir.size());
  std::memcpy(dpage.get()->data() + sizeof(PsDirHeader), dir.data(),
              dir.size() * sizeof(PsDirEntry));
  return Status::Ok();
}

Status StabList::Insert(const StabEntry& entry) {
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> all, ReadAll());
  auto it = std::lower_bound(all.begin(), all.end(), entry, StabEntryLess);
  if (it != all.end() && it->key == entry.key && it->s == entry.s) {
    return Status::InvalidArgument("duplicate stab entry");
  }
  all.insert(it, entry);
  return WriteAll(all);
}

Status StabList::Erase(Position key, Position s) {
  XR_ASSIGN_OR_RETURN(std::vector<StabEntry> all, ReadAll());
  StabEntry probe{s, 0, key, 0, 0, 0};
  auto it = std::lower_bound(all.begin(), all.end(), probe, StabEntryLess);
  if (it == all.end() || it->key != key || it->s != s) {
    return Status::NotFound("stab entry not found");
  }
  all.erase(it);
  return WriteAll(all);
}

Result<PageId> StabList::LocatePslPage(Position key) const {
  if (head_ == kInvalidPageId) return kInvalidPageId;
  if (ps_dir_ == kInvalidPageId) return head_;  // single-page chain
  XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(ps_dir_));
  PageGuard dpage(pool_, raw);
  const auto* hdr = raw->As<PsDirHeader>();
  if (hdr->magic != kXrPsDirMagic) {
    return Status::Corruption("bad ps-directory magic");
  }
  const auto* dir = reinterpret_cast<const PsDirEntry*>(
      raw->data() + sizeof(PsDirHeader));
  // Binary search for the directory entry of `key`.
  uint32_t lo = 0, hi = hdr->count;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (dir[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < hdr->count && dir[lo].key == key) return dir[lo].page;
  return kInvalidPageId;  // PSL(key) is empty
}

Result<std::vector<StabEntry>> StabList::ReadPsl(Position key) const {
  std::vector<StabEntry> out;
  XR_ASSIGN_OR_RETURN(PageId start, LocatePslPage(key));
  PageId cur = start;
  bool in_run = false;
  std::vector<StabEntry> scratch;
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageGuard page(pool_, raw);
    const auto* hdr = StabHeader(raw);
    const StabEntry* slots;
    uint32_t n;
    bool covers_page_end = true;
    if (hdr->format == kXrPageFormatCompressed) {
      // Decode only the blocks that can hold `key`'s run (plus one
      // terminator block); when the decoded span stops short of the page
      // end, the page's remaining keys are all > key, so the run ends here.
      scratch.clear();
      XR_RETURN_IF_ERROR(XrcDecodeStabForKey(raw, key, &scratch,
                                             &covers_page_end));
      slots = scratch.data();
      n = static_cast<uint32_t>(scratch.size());
    } else {
      slots = StabSlots(raw);
      n = hdr->count;
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (slots[i].key == key) {
        in_run = true;
        out.push_back(slots[i]);
      } else if (in_run || slots[i].key > key) {
        return out;  // past the run
      }
    }
    if (!covers_page_end) return out;  // larger keys follow on this page
    cur = hdr->next;
  }
  return out;
}

bool CollectStabbedInSlice(const StabEntry* slots, uint32_t n, Position key,
                           Position sd, Position min_start,
                           std::vector<StabEntry>* out,
                           uint64_t* entries_scanned) {
  // Locate the slice's part of the PSL run: entries are sorted by (key, s),
  // so both run bounds are binary-searchable.
  uint32_t lo = 0, hi = n;
  {
    uint32_t l = 0, h = n;
    while (l < h) {  // first slot with slot.key >= key
      uint32_t m = (l + h) / 2;
      if (slots[m].key < key) l = m + 1; else h = m;
    }
    lo = l;
    h = n;
    while (l < h) {  // first slot with slot.key > key
      uint32_t m = (l + h) / 2;
      if (slots[m].key <= key) l = m + 1; else h = m;
    }
    hi = l;
  }
  // No run entry here: the run starts in a later slice when every entry
  // precedes `key` (a head-first scan without the ps directory), and is
  // over or empty otherwise.
  if (lo == hi) return lo == n;
  // The PSL is a strictly nested chain, outermost (smallest s, largest e)
  // first, so the entries stabbed by sd form a prefix of the run and its
  // boundary is binary-searchable — the terminating non-stabbed entry is
  // located, not scanned (Alg. 5's early stop, sharpened).
  uint32_t stab_end;
  {
    uint32_t l = lo, h = hi;
    while (l < h) {  // first slot NOT strictly stabbed by sd
      uint32_t m = (l + h) / 2;
      if (slots[m].s < sd && sd < slots[m].e) l = m + 1; else h = m;
    }
    stab_end = l;
  }
  // Entries at or below min_start are already on the caller's stack
  // (§5.2 variation); land past them with another binary search.
  uint32_t emit_begin;
  {
    uint32_t l = lo, h = stab_end;
    while (l < h) {  // first slot with s > min_start
      uint32_t m = (l + h) / 2;
      if (slots[m].s <= min_start) l = m + 1; else h = m;
    }
    emit_begin = l;
  }
  for (uint32_t i = emit_begin; i < stab_end; ++i) {
    ++*entries_scanned;
    out->push_back(slots[i]);
  }
  return stab_end == hi;  // prefix ended inside the slice otherwise
}

Status StabList::CollectStabbed(Position key, Position sd, Position min_start,
                                std::vector<StabEntry>* out,
                                uint64_t* entries_scanned) const {
  XR_ASSIGN_OR_RETURN(PageId start, LocatePslPage(key));
  PageId cur = start;
  std::vector<StabEntry> scratch;
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageGuard page(pool_, raw);
    const auto* hdr = StabHeader(raw);
    const StabEntry* slots;
    uint32_t n;
    bool covers_page_end = true;
    if (hdr->format == kXrPageFormatCompressed) {
      // Decode the run's candidate blocks into scratch and run the same
      // binary searches over the decoded slice.
      scratch.clear();
      XR_RETURN_IF_ERROR(XrcDecodeStabForKey(raw, key, &scratch,
                                             &covers_page_end));
      slots = scratch.data();
      n = static_cast<uint32_t>(scratch.size());
    } else {
      slots = StabSlots(raw);
      n = hdr->count;
    }
    if (!CollectStabbedInSlice(slots, n, key, sd, min_start, out,
                               entries_scanned)) {
      return Status::Ok();
    }
    // Compressed pages: the run provably ends here when the decoded span
    // stopped short of the page end or larger keys follow within it.
    if (hdr->format == kXrPageFormatCompressed &&
        (!covers_page_end || (n > 0 && slots[n - 1].key > key))) {
      return Status::Ok();
    }
    cur = hdr->next;  // run (all stabbed so far) may continue on the next page
  }
  return Status::Ok();
}

Result<uint32_t> StabList::CountPages() const {
  uint32_t n = 0;
  PageId cur = head_;
  while (cur != kInvalidPageId) {
    XR_ASSIGN_OR_RETURN(Page * raw, pool_->FetchPage(cur));
    PageGuard page(pool_, raw);
    ++n;
    cur = StabHeader(raw)->next;
  }
  return n;
}

Status StabList::Clear() {
  XR_RETURN_IF_ERROR(FreeChainFrom(head_));
  head_ = kInvalidPageId;
  if (ps_dir_ != kInvalidPageId) {
    XR_RETURN_IF_ERROR(FreeStabPageWithRetry(pool_, ps_dir_));
    ps_dir_ = kInvalidPageId;
  }
  return Status::Ok();
}

}  // namespace xrtree
