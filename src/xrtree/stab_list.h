#ifndef XRTREE_XRTREE_STAB_LIST_H_
#define XRTREE_XRTREE_STAB_LIST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

/// Manages one internal node's stab list: a chain of stab pages sorted by
/// (key, start) plus the ps-directory page of Fig. 4.
///
/// The handle is a value object over (head, ps_dir); mutations update these
/// members and the caller writes them back into the owning node's header
/// (XrTree does this via SyncStabRefs).
///
/// Queries use the directory + per-PSL early termination, giving the 1-2
/// I/O PSL access the paper claims (§3.3). Mutations read-modify-write the
/// chain: stab lists are small ("zero to a few pages", §3.3), so an O(chain)
/// rewrite keeps the displacement cost C_DP at a handful of I/Os while
/// making the intricate maintenance of Algorithms 1-2 tractable.
class StabList {
 public:
  /// `compressed` selects the page format WriteAll emits (DESIGN.md §15);
  /// reads are always per-page format-transparent, so a handle opened with
  /// the "wrong" flag still reads correctly and merely rewrites the chain
  /// into its own format on the next mutation.
  StabList(BufferPool* pool, PageId head, PageId ps_dir,
           bool use_ps_dir = true, bool compressed = false)
      : pool_(pool),
        head_(head),
        ps_dir_(ps_dir),
        use_ps_dir_(use_ps_dir),
        compressed_(compressed) {}

  PageId head() const { return head_; }
  PageId ps_dir() const { return ps_dir_; }
  bool empty() const { return head_ == kInvalidPageId; }

  /// Reads the entire chain in order.
  Result<std::vector<StabEntry>> ReadAll() const;

  /// Rewrites the chain to hold exactly `entries` (must be StabEntryLess-
  /// sorted), recycling / allocating / freeing pages and rebuilding the
  /// ps-directory (dropped when the chain fits one page).
  Status WriteAll(const std::vector<StabEntry>& entries);

  /// Inserts one entry (sorted position).
  Status Insert(const StabEntry& entry);

  /// Removes the entry with this (key, s); NotFound if absent.
  Status Erase(Position key, Position s);

  /// Reads PSL(key) — the run of entries with this key — using the
  /// directory when present. Returns an empty vector when the PSL is empty.
  Result<std::vector<StabEntry>> ReadPsl(Position key) const;

  /// SearchStabList (Algorithm 5) inner loop for one PSL: appends the
  /// prefix of PSL(key) strictly stabbed by `sd` (s < sd < e) to `out`,
  /// stopping at the first non-stabbed entry. Entries with s <= min_start
  /// are skipped without being counted — the PSL run is sorted by s, so a
  /// caller holding them on its stack (the §5.2 variation) can land past
  /// them with an in-page binary search. `entries_scanned` counts every
  /// entry examined.
  Status CollectStabbed(Position key, Position sd, Position min_start,
                        std::vector<StabEntry>* out,
                        uint64_t* entries_scanned) const;

  /// Number of pages in the chain (excluding the directory page).
  Result<uint32_t> CountPages() const;

  /// Frees every page of the chain and the directory.
  Status Clear();

 private:
  /// Stab page that starts the run for `key` (via directory or head).
  Result<PageId> LocatePslPage(Position key) const;
  Status FreeChainFrom(PageId first);

  BufferPool* pool_;
  PageId head_;
  PageId ps_dir_;
  bool use_ps_dir_;
  bool compressed_;
};

/// Algorithm 5's PSL search over one (key, s)-sorted slice of a stab chain
/// — a chain page, or a whole chain copied into memory: appends the prefix
/// of PSL(key)'s run in the slice that `sd` strictly stabs, skipping (and
/// not counting) entries with s <= min_start, and counts each appended
/// entry in *entries_scanned. Returns true when the run may go on in the
/// next slice: every entry of the slice precedes the run, or the slice's
/// part of the run is stabbed throughout.
bool CollectStabbedInSlice(const StabEntry* slots, uint32_t n, Position key,
                           Position sd, Position min_start,
                           std::vector<StabEntry>* out,
                           uint64_t* entries_scanned);

}  // namespace xrtree

#endif  // XRTREE_XRTREE_STAB_LIST_H_
