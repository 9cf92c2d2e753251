#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/element_file.h"
#include "tests/test_util.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace {

// ---------------------------------------------------------------------------
// DiskManager
// ---------------------------------------------------------------------------

TEST(DiskManagerTest, OpenCloseReopen) {
  TempDb db;
  EXPECT_TRUE(db.disk()->is_open());
  PageId p = db.disk()->AllocatePage();
  EXPECT_EQ(p, kNumReservedPages);  // pages 0/1 are the catalog slot pair
  EXPECT_EQ(db.disk()->AllocatePage(), kNumReservedPages + 1);
}

TEST(DiskManagerTest, WriteThenReadBack) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char out[kPageSize];
  std::memset(out, 0xAB, kPageSize);
  ASSERT_OK(db.disk()->WritePage(p, out));
  char in[kPageSize];
  ASSERT_OK(db.disk()->ReadPage(p, in));
  EXPECT_EQ(std::memcmp(out, in, kPageSize), 0);
}

TEST(DiskManagerTest, ReadPastEofYieldsZeros) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char in[kPageSize];
  std::memset(in, 0xFF, kPageSize);
  ASSERT_OK(db.disk()->ReadPage(p, in));
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(in[i], 0);
}

TEST(DiskManagerTest, InvalidPageRejected) {
  TempDb db;
  char buf[kPageSize];
  EXPECT_TRUE(db.disk()->ReadPage(kInvalidPageId, buf).IsInvalidArgument());
  EXPECT_TRUE(db.disk()->WritePage(kInvalidPageId, buf).IsInvalidArgument());
}

TEST(DiskManagerTest, StatsCountIo) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char buf[kPageSize] = {};
  ASSERT_OK(db.disk()->WritePage(p, buf));
  ASSERT_OK(db.disk()->ReadPage(p, buf));
  EXPECT_EQ(db.disk()->stats().disk_writes, 1u);
  EXPECT_EQ(db.disk()->stats().disk_reads, 1u);
  db.disk()->ResetStats();
  EXPECT_EQ(db.disk()->stats().disk_reads, 0u);
}

TEST(DiskManagerTest, ReadBatchCollapsesContiguousRunsIntoOneSubmission) {
  TempDb db;
  constexpr size_t kRun = 8;
  PageId first = db.disk()->AllocatePage();
  char out[kPageSize];
  for (size_t i = 0; i < kRun; ++i) {
    PageId id = (i == 0) ? first : db.disk()->AllocatePage();
    std::memset(out, static_cast<char>(0x40 + i), kPageSize);
    ASSERT_OK(db.disk()->WritePage(id, out));
  }
  db.disk()->ResetStats();
  std::vector<char> bufs(kRun * kPageSize);
  PageReadRequest requests[kRun];
  for (size_t i = 0; i < kRun; ++i) {
    requests[i].page_id = first + static_cast<PageId>(i);
    requests[i].out = bufs.data() + i * kPageSize;
  }
  db.disk()->ReadBatch(requests, kRun);
  for (size_t i = 0; i < kRun; ++i) {
    ASSERT_OK(requests[i].status);
    EXPECT_EQ(requests[i].out[0], static_cast<char>(0x40 + i)) << i;
  }
  // Eight consecutive pages travel as one vectorized submission: the
  // achieved batching factor (disk_reads / read_batches) is the whole run.
  IoStats s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, kRun);
  EXPECT_EQ(s.read_batches, 1u);

  // Shuffled ids break into shorter ascending runs — still every page, but
  // more submissions.
  db.disk()->ResetStats();
  const PageId shuffled[kRun] = {first + 4, first + 5, first + 6, first + 7,
                                 first + 0, first + 1, first + 2, first + 3};
  for (size_t i = 0; i < kRun; ++i) requests[i].page_id = shuffled[i];
  db.disk()->ReadBatch(requests, kRun);
  for (size_t i = 0; i < kRun; ++i) {
    ASSERT_OK(requests[i].status);
    EXPECT_EQ(requests[i].out[0],
              static_cast<char>(0x40 + (shuffled[i] - first)))
        << i;
  }
  s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, kRun);
  EXPECT_EQ(s.read_batches, 2u);
}

TEST(DiskManagerTest, ReadBatchIsolatesBadSlotsAndZeroFillsPastEof) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char out[kPageSize];
  std::memset(out, 0x77, kPageSize);
  ASSERT_OK(db.disk()->WritePage(p, out));
  // Three slots: a real page, an invalid id, and a never-written id far
  // past EOF. The bad slot fails alone; the EOF slot reads as zeros,
  // matching ReadPage's fresh-page semantics.
  std::vector<char> bufs(3 * kPageSize, static_cast<char>(0xFF));
  PageReadRequest requests[3];
  requests[0] = {p, bufs.data(), Status::Ok()};
  requests[1] = {kInvalidPageId, bufs.data() + kPageSize, Status::Ok()};
  requests[2] = {p + 100, bufs.data() + 2 * kPageSize, Status::Ok()};
  db.disk()->ReadBatch(requests, 3);
  ASSERT_OK(requests[0].status);
  EXPECT_EQ(std::memcmp(requests[0].out, out, kPageSize), 0);
  EXPECT_TRUE(requests[1].status.IsInvalidArgument());
  ASSERT_OK(requests[2].status);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(requests[2].out[i], 0);
}

TEST(DiskManagerTest, SinglePageRunUsesUniformBatchAccounting) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char out[kPageSize];
  std::memset(out, 0x5A, kPageSize);
  ASSERT_OK(db.disk()->WritePage(p, out));
  db.disk()->ResetStats();
  std::vector<char> buf(kPageSize);
  PageReadRequest request{p, buf.data(), Status::Ok()};
  db.disk()->ReadBatch(&request, 1);
  ASSERT_OK(request.status);
  EXPECT_EQ(std::memcmp(request.out, out, kPageSize), 0);
  // A lone page still travels through the vectorized run path: one read,
  // one submission, batching factor exactly 1.
  IoStats s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, 1u);
  EXPECT_EQ(s.read_batches, 1u);
}

TEST(DiskManagerTest, ReadBatchOnClosedDiskFailsEverySlotWithoutStats) {
  TempDb db;
  PageId first = db.disk()->AllocatePage();
  char out[kPageSize] = {};
  for (size_t i = 0; i < 3; ++i) {
    PageId id = (i == 0) ? first : db.disk()->AllocatePage();
    ASSERT_OK(db.disk()->WritePage(id, out));
  }
  db.disk()->ResetStats();
  ASSERT_OK(db.disk()->Close());
  // The hard error lands at position 0 of the run: every slot of the run
  // reports it (nothing was transferred), and neither disk_reads nor
  // read_batches move — a submission that never reached the device is not
  // a batch.
  std::vector<char> bufs(3 * kPageSize);
  PageReadRequest requests[3];
  for (size_t i = 0; i < 3; ++i) {
    requests[i] = {first + static_cast<PageId>(i), bufs.data() + i * kPageSize,
                   Status::Ok()};
  }
  db.disk()->ReadBatch(requests, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(requests[i].status.IsInvalidArgument()) << i;
  }
  IoStats s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, 0u);
  EXPECT_EQ(s.read_batches, 0u);
}

TEST(DiskManagerTest, RunCollapseStopsAtIdSpaceBoundary) {
  TempDb db;
  // 0xFFFFFFFE is the largest addressable page; its successor id is
  // kInvalidPageId, so run collapse must not glue the two slots together
  // (the arithmetic `page_id + run` lands exactly on the sentinel).
  const PageId last = kInvalidPageId - 1;
  std::vector<char> bufs(2 * kPageSize, static_cast<char>(0xFF));
  PageReadRequest requests[2];
  requests[0] = {last, bufs.data(), Status::Ok()};
  requests[1] = {kInvalidPageId, bufs.data() + kPageSize, Status::Ok()};
  db.disk()->ResetStats();
  db.disk()->ReadBatch(requests, 2);
  // The never-written high page reads past EOF as zeros; the sentinel slot
  // fails alone and is not charged as a device submission.
  ASSERT_OK(requests[0].status);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(requests[0].out[i], 0);
  EXPECT_TRUE(requests[1].status.IsInvalidArgument());
  IoStats s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, 1u);
  EXPECT_EQ(s.read_batches, 1u);

  // Adjacent-but-not-consecutive ids (a gap of one) stay two submissions.
  PageId a = db.disk()->AllocatePage();
  (void)db.disk()->AllocatePage();
  PageId c = db.disk()->AllocatePage();
  char out[kPageSize] = {};
  ASSERT_OK(db.disk()->WritePage(a, out));
  ASSERT_OK(db.disk()->WritePage(c, out));
  db.disk()->ResetStats();
  requests[0] = {a, bufs.data(), Status::Ok()};
  requests[1] = {c, bufs.data() + kPageSize, Status::Ok()};
  db.disk()->ReadBatch(requests, 2);
  ASSERT_OK(requests[0].status);
  ASSERT_OK(requests[1].status);
  s = db.disk()->stats();
  EXPECT_EQ(s.disk_reads, 2u);
  EXPECT_EQ(s.read_batches, 2u);
}

TEST(DiskManagerTest, AllocationRecoveredAfterReopen) {
  TempDb db;
  PageId p = db.disk()->AllocatePage();
  char buf[kPageSize] = {1};
  ASSERT_OK(db.disk()->WritePage(p, buf));
  PageId before = db.disk()->num_pages();
  db.Reopen();
  EXPECT_GE(db.disk()->num_pages(), before - 1);
  // Freshly allocated pages after reopen must not collide with old data.
  PageId q = db.disk()->AllocatePage();
  EXPECT_GT(q, p);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, NewPageIsPinnedAndZeroed) {
  TempDb db(8);
  ASSERT_OK_AND_ASSIGN(Page * page, db.pool()->NewPage());
  EXPECT_EQ(page->pin_count(), 1);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(page->data()[i], 0);
  ASSERT_OK(db.pool()->UnpinPage(page->page_id(), false));
}

bool AllZero(const Page* page) {
  for (size_t i = 0; i < kPageSize; ++i) {
    if (page->data()[i] != 0) return false;
  }
  return true;
}

TEST(BufferPoolTest, RecycledFramesComeBackZeroed) {
  TempDb db(2);
  // Dirty both frames with junk, then force them through eviction: each
  // NewPage below takes a frame whose previous occupant was all 0xAB.
  std::vector<PageId> junk;
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    std::memset(p->data(), 0xAB, kPageDataSize);
    junk.push_back(p->page_id());
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    EXPECT_TRUE(AllZero(p)) << "evicted frame, round " << i;
    std::memset(p->data(), 0xCD, kPageDataSize);
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
  }
  // A frame returned by FreePage is zero again for the page that reuses it
  // (and for the recycled id itself).
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(junk[0]));
  EXPECT_EQ(static_cast<unsigned char>(p->data()[0]), 0xABu);
  ASSERT_OK(db.pool()->UnpinPage(junk[0], false));
  ASSERT_OK(db.pool()->FreePage(junk[0]));
  ASSERT_OK_AND_ASSIGN(Page * again, db.pool()->NewPage());
  EXPECT_EQ(again->page_id(), junk[0]);
  EXPECT_TRUE(AllZero(again));
  ASSERT_OK(db.pool()->UnpinPage(again->page_id(), false));
}

TEST(BufferPoolTest, StandalonePageIsZeroedAndWritable) {
  Page page;
  EXPECT_TRUE(AllZero(&page));
  EXPECT_EQ(page.page_id(), kInvalidPageId);
  EXPECT_EQ(page.pin_count(), 0);
  std::memset(page.data(), 0x5A, kPageSize);
  EXPECT_EQ(page.data()[kPageSize - 1], 0x5A);
  Page other;
  EXPECT_NE(other.data(), page.data());
  EXPECT_TRUE(AllZero(&other));
}

/// VmSize of this process in KiB (0 when /proc is unavailable).
uint64_t VirtualKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmSize: %" SCNu64, &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

TEST(BufferPoolTest, LargePoolMapsLazilyAndUnmapsOnTeardown) {
  constexpr size_t kFrames = 65536;  // 256 MiB of frame bytes
  constexpr uint64_t kFrameKib = kFrames * kPageSize / 1024;
  const uint64_t before = VirtualKib();
  {
    TempDb db(kFrames);
    EXPECT_EQ(db.pool()->pool_size(), kFrames);
    if (before != 0) {
      EXPECT_GE(VirtualKib(), before + kFrameKib);
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
      EXPECT_TRUE(AllZero(p));
      std::memset(p->data(), 0x11 * (i + 1), kPageDataSize);
      ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
    }
    ASSERT_OK(db.pool()->FlushAll());
  }
  // The mapping went away with the pool.
  if (before != 0) {
    EXPECT_LT(VirtualKib(), before + kFrameKib / 2);
  }
}

TEST(BufferPoolTest, FetchHitsCache) {
  TempDb db(8);
  ASSERT_OK_AND_ASSIGN(Page * page, db.pool()->NewPage());
  PageId id = page->page_id();
  ASSERT_OK(db.pool()->UnpinPage(id, false));
  ASSERT_OK_AND_ASSIGN(Page * again, db.pool()->FetchPage(id));
  EXPECT_EQ(again, page);  // same frame
  EXPECT_EQ(db.pool()->stats().buffer_hits, 1u);
  ASSERT_OK(db.pool()->UnpinPage(id, false));
}

TEST(BufferPoolTest, DirtyPageSurvivesEviction) {
  TempDb db(4);
  ASSERT_OK_AND_ASSIGN(Page * page, db.pool()->NewPage());
  PageId id = page->page_id();
  page->data()[0] = 'x';
  ASSERT_OK(db.pool()->UnpinPage(id, true));
  // Evict by cycling more pages than the pool holds.
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), false));
  }
  ASSERT_OK_AND_ASSIGN(Page * back, db.pool()->FetchPage(id));
  EXPECT_EQ(back->data()[0], 'x');
  ASSERT_OK(db.pool()->UnpinPage(id, false));
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  TempDb db(4);
  std::vector<PageId> pinned;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    pinned.push_back(p->page_id());
  }
  // Pool is full of pinned pages: the next request must fail with the
  // distinct retryable code after the bounded back-off runs dry.
  auto r = db.pool()->NewPage();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status();
  for (PageId id : pinned) ASSERT_OK(db.pool()->UnpinPage(id, false));
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
  ASSERT_OK(db.pool()->UnpinPage(p->page_id(), false));
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  TempDb db(3);
  PageId a, b, c;
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    a = p->page_id();
    p->data()[0] = 'a';
    ASSERT_OK(db.pool()->UnpinPage(a, true));
  }
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    b = p->page_id();
    ASSERT_OK(db.pool()->UnpinPage(b, true));
  }
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    c = p->page_id();
    ASSERT_OK(db.pool()->UnpinPage(c, true));
  }
  // Touch `a` so `b` becomes the LRU victim.
  ASSERT_OK_AND_ASSIGN(Page * pa, db.pool()->FetchPage(a));
  ASSERT_OK(db.pool()->UnpinPage(a, false));
  (void)pa;
  uint64_t misses_before = db.pool()->stats().buffer_misses;
  ASSERT_OK_AND_ASSIGN(Page * pd, db.pool()->NewPage());
  ASSERT_OK(db.pool()->UnpinPage(pd->page_id(), false));
  // a and c should still be resident.
  ASSERT_OK_AND_ASSIGN(Page * p2, db.pool()->FetchPage(a));
  ASSERT_OK(db.pool()->UnpinPage(a, false));
  ASSERT_OK_AND_ASSIGN(Page * p3, db.pool()->FetchPage(c));
  ASSERT_OK(db.pool()->UnpinPage(c, false));
  (void)p2;
  (void)p3;
  EXPECT_EQ(db.pool()->stats().buffer_misses, misses_before);
}

TEST(BufferPoolTest, UnpinErrors) {
  TempDb db(4);
  EXPECT_FALSE(db.pool()->UnpinPage(999, false).ok());
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
  ASSERT_OK(db.pool()->UnpinPage(p->page_id(), false));
  EXPECT_FALSE(db.pool()->UnpinPage(p->page_id(), false).ok());
}

TEST(BufferPoolTest, DiscardRequiresUnpinned) {
  TempDb db(4);
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
  PageId id = p->page_id();
  EXPECT_FALSE(db.pool()->DiscardPage(id).ok());
  ASSERT_OK(db.pool()->UnpinPage(id, false));
  EXPECT_OK(db.pool()->DiscardPage(id));
}

TEST(BufferPoolTest, PageGuardUnpinsOnScopeExit) {
  TempDb db(4);
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    PageGuard guard(db.pool(), p);
    id = guard.page_id();
    EXPECT_EQ(db.pool()->pinned_frames(), 1u);
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  (void)id;
}

TEST(BufferPoolTest, PageGuardMoveTransfersOwnership) {
  TempDb db(4);
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
  PageGuard g1(db.pool(), p);
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1);  // NOLINT(bugprone-use-after-move): testing moved state
  EXPECT_TRUE(g2);
  EXPECT_EQ(db.pool()->pinned_frames(), 1u);
  g2.Release();
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST(BufferPoolTest, FlushAllPersistsAcrossReopen) {
  TempDb db(8);
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    id = p->page_id();
    std::strcpy(p->data(), "persist me");
    ASSERT_OK(db.pool()->UnpinPage(id, true));
  }
  ASSERT_OK(db.pool()->FlushAll());
  db.Reopen();
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(id));
  EXPECT_STREQ(p->data(), "persist me");
  ASSERT_OK(db.pool()->UnpinPage(id, false));
}

// ---------------------------------------------------------------------------
// Prefetch accounting
// ---------------------------------------------------------------------------

/// Invariant (see IoStats): every issued prefetch resolves to exactly one
/// of hit (first FetchPage of the page), wasted (evicted or dropped before
/// any fetch), or still-resident-unused.
void ExpectPrefetchInvariant(const IoStats& s, uint64_t resident_unused) {
  EXPECT_EQ(s.prefetch_issued, s.prefetch_hits + s.prefetch_wasted +
                                   resident_unused);
}

TEST(BufferPoolTest, PrefetchBatchAsyncInstallsUnpinnedAndCountsHits) {
  TempDb db(8);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    p->data()[0] = static_cast<char>('A' + i);
    ids.push_back(p->page_id());
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
  }
  db.Reopen(8);  // cold pool over flushed, checksummed pages

  db.pool()->PrefetchBatchAsync(ids);
  db.pool()->WaitForPrefetchIdle();
  IoStats s = db.pool()->stats();
  EXPECT_EQ(s.prefetch_issued, 4u);
  EXPECT_EQ(s.buffer_misses, 0u);  // prefetch reads are not demand misses
  ExpectPrefetchInvariant(s, 4);

  // Re-prefetching resident pages is a no-op, not a second issue.
  db.pool()->PrefetchBatchAsync(ids);
  db.pool()->WaitForPrefetchIdle();
  EXPECT_EQ(db.pool()->stats().prefetch_issued, 4u);

  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(ids[i]));
    EXPECT_EQ(p->data()[0], static_cast<char>('A' + i));
    EXPECT_EQ(p->pin_count(), 1);  // prefetch installed it unpinned
    ASSERT_OK(db.pool()->UnpinPage(ids[i], false));
  }
  s = db.pool()->stats();
  EXPECT_EQ(s.buffer_hits, 4u);  // consumed from the pool, no demand I/O
  EXPECT_EQ(s.buffer_misses, 0u);
  EXPECT_EQ(s.prefetch_hits, 4u);
  ExpectPrefetchInvariant(s, 0);

  // A second fetch is a plain hit: the prefetch already paid off once.
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(ids[0]));
  EXPECT_EQ(p->page_id(), ids[0]);
  ASSERT_OK(db.pool()->UnpinPage(ids[0], false));
  EXPECT_EQ(db.pool()->stats().prefetch_hits, 4u);
}

TEST(BufferPoolTest, EvictedPrefetchesCountAsWastedNotHits) {
  TempDb db(4);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    ids.push_back(p->page_id());
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
  }
  db.Reopen(4);
  db.pool()->PrefetchBatchAsync(ids);
  db.pool()->WaitForPrefetchIdle();
  ASSERT_EQ(db.pool()->stats().prefetch_issued, 3u);

  // Consume one prefetched page, then push the other two out of the tiny
  // pool with fresh allocations.
  ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(ids[0]));
  EXPECT_EQ(p->page_id(), ids[0]);
  ASSERT_OK(db.pool()->UnpinPage(ids[0], false));
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * np, db.pool()->NewPage());
    ASSERT_OK(db.pool()->UnpinPage(np->page_id(), false));
  }
  IoStats s = db.pool()->stats();
  EXPECT_EQ(s.prefetch_issued, 3u);
  EXPECT_EQ(s.prefetch_hits, 1u);
  EXPECT_EQ(s.prefetch_wasted, 2u);  // evictions must not inflate hits
  ExpectPrefetchInvariant(s, 0);
}

TEST(BufferPoolTest, PrefetchingScanHitsEveryLeafAfterTheFirst) {
  // Fanout-4 internal nodes put a parent boundary every few leaves, so the
  // scan takes both read-ahead paths many times: a LeafRunAfter sibling run
  // inside a parent, and the lone chain successor at a parent's last child.
  ElementList elems;
  for (Position p = 1; p < 2 * 600; p += 2) {
    elems.push_back(Element(p, p + 1, 1, p));
  }
  TempDb db(4096);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  PageId root = kInvalidPageId;
  uint64_t leaves = 0;
  {
    XrTree tree(db.pool(), kInvalidPageId, options);
    ASSERT_OK(tree.BulkLoad(elems));
    ASSERT_OK_AND_ASSIGN(StabStats stats, tree.ComputeStabStats());
    ASSERT_GE(tree.Height().value(), 4u);
    leaves = stats.leaf_pages;
    root = tree.root();
  }
  db.Reopen(4096);  // cold, and large enough to hold the whole tree

  XrTree tree(db.pool(), root);
  ASSERT_OK_AND_ASSIGN(XrIterator it, tree.Begin());
  it.EnablePrefetch(2);
  uint64_t seen = 0;
  while (it.Valid()) {
    ++seen;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(seen, elems.size());
  db.pool()->WaitForPrefetchIdle();

  // Each read-ahead is registered before PrefetchBatchAsync returns, so the
  // landing fetch always finds its leaf resident or in flight: only the
  // first leaf is a demand miss, and nothing is read that the scan skips.
  IoStats s = db.pool()->stats();
  EXPECT_EQ(s.prefetch_issued, leaves - 1);
  EXPECT_EQ(s.prefetch_hits, leaves - 1);
  EXPECT_EQ(s.prefetch_wasted, 0u);
  EXPECT_EQ(s.prefetch_errors, 0u);
}

// ---------------------------------------------------------------------------
// ElementFile
// ---------------------------------------------------------------------------

ElementList MakeSequentialElements(uint32_t n) {
  ElementList out;
  Position p = 1;
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(Element(p, p + 1, 1, i));
    p += 2;
  }
  return out;
}

TEST(ElementFileTest, BuildAndReadAll) {
  TempDb db;
  ElementFile file(db.pool());
  ElementList elems = MakeSequentialElements(1000);
  ASSERT_OK(file.Build(elems));
  EXPECT_EQ(file.size(), 1000u);
  ASSERT_OK_AND_ASSIGN(ElementList back, file.ReadAll());
  EXPECT_EQ(back, elems);
}

TEST(ElementFileTest, EmptyFile) {
  TempDb db;
  ElementFile file(db.pool());
  ASSERT_OK(file.Build({}));
  EXPECT_EQ(file.size(), 0u);
  auto scanner = file.NewScanner();
  EXPECT_FALSE(scanner.Valid());
  EXPECT_EQ(scanner.scanned(), 0u);
}

TEST(ElementFileTest, ScannerVisitsEverythingInOrder) {
  TempDb db;
  ElementFile file(db.pool());
  ElementList elems = MakeSequentialElements(997);  // not page-aligned
  ASSERT_OK(file.Build(elems));
  auto scanner = file.NewScanner();
  size_t i = 0;
  while (scanner.Valid()) {
    ASSERT_EQ(scanner.Get(), elems[i]);
    ++i;
    if (!scanner.Next()) break;
  }
  EXPECT_EQ(i, elems.size());
  EXPECT_EQ(scanner.scanned(), elems.size());
}

TEST(ElementFileTest, SpansMultiplePages) {
  TempDb db;
  ElementFile file(db.pool());
  uint32_t n = static_cast<uint32_t>(ElementFile::kCapacity * 3 + 7);
  ASSERT_OK(file.Build(MakeSequentialElements(n)));
  EXPECT_EQ(file.num_pages(), 4u);
}

TEST(ElementFileTest, DoubleBuildRejected) {
  TempDb db;
  ElementFile file(db.pool());
  ASSERT_OK(file.Build(MakeSequentialElements(10)));
  EXPECT_TRUE(file.Build(MakeSequentialElements(10)).IsInvalidArgument());
}

TEST(ElementFileTest, PersistsAcrossReopen) {
  TempDb db;
  PageId head;
  uint64_t size;
  ElementList elems = MakeSequentialElements(500);
  {
    ElementFile file(db.pool());
    ASSERT_OK(file.Build(elems));
    head = file.head();
    size = file.size();
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen();
  ElementFile file(db.pool());
  file.OpenExisting(head, size);
  ASSERT_OK_AND_ASSIGN(ElementList back, file.ReadAll());
  EXPECT_EQ(back, elems);
}

// ---------------------------------------------------------------------------
// BufferPool concurrency: the pool is internally synchronized; hammer it
// from several threads and verify no page content tears and all pin
// accounting balances.
// ---------------------------------------------------------------------------

TEST(BufferPoolConcurrencyTest, ParallelFetchesSeeConsistentPages) {
  TempDb db(32);
  constexpr int kPages = 128;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->NewPage());
    // Fill the page with its own id so readers can verify integrity.
    std::memset(p->data(), static_cast<int>(p->page_id() % 251), kPageSize);
    ids.push_back(p->page_id());
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), true));
  }

  std::atomic<int> torn{0};
  std::atomic<int> failures{0};
  auto worker = [&](uint64_t seed) {
    Random rng(seed);
    for (int op = 0; op < 3000; ++op) {
      PageId id = ids[rng.Uniform(ids.size())];
      auto r = db.pool()->FetchPage(id);
      if (!r.ok()) {
        // Pool exhaustion is possible if every frame is momentarily
        // pinned by the other threads; it must be the only error kind.
        if (!r.status().IsResourceExhausted()) ++failures;
        continue;
      }
      Page* p = r.value();
      char expect = static_cast<char>(id % 251);
      for (size_t b = 0; b < kPageSize; b += 512) {
        if (p->data()[b] != expect) {
          ++torn;
          break;
        }
      }
      db.pool()->UnpinPage(id, false).ok();
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 8; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

// Element invariant helpers.

TEST(ElementTest, ContainsAndParent) {
  Element a(1, 100, 0);
  Element b(2, 15, 1);
  Element c(5, 6, 2);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_TRUE(a.Contains(c));
  EXPECT_TRUE(b.Contains(c));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_FALSE(a.Contains(a));
  EXPECT_TRUE(a.IsParentOf(b));
  EXPECT_FALSE(a.IsParentOf(c));  // grandchild
  EXPECT_TRUE(b.IsParentOf(c));
}

TEST(ElementTest, StabbedBy) {
  Element e(10, 20);
  EXPECT_TRUE(e.StabbedBy(10));
  EXPECT_TRUE(e.StabbedBy(15));
  EXPECT_TRUE(e.StabbedBy(20));
  EXPECT_FALSE(e.StabbedBy(9));
  EXPECT_FALSE(e.StabbedBy(21));
}

TEST(ElementTest, IsStrictlyNestedDetectsOverlap) {
  ElementList good = {{1, 100}, {2, 50}, {3, 10}, {60, 70}};
  EXPECT_TRUE(IsStrictlyNested(good));
  ElementList bad = {{1, 50}, {40, 60}};  // partial overlap
  EXPECT_FALSE(IsStrictlyNested(bad));
  ElementList unsorted = {{5, 6}, {1, 2}};
  EXPECT_FALSE(IsStrictlyNested(unsorted));
  EXPECT_TRUE(IsStrictlyNested({}));
}

TEST(ElementTest, RandomNestedElementsAreStrictlyNested) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ElementList list = RandomNestedElements(seed, 500);
    EXPECT_TRUE(IsStrictlyNested(list)) << "seed " << seed;
    EXPECT_EQ(list.size(), 500u);
  }
}

}  // namespace
}  // namespace xrtree
