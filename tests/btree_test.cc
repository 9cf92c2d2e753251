#include "btree/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "btree/btree_page.h"
#include "join/bplus_join.h"
#include "storage/element_file.h"
#include "tests/test_util.h"

namespace xrtree {
namespace {

ElementList MakeElements(const std::vector<Position>& starts) {
  ElementList out;
  for (Position s : starts) out.push_back(Element(s, s + 1, 1, s));
  return out;
}

TEST(BTreeTest, EmptyTreeBehaviour) {
  TempDb db;
  BTree tree(db.pool());
  EXPECT_TRUE(tree.Search(5).status().IsNotFound());
  EXPECT_TRUE(tree.Delete(5).IsNotFound());
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.Begin());
  EXPECT_FALSE(it.Valid());
  EXPECT_OK(tree.CheckConsistency());
}

TEST(BTreeTest, InsertAndSearch) {
  TempDb db;
  BTree tree(db.pool());
  for (Position s : {10u, 5u, 20u, 15u, 1u}) {
    ASSERT_OK(tree.Insert(Element(s, s + 1, 2, s)));
  }
  EXPECT_EQ(tree.size(), 5u);
  ASSERT_OK_AND_ASSIGN(Element e, tree.Search(15));
  EXPECT_EQ(e.start, 15u);
  EXPECT_EQ(e.level, 2);
  EXPECT_TRUE(tree.Search(7).status().IsNotFound());
  ASSERT_OK(tree.CheckConsistency());
}

TEST(BTreeTest, DuplicateKeyRejected) {
  TempDb db;
  BTree tree(db.pool());
  ASSERT_OK(tree.Insert(Element(10, 11)));
  EXPECT_TRUE(tree.Insert(Element(10, 30)).IsInvalidArgument());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, SplitsGrowTheTree) {
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  for (Position s = 1; s <= 200; ++s) {
    ASSERT_OK(tree.Insert(Element(s * 2, s * 2 + 1)));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t h, tree.Height());
  EXPECT_GE(h, 3u);
  ASSERT_OK(tree.CheckConsistency());
}

TEST(BTreeTest, IteratorScansInOrder) {
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  std::set<Position> keys;
  Random rng(42);
  while (keys.size() < 300) {
    Position s = static_cast<Position>(rng.UniformRange(1, 1000000));
    if (keys.insert(s).second) ASSERT_OK(tree.Insert(Element(s, s + 1)));
  }
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.Begin());
  auto expect = keys.begin();
  while (it.Valid()) {
    ASSERT_NE(expect, keys.end());
    EXPECT_EQ(it.Get().start, *expect);
    ++expect;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expect, keys.end());
}

TEST(BTreeTest, LowerAndUpperBound) {
  TempDb db;
  BTree tree(db.pool());
  for (Position s : {10u, 20u, 30u, 40u}) {
    ASSERT_OK(tree.Insert(Element(s, s + 1)));
  }
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.LowerBound(20));
  EXPECT_EQ(it.Get().start, 20u);
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it2, tree.LowerBound(21));
  EXPECT_EQ(it2.Get().start, 30u);
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it3, tree.UpperBound(20));
  EXPECT_EQ(it3.Get().start, 30u);
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it4, tree.UpperBound(40));
  EXPECT_FALSE(it4.Valid());
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it5, tree.LowerBound(0));
  EXPECT_EQ(it5.Get().start, 10u);
}

TEST(BTreeTest, SeekPastKeySkips) {
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  for (Position s = 1; s <= 100; ++s) ASSERT_OK(tree.Insert(Element(s, s)));
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.Begin());
  EXPECT_EQ(it.Get().start, 1u);
  ASSERT_OK(it.SeekPastKey(50));
  EXPECT_EQ(it.Get().start, 51u);
  ASSERT_OK(it.SeekPastKey(100));
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, RangeScanMatchesStdMap) {
  TempDb db;
  BTree tree(db.pool());
  std::map<Position, Element> mirror;
  Random rng(7);
  for (int i = 0; i < 500; ++i) {
    Position s = static_cast<Position>(rng.UniformRange(1, 100000));
    if (mirror.count(s)) continue;
    Element e(s, s + 1, 3, static_cast<uint32_t>(i));
    mirror[s] = e;
    ASSERT_OK(tree.Insert(e));
  }
  for (int q = 0; q < 50; ++q) {
    Position lo = static_cast<Position>(rng.UniformRange(0, 100000));
    Position hi = lo + static_cast<Position>(rng.UniformRange(0, 20000));
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.RangeScan(lo, hi));
    ElementList want;
    for (auto it = mirror.upper_bound(lo);
         it != mirror.end() && it->first < hi; ++it) {
      want.push_back(it->second);
    }
    EXPECT_EQ(got, want) << "range (" << lo << ", " << hi << ")";
  }
}

TEST(BTreeTest, DeleteDownToEmpty) {
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  std::vector<Position> keys;
  for (Position s = 1; s <= 150; ++s) {
    keys.push_back(s * 3);
    ASSERT_OK(tree.Insert(Element(s * 3, s * 3 + 1)));
  }
  Random rng(99);
  // Random deletion order.
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_OK(tree.Delete(keys[i]));
    if (i % 10 == 0) ASSERT_OK(tree.CheckConsistency());
  }
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.Begin());
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, BulkLoadMatchesInserts) {
  TempDb db;
  ElementList elems = RandomNestedElements(5, 2000);
  BTree bulk(db.pool());
  ASSERT_OK(bulk.BulkLoad(elems));
  EXPECT_EQ(bulk.size(), elems.size());
  ASSERT_OK(bulk.CheckConsistency());
  for (size_t i = 0; i < elems.size(); i += 37) {
    ASSERT_OK_AND_ASSIGN(Element e, bulk.Search(elems[i].start));
    EXPECT_EQ(e, elems[i]);
  }
}

TEST(BTreeTest, BulkLoadRejectsBadInput) {
  TempDb db;
  BTree tree(db.pool());
  EXPECT_TRUE(tree.BulkLoad(MakeElements({3, 1, 2})).IsInvalidArgument());
  ASSERT_OK(tree.BulkLoad(MakeElements({1, 2, 3})));
  EXPECT_TRUE(tree.BulkLoad(MakeElements({9})).IsInvalidArgument());
}

TEST(BTreeTest, BulkLoadEmptyList) {
  TempDb db;
  BTree tree(db.pool());
  ASSERT_OK(tree.BulkLoad({}));
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK(tree.Insert(Element(5, 6)));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, BulkLoadFromFileMatchesInMemory) {
  TempDb db(1024);
  ElementList elems = RandomNestedElements(17, 3000);
  ElementFile file(db.pool());
  ASSERT_OK(file.Build(elems));

  BTree streamed(db.pool());
  ASSERT_OK(streamed.BulkLoadFromFile(file));
  EXPECT_EQ(streamed.size(), elems.size());
  ASSERT_OK(streamed.CheckConsistency());
  BTree mem(db.pool());
  ASSERT_OK(mem.BulkLoad(elems));
  ASSERT_OK_AND_ASSIGN(uint64_t streamed_pages, streamed.CountPages());
  ASSERT_OK_AND_ASSIGN(uint64_t mem_pages, mem.CountPages());
  EXPECT_EQ(streamed_pages, mem_pages);
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, streamed.Begin());
  for (const Element& want : elems) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.Get(), want);
    ASSERT_OK(it.Next());
  }
  EXPECT_FALSE(it.Valid());

  // Unsorted input is rejected with the BulkLoad contract's error.
  ElementList shuffled = elems;
  std::swap(shuffled.front(), shuffled.back());
  ElementFile bad(db.pool());
  ASSERT_OK(bad.Build(shuffled));
  BTree rejected(db.pool());
  EXPECT_TRUE(rejected.BulkLoadFromFile(bad).IsInvalidArgument());
}

TEST(BTreeTest, BulkLoadPartialFill) {
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = 10;
  options.internal_capacity = 10;
  BTree full(db.pool(), kInvalidPageId, options);
  ASSERT_OK(full.BulkLoad(RandomNestedElements(9, 1000), 1.0));
  BTree partial(db.pool(), kInvalidPageId, options);
  ASSERT_OK(partial.BulkLoad(RandomNestedElements(9, 1000), 0.7));
  ASSERT_OK(full.CheckConsistency());
  ASSERT_OK(partial.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(uint64_t full_pages, full.CountPages());
  ASSERT_OK_AND_ASSIGN(uint64_t partial_pages, partial.CountPages());
  EXPECT_GT(partial_pages, full_pages);
}

TEST(BTreeTest, PersistsAcrossReopen) {
  TempDb db;
  ElementList elems = RandomNestedElements(11, 500);
  PageId root;
  {
    BTree tree(db.pool());
    ASSERT_OK(tree.BulkLoad(elems));
    root = tree.root();
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen();
  BTree tree(db.pool(), root);
  ASSERT_OK_AND_ASSIGN(uint64_t n, tree.CountEntries());
  EXPECT_EQ(n, elems.size());
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(Element e, tree.Search(elems[100].start));
  EXPECT_EQ(e, elems[100]);
}

// Property test: a random interleaving of inserts and deletes tracks
// std::map exactly, across several fanouts and seeds.
struct BTreeFuzzParam {
  uint32_t fanout;
  uint64_t seed;
  int ops;
};

class BTreeFuzzTest : public ::testing::TestWithParam<BTreeFuzzParam> {};

TEST_P(BTreeFuzzTest, MatchesStdMapUnderRandomOps) {
  const BTreeFuzzParam p = GetParam();
  TempDb db;
  BTreeOptions options;
  options.leaf_capacity = p.fanout;
  options.internal_capacity = p.fanout;
  BTree tree(db.pool(), kInvalidPageId, options);
  std::map<Position, Element> mirror;
  Random rng(p.seed);

  for (int i = 0; i < p.ops; ++i) {
    bool do_insert = mirror.empty() || rng.Uniform(100) < 60;
    if (do_insert) {
      Position s = static_cast<Position>(rng.UniformRange(1, 5000));
      Element e(s, s + 1, static_cast<uint16_t>(rng.Uniform(8)),
                static_cast<uint32_t>(i));
      Status st = tree.Insert(e);
      if (mirror.count(s)) {
        EXPECT_TRUE(st.IsInvalidArgument());
      } else {
        ASSERT_OK(st);
        mirror[s] = e;
      }
    } else {
      auto it = mirror.begin();
      std::advance(it, rng.Uniform(mirror.size()));
      ASSERT_OK(tree.Delete(it->first));
      mirror.erase(it);
    }
    if (i % 50 == 49) ASSERT_OK(tree.CheckConsistency());
  }
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(tree.size(), mirror.size());
  ASSERT_OK_AND_ASSIGN(BTree::Cursor it, tree.Begin());
  auto expect = mirror.begin();
  while (it.Valid()) {
    ASSERT_NE(expect, mirror.end());
    EXPECT_EQ(it.Get(), expect->second);
    ++expect;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expect, mirror.end());
}

INSTANTIATE_TEST_SUITE_P(
    Fanouts, BTreeFuzzTest,
    ::testing::Values(BTreeFuzzParam{4, 1, 600}, BTreeFuzzParam{4, 2, 600},
                      BTreeFuzzParam{5, 3, 600}, BTreeFuzzParam{8, 4, 800},
                      BTreeFuzzParam{16, 5, 1000},
                      BTreeFuzzParam{64, 6, 1500}),
    [](const ::testing::TestParamInfo<BTreeFuzzParam>& info) {
      return "fanout" + std::to_string(info.param.fanout) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Write-path golden images: Insert and Delete leave the pinned pages
// ---------------------------------------------------------------------------

/// FNV-1a over every live page, read back from the file after a flush: page
/// id, header fields and the slots in use. Slack bytes are left out, so the
/// digest pins what each page holds, not what a writer left behind.
uint64_t BTreePageDigest(TempDb* db) {
  EXPECT_OK(db->pool()->FlushAll());
  std::vector<PageId> free = db->pool()->FreeListSnapshot();
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  Page page;
  for (PageId id = 0; id < db->disk()->num_pages(); ++id) {
    if (std::binary_search(free.begin(), free.end(), id)) continue;
    EXPECT_OK(db->disk()->ReadPage(id, page.data()));
    mix(id);
    const BTreePageHeader* hdr = BTreeHeader(&page);
    for (uint32_t v : {hdr->magic, uint32_t{hdr->is_leaf}, hdr->count,
                       hdr->next, hdr->prev, hdr->leftmost}) {
      mix(v);
    }
    if (hdr->magic == kBTreeLeafMagic) {
      const uint32_t n =
          std::min<uint32_t>(hdr->count, kBTreeLeafMaxEntries);
      for (uint32_t i = 0; i < n; ++i) {
        const Element& e = LeafSlots(&page)[i];
        for (uint32_t v : {e.start, e.end, uint32_t{e.level},
                           uint32_t{e.flags}, e.id}) {
          mix(v);
        }
      }
    } else if (hdr->magic == kBTreeInternalMagic) {
      const uint32_t n =
          std::min<uint32_t>(hdr->count, kBTreeInternalMaxEntries);
      for (uint32_t i = 0; i < n; ++i) {
        mix(InternalSlots(&page)[i].key);
        mix(InternalSlots(&page)[i].child);
      }
    }
  }
  return h;
}

struct BTreeWritePathParam {
  const char* name;
  uint32_t leaf_capacity;
  uint32_t internal_capacity;
  // Logical digests after the insert phase and after the delete phase,
  // recorded by running this test on the build whose Delete handled leaf
  // and internal underflow in two recursive handlers.
  uint64_t insert_digest;
  uint64_t delete_digest;
  // A draining row deletes all but two keys, not nine in ten, so the tree
  // shrinks to a root leaf and its last root collapse happens above two
  // leaves.
  bool drain = false;
};

class BTreeWritePathGoldenTest
    : public ::testing::TestWithParam<BTreeWritePathParam> {};

TEST_P(BTreeWritePathGoldenTest, InsertAndDeleteLeaveThePinnedPages) {
  const BTreeWritePathParam& param = GetParam();
  ElementList all = RandomNestedElements(2303, 3000, 3);
  Random rng(7);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }

  TempDb db(4096);
  BTreeOptions options;
  options.leaf_capacity = param.leaf_capacity;
  options.internal_capacity = param.internal_capacity;
  BTree tree(db.pool(), kInvalidPageId, options);

  // Insert phase: random order, so leaves and internal nodes split at
  // every level and the root grows several times.
  for (const Element& e : all) ASSERT_OK(tree.Insert(e));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(uint32_t grown, tree.Height());
  EXPECT_GE(grown, 4u);
  const uint64_t insert_digest = BTreePageDigest(&db);
  EXPECT_EQ(insert_digest, param.insert_digest)
      << std::hex << "0x" << insert_digest;

  // Delete phase: all but one key in ten, in a fresh random order, so the
  // tree shrinks back through its levels. On the way every node kind
  // borrows from and merges with a left and a right sibling, and the root
  // collapses.
  Random del_rng(2305);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[del_rng.Uniform(i)]);
  }
  const size_t deletes = all.size() - (param.drain ? 2 : all.size() / 10);
  for (size_t i = 0; i < deletes; ++i) ASSERT_OK(tree.Delete(all[i].start));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_EQ(tree.size(), all.size() - deletes);
  ASSERT_OK_AND_ASSIGN(uint32_t shrunk, tree.Height());
  EXPECT_EQ(shrunk == 1, param.drain);
  EXPECT_LT(shrunk, grown);
  const uint64_t delete_digest = BTreePageDigest(&db);
  EXPECT_EQ(delete_digest, param.delete_digest)
      << std::hex << "0x" << delete_digest;
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, BTreeWritePathGoldenTest,
    ::testing::Values(
        BTreeWritePathParam{"Leaf4Internal4", 4, 4, 0x29b9dd21e30056bfull,
                            0xbef6e6381d8746b9ull},
        BTreeWritePathParam{"Leaf16Internal5", 16, 5, 0x78d0a9e12f777cb1ull,
                            0x163b2457de75be0bull},
        BTreeWritePathParam{"Leaf4Internal4Drain", 4, 4,
                            0x29b9dd21e30056bfull, 0x2ab5df0adeaa308dull,
                            true}),
    [](const ::testing::TestParamInfo<BTreeWritePathParam>& info) {
      return std::string(info.param.name);
    });


// ---------------------------------------------------------------------------
// Bulk-load golden images: BulkLoad and BulkLoadFromFile leave the pinned
// pages
// ---------------------------------------------------------------------------

struct BTreeBulkLoadParam {
  const char* name;
  uint32_t leaf_capacity;
  uint32_t internal_capacity;
  double fill_fraction;
  // Each size makes the last leaf and the last node of some internal level
  // take a tail rule: at fill 1.0 the one that leaves exactly the minimum
  // behind, at 0.7 the one that absorbs the tail (and, in the rows that
  // name both, the other as well).
  uint32_t elements;
  // Digest of the loaded tree, recorded by running this test on the build
  // whose B-tree had its own bulk-load loop.
  uint64_t digest;
};

// Cases are listed by name, not by the struct's bytes (padding included).
void PrintTo(const BTreeBulkLoadParam& param, std::ostream* os) {
  *os << param.name;
}

class BTreeBulkLoadGoldenTest
    : public ::testing::TestWithParam<BTreeBulkLoadParam> {};

TEST_P(BTreeBulkLoadGoldenTest, BothLoadsLeaveThePinnedPages) {
  const BTreeBulkLoadParam& param = GetParam();
  ElementList elems;
  for (uint32_t i = 0; i < param.elements; ++i) {
    elems.push_back(Element(3 * i + 1, 3 * i + 2,
                            static_cast<uint16_t>(i % 7), i));
  }
  BTreeOptions options;
  options.leaf_capacity = param.leaf_capacity;
  options.internal_capacity = param.internal_capacity;

  TempDb db(1024);
  BTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(elems, param.fill_fraction));
  ASSERT_OK(tree.CheckConsistency());
  const uint64_t digest = BTreePageDigest(&db);
  EXPECT_EQ(digest, param.digest) << std::hex << "0x" << digest;

  // The streaming load builds the same pages; its file lives in a second
  // database so that the two digests cover the same page ids.
  TempDb file_db;
  ElementFile file(file_db.pool());
  ASSERT_OK(file.Build(elems));
  TempDb streamed_db(1024);
  BTree streamed(streamed_db.pool(), kInvalidPageId, options);
  ASSERT_OK(streamed.BulkLoadFromFile(file, param.fill_fraction));
  ASSERT_OK(streamed.CheckConsistency());
  EXPECT_EQ(BTreePageDigest(&streamed_db), param.digest);
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndFills, BTreeBulkLoadGoldenTest,
    ::testing::Values(
        BTreeBulkLoadParam{"Leaf4Internal4Fill100Small", 4, 4, 1.0, 21,
                           0x8b5ef68ef22ff41eull},
        BTreeBulkLoadParam{"Leaf4Internal4Fill100", 4, 4, 1.0, 1501,
                           0x298aaf9b6b9bfd75ull},
        BTreeBulkLoadParam{"Leaf4Internal4Fill70Small", 4, 4, 0.7, 9,
                           0x0d996ae1cd050028ull},
        BTreeBulkLoadParam{"Leaf4Internal4Fill70", 4, 4, 0.7, 1501,
                           0x52eb6af15d5a8bd8ull},
        BTreeBulkLoadParam{"Leaf16Internal5Fill100Small", 16, 5, 1.0, 97,
                           0xc1e8c73d4b21187dull},
        BTreeBulkLoadParam{"Leaf16Internal5Fill100", 16, 5, 1.0, 1537,
                           0xa016f447b4ae26ceull},
        BTreeBulkLoadParam{"Leaf16Internal5Fill70Small", 16, 5, 0.7, 50,
                           0x98a20d0a18c6e8fdull},
        BTreeBulkLoadParam{"Leaf16Internal5Fill70", 16, 5, 0.7, 1500,
                           0x09bc8ea89e16fa8aull},
        BTreeBulkLoadParam{"DefaultFill100", 0, 0, 1.0, 128525,
                           0x5907f4bb3d606a23ull},
        BTreeBulkLoadParam{"DefaultFill70Absorb", 0, 0, 0.7, 63013,
                           0xbdc80e5d5c314227ull},
        BTreeBulkLoadParam{"DefaultFill70Min", 0, 0, 0.7, 89993,
                           0xba5bd3ce6194eb46ull}),
    [](const ::testing::TestParamInfo<BTreeBulkLoadParam>& info) {
      return std::string(info.param.name);
    });


// ---------------------------------------------------------------------------
// Corrupt entry counts: reads report Corruption, never an over-read
// ---------------------------------------------------------------------------

class BTreePageCountCorruptionTest : public ::testing::TestWithParam<bool> {};

TEST_P(BTreePageCountCorruptionTest, ReadsOfThePageReportCorruption) {
  const bool leaf_victim = GetParam();
  ElementList elems = RandomNestedElements(91, 2000, 3);
  BTreeOptions options;
  options.leaf_capacity = 32;
  TempDb db(4096);
  PageId root;
  PageId victim;
  Position key;  // a start the leftmost leaf holds
  {
    BTree tree(db.pool(), kInvalidPageId, options);
    ASSERT_OK(tree.BulkLoad(elems));
    ASSERT_OK_AND_ASSIGN(uint32_t height, tree.Height());
    ASSERT_EQ(height, 2u);
    root = tree.root();
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(root));
    PageGuard root_page(db.pool(), raw);
    // The leftmost leaf: every descent toward its keys, the scan from
    // Begin() and the height walk read it.
    const PageId leaf = BTreeHeader(raw)->leftmost;
    victim = leaf_victim ? leaf : root;
    key = elems.front().start;
  }
  {
    // Raise the count past the node's capacity; the flush stamps a valid
    // checksum over the corrupt header.
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(victim));
    BTreeHeader(raw)->count = 100000;
    ASSERT_OK(db.pool()->UnpinPage(victim, true));
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen(4096);
  BTree tree(db.pool(), root, options);

  Result<Element> found = tree.Search(key);
  EXPECT_TRUE(found.status().IsCorruption()) << found.status().ToString();
  Status scan = [&]() -> Status {
    XR_ASSIGN_OR_RETURN(BTree::Cursor it, tree.Begin());
    while (it.Valid()) XR_RETURN_IF_ERROR(it.Next());
    return Status::Ok();
  }();
  EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
  Result<uint32_t> height = tree.Height();
  EXPECT_TRUE(height.status().IsCorruption()) << height.status().ToString();
  Result<JoinOutput> joined = BPlusJoin(tree, tree);
  EXPECT_TRUE(joined.status().IsCorruption()) << joined.status().ToString();
  Status check = tree.CheckConsistency();
  EXPECT_TRUE(check.IsCorruption()) << check.ToString();
}

INSTANTIATE_TEST_SUITE_P(Pages, BTreePageCountCorruptionTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Leaf"
                                                         : "Internal");
                         });

}  // namespace
}  // namespace xrtree
