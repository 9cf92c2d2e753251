#include "btree/sptree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "join/bplus_sp_join.h"
#include "join/nested_loop.h"
#include "storage/element_file.h"
#include "tests/test_util.h"

namespace xrtree {
namespace {

TEST(SpTreeTest, EmptyTree) {
  TempDb db;
  SpTree tree(db.pool());
  ASSERT_OK(tree.BulkLoad({}));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(SpIterator it, tree.Begin());
  EXPECT_FALSE(it.Valid());
}

TEST(SpTreeTest, SiblingPointersValidatedOnRandomData) {
  TempDb db(1024);
  for (uint64_t seed : {1u, 2u, 3u}) {
    SpTree tree(db.pool());
    ElementList elems = RandomNestedElements(seed, 3000, seed % 2 ? 2 : 6);
    ASSERT_OK(tree.BulkLoad(elems));
    ASSERT_OK(tree.CheckConsistency());
  }
}

TEST(SpTreeTest, BulkLoadFromFileMatchesInMemory) {
  TempDb db(1024);
  ElementList elems = RandomNestedElements(29, 3000, 4);
  ElementFile file(db.pool());
  ASSERT_OK(file.Build(elems));

  SpTree streamed(db.pool());
  ASSERT_OK(streamed.BulkLoadFromFile(file));
  EXPECT_EQ(streamed.size(), elems.size());
  ASSERT_OK(streamed.CheckConsistency());

  // Element order and sibling-skip targets match the in-memory build.
  SpTree mem(db.pool());
  ASSERT_OK(mem.BulkLoad(elems));
  ASSERT_OK_AND_ASSIGN(SpIterator si, streamed.Begin());
  ASSERT_OK_AND_ASSIGN(SpIterator mi, mem.Begin());
  while (mi.Valid()) {
    ASSERT_TRUE(si.Valid());
    EXPECT_EQ(si.Get(), mi.Get());
    ASSERT_OK(si.Next());
    ASSERT_OK(mi.Next());
  }
  EXPECT_FALSE(si.Valid());
  for (size_t i = 0; i < elems.size(); i += 211) {
    ASSERT_OK_AND_ASSIGN(SpIterator a, streamed.LowerBound(elems[i].start));
    ASSERT_OK_AND_ASSIGN(SpIterator b, mem.LowerBound(elems[i].start));
    ASSERT_OK(a.FollowSibling());
    ASSERT_OK(b.FollowSibling());
    ASSERT_EQ(a.Valid(), b.Valid());
    if (a.Valid()) {
      EXPECT_EQ(a.Get(), b.Get());
    }
  }

  ElementList shuffled = elems;
  std::swap(shuffled.front(), shuffled.back());
  ElementFile bad(db.pool());
  ASSERT_OK(bad.Build(shuffled));
  SpTree rejected(db.pool());
  EXPECT_TRUE(rejected.BulkLoadFromFile(bad).IsInvalidArgument());
}

TEST(SpTreeTest, FollowSiblingSkipsDescendants) {
  // A chain: (1,100) ⊃ (2,99) ⊃ ... then a flat run after 100.
  ElementList elems;
  for (Position i = 0; i < 10; ++i) {
    elems.push_back(Element(1 + i, 100 - i, static_cast<uint16_t>(i)));
  }
  for (Position p = 101; p < 131; p += 3) {
    elems.push_back(Element(p, p + 1, 1));
  }
  std::sort(elems.begin(), elems.end());
  TempDb db;
  SpTree tree(db.pool());
  ASSERT_OK(tree.BulkLoad(elems));
  ASSERT_OK(tree.CheckConsistency());

  ASSERT_OK_AND_ASSIGN(SpIterator it, tree.Begin());
  EXPECT_EQ(it.Get().start, 1u);
  // The outermost element's sibling is the first flat element at 101:
  // everything in between is its descendant.
  ASSERT_OK(it.FollowSibling());
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, 101u);
  // Flat elements point at their immediate successor.
  ASSERT_OK(it.FollowSibling());
  EXPECT_EQ(it.Get().start, 104u);
  // The last element (start 128) has no sibling.
  ASSERT_OK(it.SeekPastKey(125));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, 128u);
  ASSERT_OK(it.FollowSibling());
  EXPECT_FALSE(it.Valid());
}

TEST(SpTreeTest, IteratorScansInOrder) {
  TempDb db(1024);
  SpTree tree(db.pool());
  ElementList elems = RandomNestedElements(5, 2500);
  ASSERT_OK(tree.BulkLoad(elems));
  ASSERT_OK_AND_ASSIGN(SpIterator it, tree.Begin());
  size_t i = 0;
  while (it.Valid()) {
    ASSERT_EQ(it.Get(), elems[i]);
    ++i;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(i, elems.size());
}

struct SpJoinParam {
  uint64_t seed;
  uint32_t n;
  uint32_t max_children;
};

class SpJoinTest : public ::testing::TestWithParam<SpJoinParam> {};

TEST_P(SpJoinTest, MatchesOracle) {
  const SpJoinParam p = GetParam();
  ElementList universe = RandomNestedElements(p.seed, p.n, p.max_children);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }
  TempDb db(1024);
  SpTree a_tree(db.pool());
  SpTree d_tree(db.pool());
  ASSERT_OK(a_tree.BulkLoad(a_list));
  ASSERT_OK(d_tree.BulkLoad(d_list));

  auto want = NestedLoopJoin(a_list, d_list).pairs;
  ASSERT_OK_AND_ASSIGN(JoinOutput got, BPlusSpJoin(a_tree, d_tree));
  for (JoinPair& pr : got.pairs) {
    pr.ancestor.flags = 0;
    pr.descendant.flags = 0;
  }
  std::sort(got.pairs.begin(), got.pairs.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.pairs, want);

  JoinOptions pc;
  pc.parent_child = true;
  auto want_pc = NestedLoopJoin(a_list, d_list, pc).pairs;
  ASSERT_OK_AND_ASSIGN(JoinOutput got_pc, BPlusSpJoin(a_tree, d_tree, pc));
  EXPECT_EQ(got_pc.pairs.size(), want_pc.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpJoinTest,
    ::testing::Values(SpJoinParam{1, 300, 4}, SpJoinParam{2, 800, 2},
                      SpJoinParam{3, 2000, 8}, SpJoinParam{4, 1500, 3}),
    [](const ::testing::TestParamInfo<SpJoinParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n);
    });

// A node count past the page's capacity under a valid checksum (a flipped
// byte the flush re-stamped) must surface as Corruption from every read,
// never as a read past the 4 KiB page.
class SpTreePageCountCorruptionTest : public ::testing::TestWithParam<bool> {};

TEST_P(SpTreePageCountCorruptionTest, ReadsOfThePageReportCorruption) {
  const bool leaf_victim = GetParam();
  ElementList elems = RandomNestedElements(91, 2000, 3);
  TempDb db(4096);
  PageId root;
  PageId victim;
  Position key;  // a start the leftmost leaf holds
  {
    SpTree tree(db.pool());
    ASSERT_OK(tree.BulkLoad(elems));
    root = tree.root();
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(root));
    PageGuard root_page(db.pool(), raw);
    ASSERT_FALSE(BTreeHeader(raw)->is_leaf);
    // The leftmost leaf: every descent toward its keys and the scan from
    // Begin() read it.
    const PageId leaf = BTreeHeader(raw)->leftmost;
    victim = leaf_victim ? leaf : root;
    key = elems.front().start;
  }
  {
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(victim));
    BTreeHeader(raw)->count = 100000;
    ASSERT_OK(db.pool()->UnpinPage(victim, true));
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen(4096);
  SpTree tree(db.pool(), root);

  Result<SpIterator> found = tree.LowerBound(key);
  EXPECT_TRUE(found.status().IsCorruption()) << found.status().ToString();
  Status scan = [&]() -> Status {
    XR_ASSIGN_OR_RETURN(SpIterator it, tree.Begin());
    while (it.Valid()) XR_RETURN_IF_ERROR(it.Next());
    return Status::Ok();
  }();
  EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
  Result<JoinOutput> joined = BPlusSpJoin(tree, tree);
  EXPECT_TRUE(joined.status().IsCorruption()) << joined.status().ToString();
  Status check = tree.CheckConsistency();
  EXPECT_TRUE(check.IsCorruption()) << check.ToString();
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Pages, SpTreePageCountCorruptionTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Leaf"
                                                         : "Internal");
                         });

// A sibling pointer that names its own entry, under a valid checksum,
// would send the join's ancestor skip back onto the element it skips
// from. The jump lands from a.end + 1 and must land on the linked slot,
// so the join reports Corruption instead of looping; the checker does too.
TEST(SpTreeTest, SelfSiblingPointersAreCorruption) {
  ElementList universe = RandomNestedElements(3, 2000, 8);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }
  TempDb db(1024);
  PageId a_root, d_root;
  {
    SpTree a_tree(db.pool());
    SpTree d_tree(db.pool());
    ASSERT_OK(a_tree.BulkLoad(a_list));
    ASSERT_OK(d_tree.BulkLoad(d_list));
    a_root = a_tree.root();
    d_root = d_tree.root();
    // Every entry whose sibling shares its leaf links to itself instead.
    std::vector<SpSnapEntry> stamped;
    ASSERT_OK_AND_ASSIGN(SpIterator it, a_tree.Begin());
    while (it.Valid()) {
      const SpSnapEntry& e = it.Remaining().front();
      if (e.sib_page == e.page) stamped.push_back(e);
      ASSERT_OK(it.Next());
    }
    ASSERT_FALSE(stamped.empty());
    for (const SpSnapEntry& e : stamped) {
      ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(e.page));
      SpLayout::Leaf(raw)[e.slot].sib_slot = e.slot;
      ASSERT_OK(db.pool()->UnpinPage(e.page, true));
    }
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen(1024);
  SpTree a_tree(db.pool(), a_root);
  SpTree d_tree(db.pool(), d_root);
  Result<JoinOutput> joined = BPlusSpJoin(a_tree, d_tree);
  EXPECT_TRUE(joined.status().IsCorruption()) << joined.status().ToString();
  Status check = a_tree.CheckConsistency();
  EXPECT_TRUE(check.IsCorruption()) << check.ToString();
  EXPECT_OK(d_tree.CheckConsistency());
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace xrtree
