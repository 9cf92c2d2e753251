// Snapshot leaf cursors over both disk trees (DESIGN.md §5.1, §14): a
// cursor parked on a leaf keeps a copy of it and no latch or pin, so the
// leaf's right sibling can be merged away (and its page id recycled) before
// the cursor hops to it. The hop must notice through the pool's free epoch
// and re-descend past the last key it returned. A chain that loops back is
// Corruption. The read-ahead ramp the cursor shares with XR-stack's
// ancestor side is tested here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "tests/test_util.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace {

template <typename Tree>
struct TreeKind;
template <>
struct TreeKind<BTree> {
  using Options = BTreeOptions;
  using Layout = BTreeLayout;
};
template <>
struct TreeKind<XrTree> {
  using Options = XrTreeOptions;
  using Layout = XrLayout;
};

/// Page ids of the tree's leaves, left to right (quiescent trees only).
template <typename Layout>
std::vector<PageId> LeafChain(BufferPool* pool, PageId root) {
  std::vector<PageId> chain;
  PageId cur = root;
  for (;;) {
    auto raw = pool->FetchPage(cur);
    if (!raw.ok()) return {};
    PageGuard page(pool, *raw);
    if (Layout::Hdr(*raw)->is_leaf) break;
    cur = Layout::Hdr(*raw)->leftmost;
  }
  while (cur != kInvalidPageId) {
    chain.push_back(cur);
    auto raw = pool->FetchPage(cur);
    if (!raw.ok()) return {};
    PageGuard page(pool, *raw);
    cur = Layout::Hdr(*raw)->next;
  }
  return chain;
}

/// The entries of one fixed-layout leaf.
template <typename Layout>
ElementList LeafEntries(BufferPool* pool, PageId id) {
  auto raw = pool->FetchPage(id);
  if (!raw.ok()) return {};
  PageGuard page(pool, *raw);
  const Element* slots = Layout::Leaf(*raw);
  return ElementList(slots, slots + Layout::Hdr(*raw)->count);
}

template <typename Tree>
class LeafCursorRecoveryTest : public ::testing::Test {
 protected:
  using Layout = typename TreeKind<Tree>::Layout;

  /// Parks a cursor on a leaf, merges the leaf's right sibling away (and,
  /// with `reuse`, inserts until the freed page id is a leaf again), then
  /// drains the cursor and checks it against the oracle.
  void ParkFreeAndDrain(bool reuse) {
    // Every other element is loaded; the rest feed the inserts.
    ElementList all = RandomNestedElements(29, 600, 3);
    ElementList loaded, held;
    for (size_t i = 0; i < all.size(); ++i) {
      (i % 2 == 0 ? loaded : held).push_back(all[i]);
    }
    TempDb db(256);
    typename TreeKind<Tree>::Options options;
    options.leaf_capacity = 4;
    options.internal_capacity = 4;
    Tree tree(db.pool(), kInvalidPageId, options);
    ASSERT_OK(tree.BulkLoad(loaded));
    std::set<Position> oracle;
    for (const Element& e : loaded) oracle.insert(e.start);

    // Full leaves and nodes: the fourth leaf and its right sibling share a
    // parent, which stays above min fill when the sibling merges away.
    const std::vector<PageId> chain = LeafChain<Layout>(db.pool(), tree.root());
    ASSERT_GE(chain.size(), 8u);
    const PageId leaf = chain[3];
    const PageId sibling = chain[4];
    const ElementList parked_on = LeafEntries<Layout>(db.pool(), leaf);
    ASSERT_FALSE(parked_on.empty());

    // Parked on the leaf's last element, the cursor's next move is the hop.
    ASSERT_OK_AND_ASSIGN(auto it, tree.LowerBound(parked_on.back().start));
    ASSERT_TRUE(it.Valid());
    const Position last_returned = it.Get().start;
    const uint64_t scanned_at_park = it.scanned();
    const uint64_t epoch_at_park = db.pool()->free_epoch();

    // (a) Delete the sibling's first element until the sibling leaves the
    // chain. It borrows from the parked leaf before it merges into it, so
    // some deleted elements come from there; none is past last_returned.
    auto in_chain = [&](PageId id) {
      const auto now = LeafChain<Layout>(db.pool(), tree.root());
      return std::find(now.begin(), now.end(), id) != now.end();
    };
    for (int round = 0; round < 16 && in_chain(sibling); ++round) {
      const ElementList entries = LeafEntries<Layout>(db.pool(), sibling);
      ASSERT_FALSE(entries.empty());
      ASSERT_OK(tree.Delete(entries.front().start));
      oracle.erase(entries.front().start);
    }
    ASSERT_FALSE(in_chain(sibling)) << "the sibling was never merged away";
    EXPECT_NE(db.pool()->free_epoch(), epoch_at_park);

    if (reuse) {
      // (b) Insert until a split takes the freed id for a new leaf.
      bool reused = false;
      for (const Element& e : held) {
        ASSERT_OK(tree.Insert(e));
        oracle.insert(e.start);
        if (in_chain(sibling)) {
          reused = true;
          break;
        }
      }
      ASSERT_TRUE(reused) << "no insert reused the freed page as a leaf";
    }
    ASSERT_OK(tree.CheckConsistency());

    std::vector<Position> got;
    ASSERT_OK(it.Next());
    while (it.Valid()) {
      got.push_back(it.Get().start);
      ASSERT_OK(it.Next());
    }
    const std::vector<Position> want(oracle.upper_bound(last_returned),
                                     oracle.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(it.scanned() - scanned_at_park, got.size());
    EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  }
};

using Trees = ::testing::Types<BTree, XrTree>;
TYPED_TEST_SUITE(LeafCursorRecoveryTest, Trees);

TYPED_TEST(LeafCursorRecoveryTest, HopPastAFreedSiblingReseeks) {
  this->ParkFreeAndDrain(/*reuse=*/false);
}

TYPED_TEST(LeafCursorRecoveryTest, HopPastARecycledSiblingReseeks) {
  this->ParkFreeAndDrain(/*reuse=*/true);
}

// A stale leaf that still passes its checksum can link the chain back onto
// a leaf already passed. Counting the entries and scanning must both report
// Corruption, not walk the loop forever.
template <typename Tree>
class LeafChainLoopTest : public ::testing::Test {
 protected:
  using Layout = typename TreeKind<Tree>::Layout;

  /// Links the sixth leaf's `next` to the leaf at `target` (5 = itself).
  void LoopBackTo(size_t target) {
    typename TreeKind<Tree>::Options options;
    options.leaf_capacity = 8;
    TempDb db(256);
    PageId root;
    {
      Tree tree(db.pool(), kInvalidPageId, options);
      ASSERT_OK(tree.BulkLoad(RandomNestedElements(37, 400, 3)));
      root = tree.root();
      const std::vector<PageId> chain = LeafChain<Layout>(db.pool(), root);
      ASSERT_GE(chain.size(), 8u);
      // The flush stamps a valid checksum over the stale link.
      ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(chain[5]));
      Layout::Hdr(raw)->next = chain[target];
      ASSERT_OK(db.pool()->UnpinPage(chain[5], true));
      ASSERT_OK(db.pool()->FlushAll());
    }
    db.Reopen(256);
    Tree tree(db.pool(), root, options);
    Result<uint64_t> counted = tree.CountEntries();
    EXPECT_TRUE(counted.status().IsCorruption()) << counted.status().ToString();
    Status scan = [&]() -> Status {
      XR_ASSIGN_OR_RETURN(auto it, tree.Begin());
      while (it.Valid()) XR_RETURN_IF_ERROR(it.Next());
      return Status::Ok();
    }();
    EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
    EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  }
};

TYPED_TEST_SUITE(LeafChainLoopTest, Trees);

TYPED_TEST(LeafChainLoopTest, LinkToAnEarlierLeafIsCorruption) {
  this->LoopBackTo(2);
}

TYPED_TEST(LeafChainLoopTest, LinkToItselfIsCorruption) {
  this->LoopBackTo(5);
}

// A tree reopened by its root alone tracks no size until CountEntries,
// so the checker must not compare one; a size it does track still has to
// match the leaves.
template <typename Tree>
class TrackedSizeTest : public ::testing::Test {
 protected:
  typename TreeKind<Tree>::Options options_;
  TempDb db_{256};
};

TYPED_TEST_SUITE(TrackedSizeTest, Trees);

TYPED_TEST(TrackedSizeTest, TreeReopenedByRootPassesTheChecker) {
  const ElementList elems = RandomNestedElements(41, 2000, 4);
  TypeParam built(this->db_.pool(), kInvalidPageId, this->options_);
  ASSERT_OK(built.BulkLoad(elems));
  TypeParam reopened(this->db_.pool(), built.root(), this->options_);
  EXPECT_OK(reopened.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(uint64_t n, reopened.CountEntries());
  EXPECT_EQ(n, elems.size());
  EXPECT_OK(reopened.CheckConsistency());
}

TYPED_TEST(TrackedSizeTest, TrackedSizeOffByOneIsCorruption) {
  const ElementList elems = RandomNestedElements(43, 2000, 4);
  TypeParam built(this->db_.pool(), kInvalidPageId, this->options_);
  ASSERT_OK(built.BulkLoad(elems, /*fill_fraction=*/0.7));
  // A second handle on the same pages adds one element behind the first
  // handle's back; the root page stays the same.
  Position last_end = 0;
  for (const Element& e : elems) last_end = std::max(last_end, e.end);
  TypeParam other(this->db_.pool(), built.root(), this->options_);
  ASSERT_OK(other.Insert(Element(last_end + 1, last_end + 2, 0, 1u << 30)));
  ASSERT_EQ(other.root(), built.root());
  EXPECT_OK(other.CheckConsistency());
  Status checked = built.CheckConsistency();
  EXPECT_TRUE(checked.IsCorruption()) << checked.ToString();
  EXPECT_NE(checked.ToString().find("size mismatch"), std::string::npos)
      << checked.ToString();
}

// size() answers only for a tracked tree: a handle reopened by its root
// says so through size_tracked() and leaves size() at 0 through its own
// writes; CountEntries makes it exact, and it then follows every insert
// and delete made through that handle.
TYPED_TEST(TrackedSizeTest, SizeIsTrackedOnlyOnceCounted) {
  const ElementList elems = RandomNestedElements(47, 2000, 4);
  TypeParam built(this->db_.pool(), kInvalidPageId, this->options_);
  EXPECT_TRUE(built.size_tracked());
  ASSERT_OK(built.BulkLoad(elems, /*fill_fraction=*/0.7));
  EXPECT_TRUE(built.size_tracked());
  EXPECT_EQ(built.size(), elems.size());

  Position last_end = 0;
  for (const Element& e : elems) last_end = std::max(last_end, e.end);
  const Element extra(last_end + 1, last_end + 2, 0, 1u << 30);
  TypeParam reopened(this->db_.pool(), built.root(), this->options_);
  EXPECT_FALSE(reopened.size_tracked());
  ASSERT_OK(reopened.Insert(extra));
  ASSERT_OK(reopened.Delete(extra.start));
  EXPECT_EQ(reopened.size(), 0u);
  EXPECT_FALSE(reopened.size_tracked());

  ASSERT_OK_AND_ASSIGN(uint64_t n, reopened.CountEntries());
  EXPECT_EQ(n, elems.size());
  EXPECT_TRUE(reopened.size_tracked());
  EXPECT_EQ(reopened.size(), elems.size());
  ASSERT_OK(reopened.Insert(extra));
  EXPECT_EQ(reopened.size(), elems.size() + 1);
  ASSERT_OK(reopened.Delete(extra.start));
  EXPECT_EQ(reopened.size(), elems.size());
  EXPECT_OK(reopened.CheckConsistency());
}

}  // namespace
}  // namespace xrtree
