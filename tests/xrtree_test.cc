#include "xrtree/xrtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "join/xr_stack.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "xml/generator.h"
#include "xrtree/probe_cursor.h"
#include "xrtree/stab_list.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace {

/// Brute-force oracles over an in-memory element list.
ElementList BruteAncestors(const ElementList& list, Position sd) {
  ElementList out;
  for (const Element& e : list) {
    if (e.start < sd && sd < e.end) out.push_back(e);
  }
  return out;
}

ElementList BruteDescendants(const ElementList& list, const Element& a) {
  ElementList out;
  for (const Element& e : list) {
    if (a.start < e.start && e.start < a.end) out.push_back(e);
  }
  return out;
}

void StripFlags(ElementList* list) {
  for (Element& e : *list) e.flags = 0;
}

/// The emp element set of Fig. 1 (regions straight from the paper).
ElementList Figure1Emps() {
  return {
      {2, 15, 1},  {8, 12, 2},  {10, 11, 3},  {20, 75, 1}, {22, 35, 2},
      {25, 30, 3}, {40, 65, 2}, {45, 60, 3},  {46, 47, 4}, {50, 55, 4},
      {80, 91, 1}, {85, 90, 2},
  };
}

// ---------------------------------------------------------------------------
// StabList unit tests
// ---------------------------------------------------------------------------

TEST(StabListTest, InsertEraseReadAll) {
  TempDb db;
  StabList list(db.pool(), kInvalidPageId, kInvalidPageId);
  EXPECT_TRUE(list.empty());
  ASSERT_OK(list.Insert(StabEntry{10, 50, 24, 1, 0, 0}));
  ASSERT_OK(list.Insert(StabEntry{20, 40, 24, 2, 0, 0}));
  ASSERT_OK(list.Insert(StabEntry{5, 90, 46, 3, 0, 0}));
  EXPECT_FALSE(list.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<StabEntry> all, list.ReadAll());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].key, 24u);
  EXPECT_EQ(all[0].s, 10u);
  EXPECT_EQ(all[1].s, 20u);
  EXPECT_EQ(all[2].key, 46u);
  ASSERT_OK(list.Erase(24, 20));
  ASSERT_OK_AND_ASSIGN(all, list.ReadAll());
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(list.Erase(24, 20).IsNotFound());
  EXPECT_TRUE(list.Insert(StabEntry{10, 50, 24, 1, 0, 0})
                  .IsInvalidArgument());  // duplicate
}

TEST(StabListTest, ReadPslIsolatesRuns) {
  TempDb db;
  StabList list(db.pool(), kInvalidPageId, kInvalidPageId);
  for (Position s : {10u, 12u, 14u}) {
    ASSERT_OK(list.Insert(StabEntry{s, 100 - s, 20, s, 0, 0}));
  }
  for (Position s : {30u, 32u}) {
    ASSERT_OK(list.Insert(StabEntry{s, 80 - s, 40, s, 0, 0}));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<StabEntry> psl, list.ReadPsl(20));
  EXPECT_EQ(psl.size(), 3u);
  ASSERT_OK_AND_ASSIGN(psl, list.ReadPsl(40));
  EXPECT_EQ(psl.size(), 2u);
  ASSERT_OK_AND_ASSIGN(psl, list.ReadPsl(99));
  EXPECT_TRUE(psl.empty());
}

TEST(StabListTest, CollectStabbedStopsAtFirstMiss) {
  TempDb db;
  StabList list(db.pool(), kInvalidPageId, kInvalidPageId);
  // Nested PSL for key 50: (10,90) ⊃ (20,80) ⊃ (30,70) ⊃ (45,55).
  ASSERT_OK(list.Insert(StabEntry{10, 90, 50, 0, 0, 0}));
  ASSERT_OK(list.Insert(StabEntry{20, 80, 50, 1, 0, 0}));
  ASSERT_OK(list.Insert(StabEntry{30, 70, 50, 2, 0, 0}));
  ASSERT_OK(list.Insert(StabEntry{45, 55, 50, 3, 0, 0}));
  std::vector<StabEntry> out;
  uint64_t scanned = 0;
  // sd = 75 stabs the two outermost only; the stabbed prefix ends before
  // (30,70) and only the hits are charged (the boundary is located by
  // binary search over the nested chain).
  ASSERT_OK(list.CollectStabbed(50, 75, 0, &out, &scanned));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].s, 10u);
  EXPECT_EQ(out[1].s, 20u);
  EXPECT_EQ(scanned, 2u);
  // A min_start floor skips (uncharged) the outermost entries.
  out.clear();
  scanned = 0;
  ASSERT_OK(list.CollectStabbed(50, 75, 15, &out, &scanned));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].s, 20u);
  EXPECT_EQ(scanned, 1u);
}

TEST(StabListTest, MultiPageChainBuildsDirectory) {
  TempDb db;
  StabList list(db.pool(), kInvalidPageId, kInvalidPageId);
  // Enough nested entries under a few keys to span several pages.
  std::vector<StabEntry> entries;
  for (uint32_t k = 0; k < 4; ++k) {
    Position key = 10000 * (k + 1);
    for (uint32_t i = 0; i < 150; ++i) {
      // Nested: start ascending, end descending around `key`.
      entries.push_back(StabEntry{key - 500 + i, key + 500 - i, key, i, 0, 0});
    }
  }
  std::sort(entries.begin(), entries.end(), StabEntryLess);
  ASSERT_OK(list.WriteAll(entries));
  ASSERT_OK_AND_ASSIGN(uint32_t pages, list.CountPages());
  EXPECT_GT(pages, 1u);
  EXPECT_NE(list.ps_dir(), kInvalidPageId);
  // Directory-assisted PSL reads return full runs.
  for (uint32_t k = 0; k < 4; ++k) {
    ASSERT_OK_AND_ASSIGN(std::vector<StabEntry> psl,
                         list.ReadPsl(10000 * (k + 1)));
    EXPECT_EQ(psl.size(), 150u);
  }
  // Shrinking back to one page drops the directory.
  ASSERT_OK(list.WriteAll({entries[0]}));
  EXPECT_EQ(list.ps_dir(), kInvalidPageId);
  ASSERT_OK(list.Clear());
  EXPECT_TRUE(list.empty());
}

// ---------------------------------------------------------------------------
// XrTree basics
// ---------------------------------------------------------------------------

TEST(XrTreeTest, EmptyTree) {
  TempDb db;
  XrTree tree(db.pool());
  EXPECT_TRUE(tree.Search(5).status().IsNotFound());
  EXPECT_TRUE(tree.Delete(5).IsNotFound());
  ASSERT_OK_AND_ASSIGN(ElementList anc, tree.FindAncestors(10));
  EXPECT_TRUE(anc.empty());
  ASSERT_OK(tree.CheckConsistency());
}

TEST(XrTreeTest, RejectsDegenerateRegions) {
  TempDb db;
  XrTree tree(db.pool());
  EXPECT_TRUE(tree.Insert(Element(5, 5)).IsInvalidArgument());
  EXPECT_TRUE(tree.Insert(Element(6, 2)).IsInvalidArgument());
}

TEST(XrTreeTest, Figure1PaperExample) {
  TempDb db;
  // Small fanout so the 12-element emp set builds a real multi-level
  // XR-tree like Fig. 3.
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList emps = Figure1Emps();
  for (const Element& e : emps) ASSERT_OK(tree.Insert(e));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(uint32_t h, tree.Height());
  EXPECT_GE(h, 2u);

  // Ancestors of the name element at position 41 (inside (40,65)):
  // (20,75) and (40,65).
  ASSERT_OK_AND_ASSIGN(ElementList anc, tree.FindAncestors(41));
  ElementList want = {{20, 75, 1}, {40, 65, 2}};
  EXPECT_EQ(anc, want);

  // Descendants of (20, 75).
  ASSERT_OK_AND_ASSIGN(ElementList desc,
                       tree.FindDescendants(Element(20, 75, 1)));
  ElementList want_desc = {{22, 35, 2}, {25, 30, 3}, {40, 65, 2},
                           {45, 60, 3}, {46, 47, 4}, {50, 55, 4}};
  EXPECT_EQ(desc, want_desc);

  // Position 51 is nested 5 emps deep.
  ASSERT_OK_AND_ASSIGN(anc, tree.FindAncestors(51));
  EXPECT_EQ(anc.size(), 4u);
  EXPECT_EQ(anc[0], Element(20, 75, 1));
  EXPECT_EQ(anc[3], Element(50, 55, 4));
}

TEST(XrTreeTest, SearchFindsExactElements) {
  TempDb db;
  XrTree tree(db.pool());
  for (const Element& e : Figure1Emps()) ASSERT_OK(tree.Insert(e));
  ASSERT_OK_AND_ASSIGN(Element e, tree.Search(40));
  EXPECT_EQ(e, Element(40, 65, 2));
  EXPECT_TRUE(tree.Search(41).status().IsNotFound());
}

TEST(XrTreeTest, DuplicateInsertRollsBackStabEntry) {
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  for (const Element& e : Figure1Emps()) ASSERT_OK(tree.Insert(e));
  uint64_t before = tree.size();
  EXPECT_TRUE(tree.Insert(Element(20, 75, 1)).IsInvalidArgument());
  EXPECT_EQ(tree.size(), before);
  ASSERT_OK(tree.CheckConsistency());
}

TEST(XrTreeTest, IteratorScansInDocumentOrder) {
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(3, 400);
  for (const Element& e : elems) ASSERT_OK(tree.Insert(e));
  ASSERT_OK_AND_ASSIGN(XrIterator it, tree.Begin());
  size_t i = 0;
  while (it.Valid()) {
    Element got = it.Get();
    got.flags = 0;
    ASSERT_EQ(got, elems[i]);
    ++i;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(i, elems.size());
  EXPECT_EQ(it.scanned(), elems.size());
}

TEST(XrTreeTest, IteratorSeekPastKey) {
  TempDb db;
  XrTree tree(db.pool());
  ElementList elems = RandomNestedElements(4, 200);
  ASSERT_OK(tree.BulkLoad(elems));
  ASSERT_OK_AND_ASSIGN(XrIterator it, tree.Begin());
  Position mid = elems[100].start;
  ASSERT_OK(it.SeekPastKey(mid));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, elems[101].start);
  ASSERT_OK(it.SeekPastKey(elems.back().start));
  EXPECT_FALSE(it.Valid());
}

TEST(XrTreeTest, LowerBoundLandsOnFirstStartAtOrAfter) {
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(9, 500);
  ASSERT_OK(tree.BulkLoad(elems));

  // Exact hit: lands on the element itself.
  ASSERT_OK_AND_ASSIGN(XrIterator it, tree.LowerBound(elems[250].start));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, elems[250].start);
  // Between two starts: lands on the next one. Starts are unique and
  // sorted, so position elems[100].start + 1 (if free) maps to elems[101].
  ASSERT_OK_AND_ASSIGN(it, tree.LowerBound(elems[100].start + 1));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, elems[101].start);
  // Position 0 lands on the first element; past-the-end is invalid.
  ASSERT_OK_AND_ASSIGN(it, tree.LowerBound(0));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.Get().start, elems[0].start);
  ASSERT_OK_AND_ASSIGN(it, tree.LowerBound(elems.back().start + 1));
  EXPECT_FALSE(it.Valid());

  // The landing is a root-to-leaf probe, not a leaf-chain walk: it charges
  // at most one leaf's worth of entries.
  ASSERT_OK_AND_ASSIGN(it, tree.LowerBound(elems[400].start));
  EXPECT_LE(it.scanned(), 4u);
}

// SeekPastKey inside the iterator's snapshot binary-searches it instead of
// descending: it must land where a fresh UpperBound lands, charge the same
// one element, fetch nothing, and keep the read-ahead depth. Keys at or
// past the snapshot's last start, or before its first, still descend.
TEST(XrTreeTest, SeekPastKeyInsideSnapshotMatchesFreshDescent) {
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = 8;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(19, 400);
  ASSERT_OK(tree.BulkLoad(elems));
  auto fetches = [&] {
    IoStats s = db.pool()->stats();
    return s.buffer_hits + s.buffer_misses;
  };

  // Leaf boundaries, found by the first Next() that fetches: the second
  // leaf holds elems[first, last].
  std::vector<size_t> leaf_starts = {0};
  {
    ASSERT_OK_AND_ASSIGN(XrIterator it, tree.Begin());
    for (size_t i = 1; i < elems.size() && leaf_starts.size() < 3; ++i) {
      uint64_t before = fetches();
      ASSERT_OK(it.Next());
      if (fetches() != before) leaf_starts.push_back(i);
    }
  }
  ASSERT_EQ(leaf_starts.size(), 3u);
  const size_t first = leaf_starts[1];
  const size_t last = leaf_starts[2] - 1;
  ASSERT_GE(last - first, 5u);

  // An iterator parked on elems[first + 2] (pos_ 2 of the second leaf's
  // snapshot), with fixed-depth read-ahead on.
  auto parked = [&](XrIterator* it) {
    ASSERT_OK_AND_ASSIGN(*it, tree.LowerBound(elems[first].start));
    it->EnablePrefetch(3);
    ASSERT_OK(it->Next());
    ASSERT_OK(it->Next());
    ASSERT_EQ(it->Get().start, elems[first + 2].start);
  };
  struct Case {
    const char* what;
    Position key;
    bool in_snapshot;
  };
  const Case cases[] = {
      {"before pos_, inside the snapshot", elems[first].start + 1, true},
      {"equal to the snapshot's first start", elems[first].start, true},
      {"equal to an element's start ahead", elems[first + 3].start, true},
      {"between starts ahead", elems[last - 2].start + 1, true},
      {"equal to the snapshot's last start", elems[last].start, false},
      {"past the snapshot", elems[last + 2].start, false},
      {"before the snapshot", elems[first - 1].start, false},
      {"past the tree", elems.back().start, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    XrIterator it;
    ASSERT_NO_FATAL_FAILURE(parked(&it));
    ASSERT_OK_AND_ASSIGN(XrIterator fresh, tree.UpperBound(c.key));
    const uint64_t scanned_before = it.scanned();
    const uint64_t fetches_before = fetches();
    ASSERT_OK(it.SeekPastKey(c.key));
    if (c.in_snapshot) {
      EXPECT_EQ(fetches(), fetches_before);
    }
    ASSERT_EQ(it.Valid(), fresh.Valid());
    if (fresh.Valid()) {
      EXPECT_EQ(it.Get().start, fresh.Get().start);
    }
    EXPECT_EQ(it.scanned() - scanned_before, fresh.scanned());
    EXPECT_EQ(it.prefetch_depth(), 3u);
    // The cursor keeps walking from its landing like a fresh one.
    if (it.Valid()) {
      ASSERT_OK(it.Next());
      ASSERT_OK(fresh.Next());
      ASSERT_EQ(it.Valid(), fresh.Valid());
      if (fresh.Valid()) {
        EXPECT_EQ(it.Get().start, fresh.Get().start);
      }
    }
  }
}

TEST(XrTreeTest, PartitionKeysAreRealSeparators) {
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(42, 1200);
  ASSERT_OK(tree.BulkLoad(elems));

  for (size_t max_keys : {1u, 3u, 7u, 15u, 200u}) {
    ASSERT_OK_AND_ASSIGN(std::vector<Position> keys,
                         tree.PartitionKeys(max_keys));
    EXPECT_LE(keys.size(), max_keys);
    for (size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]);  // strictly ascending
    }
    // Separator semantics: each [prev, key) range holds at least one
    // element, so the induced partitioning has no empty range.
    Position prev = 0;
    size_t covered = 0;
    for (size_t i = 0; i <= keys.size(); ++i) {
      Position hi = i < keys.size() ? keys[i] : kNilPosition;
      size_t in_range = 0;
      for (const Element& e : elems) {
        if (e.start >= prev && (hi == kNilPosition || e.start < hi)) {
          ++in_range;
        }
      }
      EXPECT_GT(in_range, 0u) << "empty partition [" << prev << "," << hi
                              << ") for max_keys=" << max_keys;
      covered += in_range;
      prev = hi;
    }
    EXPECT_EQ(covered, elems.size());  // ranges tile the key space
  }
}

TEST(XrTreeTest, PartitionKeysOnShallowTrees) {
  TempDb db;
  // Empty tree: nothing to split.
  XrTree empty(db.pool());
  ASSERT_OK_AND_ASSIGN(std::vector<Position> none, empty.PartitionKeys(4));
  EXPECT_TRUE(none.empty());
  // Single-leaf tree: no internal separators exist.
  XrTree leaf(db.pool());
  ASSERT_OK(leaf.BulkLoad({{1, 10, 0}, {2, 5, 1}, {6, 9, 1}}));
  ASSERT_OK_AND_ASSIGN(std::vector<Position> still, leaf.PartitionKeys(4));
  EXPECT_TRUE(still.empty());
  // max_keys == 0 is a no-op request.
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree deep(db.pool(), kInvalidPageId, options);
  ASSERT_OK(deep.BulkLoad(RandomNestedElements(5, 300)));
  ASSERT_OK_AND_ASSIGN(std::vector<Position> zero, deep.PartitionKeys(0));
  EXPECT_TRUE(zero.empty());
}

// ---------------------------------------------------------------------------
// Differential query tests
// ---------------------------------------------------------------------------

struct QueryParam {
  uint64_t seed;
  uint32_t n;
  uint32_t fanout;  // 0 = page-native
  bool bulk;
};

class XrQueryTest : public ::testing::TestWithParam<QueryParam> {};

TEST_P(XrQueryTest, FindAncestorsMatchesBruteForce) {
  const QueryParam p = GetParam();
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = p.fanout;
  options.internal_capacity = p.fanout;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(p.seed, p.n);
  if (p.bulk) {
    ASSERT_OK(tree.BulkLoad(elems));
  } else {
    for (const Element& e : elems) ASSERT_OK(tree.Insert(e));
  }
  ASSERT_OK(tree.CheckConsistency());

  Random rng(p.seed * 31 + 7);
  Position max_pos = elems.back().end + 10;
  for (int q = 0; q < 200; ++q) {
    Position sd = static_cast<Position>(rng.UniformRange(0, max_pos));
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    ElementList want = BruteAncestors(elems, sd);
    StripFlags(&got);
    ASSERT_EQ(got, want);
  }
}

TEST_P(XrQueryTest, FindDescendantsMatchesBruteForce) {
  const QueryParam p = GetParam();
  TempDb db;
  XrTreeOptions options;
  options.leaf_capacity = p.fanout;
  options.internal_capacity = p.fanout;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList elems = RandomNestedElements(p.seed, p.n);
  if (p.bulk) {
    ASSERT_OK(tree.BulkLoad(elems));
  } else {
    for (const Element& e : elems) ASSERT_OK(tree.Insert(e));
  }

  Random rng(p.seed * 17 + 3);
  for (int q = 0; q < 100; ++q) {
    const Element& a = elems[rng.Uniform(elems.size())];
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindDescendants(a));
    ElementList want = BruteDescendants(elems, a);
    StripFlags(&got);
    ASSERT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XrQueryTest,
    ::testing::Values(QueryParam{1, 300, 4, false},
                      QueryParam{2, 300, 4, true},
                      QueryParam{3, 800, 8, false},
                      QueryParam{4, 800, 8, true},
                      QueryParam{5, 2000, 16, true},
                      QueryParam{6, 5000, 0, true},
                      QueryParam{7, 1500, 5, false}),
    [](const ::testing::TestParamInfo<QueryParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_fan" +
             std::to_string(info.param.fanout) +
             (info.param.bulk ? "_bulk" : "_insert");
    });

TEST(XrTreeTest, FindAncestorsAboveFiltersStackTop) {
  ElementList elems = RandomNestedElements(8, 500, 2);
  // Full pages, and fanout 4, whose height >= 3 tree puts internal keys at
  // and below most floors (the key walk stops at the first key above it).
  for (uint32_t fanout : {0u, 4u}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    TempDb db;
    XrTreeOptions options;
    options.leaf_capacity = fanout;
    options.internal_capacity = fanout;
    XrTree tree(db.pool(), kInvalidPageId, options);
    ASSERT_OK(tree.BulkLoad(elems));
    if (fanout != 0) {
      ASSERT_OK_AND_ASSIGN(uint32_t height, tree.Height());
      EXPECT_GE(height, 3u);
    }
    Random rng(81);
    for (int q = 0; q < 50; ++q) {
      Position sd = elems[rng.Uniform(elems.size())].start + 1;
      ElementList full = BruteAncestors(elems, sd);
      if (full.empty()) continue;
      // A floor at an ancestor's start (the stack top) and one between
      // elements (the previous probe point - 1).
      for (Position cut : {full[full.size() / 2].start,
                           static_cast<Position>(rng.UniformRange(0, sd))}) {
        ASSERT_OK_AND_ASSIGN(ElementList got,
                             tree.FindAncestorsAbove(sd, cut));
        StripFlags(&got);
        ElementList want;
        for (const Element& e : full) {
          if (e.start > cut) want.push_back(e);
        }
        ASSERT_EQ(got, want) << "sd=" << sd << " cut=" << cut;
      }
    }
  }
}

TEST(XrTreeTest, FindChildrenAndParent) {
  TempDb db;
  XrTree tree(db.pool());
  ElementList elems = RandomNestedElements(9, 600);
  ASSERT_OK(tree.BulkLoad(elems));
  Random rng(91);
  for (int q = 0; q < 60; ++q) {
    const Element& a = elems[rng.Uniform(elems.size())];
    ASSERT_OK_AND_ASSIGN(ElementList kids, tree.FindChildren(a));
    for (const Element& k : kids) {
      EXPECT_TRUE(a.IsParentOf(k));
    }
    ElementList want;
    for (const Element& e : BruteDescendants(elems, a)) {
      if (e.level == a.level + 1) want.push_back(e);
    }
    StripFlags(&kids);
    ASSERT_EQ(kids, want);
    // Round trip: the parent of each child is `a`.
    for (const Element& k : kids) {
      ASSERT_OK_AND_ASSIGN(ElementList par, tree.FindParent(k.start, k.level));
      ASSERT_EQ(par.size(), 1u);
      Element got = par[0];
      got.flags = 0;
      Element want_parent = a;
      want_parent.flags = 0;
      EXPECT_EQ(got, want_parent);
    }
  }
}

TEST(XrTreeTest, BulkLoadEquivalentToInserts) {
  TempDb db;
  ElementList elems = RandomNestedElements(10, 1200);
  XrTreeOptions options;
  options.leaf_capacity = 8;
  options.internal_capacity = 8;
  XrTree bulk(db.pool(), kInvalidPageId, options);
  ASSERT_OK(bulk.BulkLoad(elems));
  XrTree incr(db.pool(), kInvalidPageId, options);
  for (const Element& e : elems) ASSERT_OK(incr.Insert(e));
  ASSERT_OK(bulk.CheckConsistency());
  ASSERT_OK(incr.CheckConsistency());
  Random rng(5);
  for (int q = 0; q < 100; ++q) {
    Position sd = static_cast<Position>(
        rng.UniformRange(0, elems.back().end + 5));
    ASSERT_OK_AND_ASSIGN(ElementList a, bulk.FindAncestors(sd));
    ASSERT_OK_AND_ASSIGN(ElementList b, incr.FindAncestors(sd));
    StripFlags(&a);
    StripFlags(&b);
    ASSERT_EQ(a, b);
  }
}

// ---------------------------------------------------------------------------
// Bulk-load golden images: the file a load writes is pinned byte for byte
// ---------------------------------------------------------------------------

/// FNV-1a over (page id, image) of every allocated page not on the pool's
/// free list, read back from the file after a flush. Freed pages are left
/// out: their stale bytes depend on what the pool happened to evict.
uint64_t LivePageDigest(TempDb* db) {
  EXPECT_OK(db->pool()->FlushAll());
  std::vector<PageId> free = db->pool()->FreeListSnapshot();
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  std::vector<char> page(kPageSize);
  for (PageId id = 0; id < db->disk()->num_pages(); ++id) {
    if (std::binary_search(free.begin(), free.end(), id)) continue;
    EXPECT_OK(db->disk()->ReadPage(id, page.data()));
    mix(&id, sizeof(id));
    mix(page.data(), page.size());
  }
  return h;
}

/// Pages allocated and not on the free list.
uint64_t LivePages(TempDb* db) {
  return db->disk()->num_pages() - db->pool()->FreeListSnapshot().size();
}

struct GoldenParam {
  const char* name;
  bool compressed;
  uint32_t leaf_capacity;
  uint32_t internal_capacity;
  size_t pool_pages;
  // Digests recorded from the byte-at-a-time-CRC, per-element-descent
  // build; the same for every pool size, because a flushed file does not
  // depend on the eviction order.
  uint64_t load_digest;
  uint64_t compact_digest;
};

class BulkLoadGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(BulkLoadGoldenTest, FileImagesAndFetchCountsArePinned) {
  const GoldenParam& param = GetParam();
  ASSERT_OK_AND_ASSIGN(Dataset ds, MakeDepartmentDataset(12000, 7));
  ElementList all = ds.ancestors;
  all.insert(all.end(), ds.descendants.begin(), ds.descendants.end());
  std::sort(all.begin(), all.end());
  // Every 40th element is held out of the load and inserted afterwards.
  ElementList loaded, held_out;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 40 == 17 ? held_out : loaded).push_back(all[i]);
  }
  ASSERT_GE(held_out.size(), 200u);

  TempDb db(param.pool_pages);
  XrTreeOptions options;
  options.compressed_pages = param.compressed;
  options.leaf_capacity = param.leaf_capacity;
  options.internal_capacity = param.internal_capacity;
  XrTree tree(db.pool(), kInvalidPageId, options);

  const IoStats before_load = db.pool()->stats();
  ASSERT_OK(tree.BulkLoad(loaded));
  const IoStats load = db.pool()->stats() - before_load;
  ASSERT_GT(load.pages_allocated, 0u);
  EXPECT_LE(load.total_page_accesses(), 2 * load.pages_allocated)
      << "bulk load fetched " << load.total_page_accesses()
      << " pages to write " << load.pages_allocated;
  ASSERT_OK(tree.CheckConsistency());
  const uint64_t load_digest = LivePageDigest(&db);
  EXPECT_EQ(load_digest, param.load_digest)
      << std::hex << "0x" << load_digest;

  Random rng(11);
  for (size_t i = held_out.size(); i > 1; --i) {
    std::swap(held_out[i - 1], held_out[rng.Uniform(i)]);
  }
  for (const Element& e : held_out) ASSERT_OK(tree.Insert(e));
  const uint64_t live_before = LivePages(&db);
  const IoStats before_compact = db.pool()->stats();
  ASSERT_OK(tree.Compact());
  const IoStats compact = db.pool()->stats() - before_compact;
  // Compact reads the old tree once and builds the new one like a load.
  EXPECT_LE(compact.total_page_accesses(),
            2 * (live_before + LivePages(&db)))
      << "compact fetched " << compact.total_page_accesses() << " pages";
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_EQ(tree.size(), all.size());
  const uint64_t compact_digest = LivePageDigest(&db);
  EXPECT_EQ(compact_digest, param.compact_digest)
      << std::hex << "0x" << compact_digest;
}

constexpr uint64_t kFixedLoad = 0x52123cec1a4b7bbeull;
constexpr uint64_t kFixedCompact = 0x3acdd14139bb3e9cull;
constexpr uint64_t kFixedDeepLoad = 0x47a4339cfe328e16ull;
constexpr uint64_t kFixedDeepCompact = 0xaa98c20fba55728bull;
constexpr uint64_t kCompressedLoad = 0xcd185069004b59eaull;
constexpr uint64_t kCompressedCompact = 0x908fd0c56a863c9dull;
constexpr uint64_t kCompressedDeepLoad = 0x57c7815a69f6de51ull;
constexpr uint64_t kCompressedDeepCompact = 0x518587cc6170d5bdull;

INSTANTIATE_TEST_SUITE_P(
    FormatsAndPools, BulkLoadGoldenTest,
    ::testing::Values(
        GoldenParam{"Fixed4096", false, 0, 0, 4096, kFixedLoad,
                    kFixedCompact},
        GoldenParam{"Fixed48", false, 0, 0, 48, kFixedLoad, kFixedCompact},
        GoldenParam{"FixedDeep4096", false, 16, 8, 4096, kFixedDeepLoad,
                    kFixedDeepCompact},
        GoldenParam{"FixedDeep48", false, 16, 8, 48, kFixedDeepLoad,
                    kFixedDeepCompact},
        GoldenParam{"Compressed4096", true, 0, 0, 4096, kCompressedLoad,
                    kCompressedCompact},
        GoldenParam{"Compressed48", true, 0, 0, 48, kCompressedLoad,
                    kCompressedCompact},
        GoldenParam{"CompressedDeep4096", true, 0, 8, 4096,
                    kCompressedDeepLoad, kCompressedDeepCompact},
        GoldenParam{"CompressedDeep48", true, 0, 8, 48, kCompressedDeepLoad,
                    kCompressedDeepCompact}),
    [](const ::testing::TestParamInfo<GoldenParam>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Write-path golden images: Insert and Delete leave the same logical pages
// ---------------------------------------------------------------------------

/// A leaf's entries (flags included) and a stab page's entries, whatever
/// the page's format.
Status AppendLeafEntries(const Page* page, std::vector<Element>* out) {
  return XrLeafAppend(page, out);
}
Status AppendStabEntries(const Page* page, std::vector<StabEntry>* out) {
  return XrStabAppend(page, out);
}

/// FNV-1a over the logical image of every live page, read back from the
/// file after a flush: page id, header fields, decoded leaf entries with
/// their flags, internal slots, stab entries and ps-directory entries.
/// Unused slot bytes are left out, so the digest pins what each page
/// holds, not what a writer left in its slack.
uint64_t LogicalPageDigest(TempDb* db) {
  EXPECT_OK(db->pool()->FlushAll());
  std::vector<PageId> free = db->pool()->FreeListSnapshot();
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  auto mix_u32 = [&mix](uint32_t v) { mix(&v, sizeof(v)); };
  Page page;
  for (PageId id = 0; id < db->disk()->num_pages(); ++id) {
    if (std::binary_search(free.begin(), free.end(), id)) continue;
    EXPECT_OK(db->disk()->ReadPage(id, page.data()));
    mix_u32(id);
    const uint32_t magic = *page.As<uint32_t>();
    if (magic == kXrLeafMagic) {
      mix(XrHeader(&page), sizeof(XrPageHeader));
      std::vector<Element> entries;
      EXPECT_OK(AppendLeafEntries(&page, &entries));
      for (const Element& e : entries) {
        for (uint32_t v : {e.start, e.end, uint32_t{e.level},
                           uint32_t{e.flags}, e.id}) {
          mix_u32(v);
        }
      }
    } else if (magic == kXrInternalMagic) {
      mix(XrHeader(&page), sizeof(XrPageHeader));
      mix(XrInternalSlots(&page),
          XrHeader(&page)->count * sizeof(XrInternalEntry));
    } else if (magic == kXrStabMagic) {
      mix(StabHeader(&page), sizeof(StabPageHeader));
      std::vector<StabEntry> entries;
      EXPECT_OK(AppendStabEntries(&page, &entries));
      for (const StabEntry& se : entries) {
        for (uint32_t v : {se.s, se.e, se.key, se.elem_id,
                           uint32_t{se.level}}) {
          mix_u32(v);
        }
      }
    } else if (magic == kXrPsDirMagic) {
      const auto* dh = page.As<PsDirHeader>();
      mix(dh, sizeof(PsDirHeader));
      mix(page.data() + sizeof(PsDirHeader), dh->count * sizeof(PsDirEntry));
    } else {
      mix(page.data(), kPageSize);
    }
  }
  return h;
}

/// One leaf of the tree as the write paths see it.
struct LeafShape {
  PageId id;
  bool compressed;
  std::vector<Element> entries;
  PageId parent;  ///< kInvalidPageId for a root leaf
  uint32_t slot;  ///< child slot within the parent
};

/// Every leaf in key order, read page by page from the root.
std::vector<LeafShape> LeafShapes(BufferPool* pool, PageId root) {
  std::vector<LeafShape> out;
  std::vector<std::pair<PageId, std::pair<PageId, uint32_t>>> stack{
      {root, {kInvalidPageId, 0}}};
  while (!stack.empty()) {
    auto [id, where] = stack.back();
    stack.pop_back();
    auto fetched = pool->FetchPage(id);
    EXPECT_TRUE(fetched.ok());
    if (!fetched.ok()) return out;
    PageGuard guard(pool, *fetched);
    const Page* page = *fetched;
    const XrPageHeader* hdr = XrHeader(page);
    if (hdr->is_leaf) {
      LeafShape leaf{id, hdr->format == kXrPageFormatCompressed, {},
                     where.first, where.second};
      EXPECT_OK(AppendLeafEntries(page, &leaf.entries));
      out.push_back(std::move(leaf));
      continue;
    }
    // Push right to left so the leftmost child pops first.
    for (uint32_t slot = hdr->count; slot > 0; --slot) {
      stack.push_back({XrInternalSlots(page)[slot - 1].child, {id, slot}});
    }
    stack.push_back({hdr->leftmost, {id, 0}});
  }
  return out;
}

size_t CountLeaves(const std::vector<LeafShape>& leaves, bool compressed) {
  return static_cast<size_t>(
      std::count_if(leaves.begin(), leaves.end(), [&](const LeafShape& l) {
        return l.compressed == compressed;
      }));
}

const LeafShape* FindLeaf(const std::vector<LeafShape>& leaves, PageId id) {
  for (const LeafShape& l : leaves) {
    if (l.id == id) return &l;
  }
  return nullptr;
}

struct WritePathParam {
  const char* name;
  bool compressed;
  // A draining row deletes all but kMinFill elements, not two fifths, so the
  // tree shrinks to a root leaf and its last root collapse happens above
  // two leaves. The flag sits in the padding after `compressed`, so the
  // parameter stays the 32-byte object that gtest prints beside each name.
  bool drain;
  uint32_t internal_capacity;
  // Logical digests after the insert phase and after the delete phase,
  // recorded by running this test on the build before leaf edits went
  // through one split and one write call.
  uint64_t insert_digest;
  uint64_t delete_digest;
};
static_assert(sizeof(WritePathParam) == 32);

class WritePathGoldenTest : public ::testing::TestWithParam<WritePathParam> {
};

TEST_P(WritePathGoldenTest, InsertAndDeleteLeaveThePinnedPages) {
  const WritePathParam& param = GetParam();
  constexpr uint32_t kLeafCap = 16;
  constexpr uint32_t kMinFill = kLeafCap / 2;
  ElementList all = RandomNestedElements(2303, 4000, 3);
  Random rng(7);
  // The inserts land in the second quarter of the key range, so on
  // compressed trees they split and decompress the leaves there and leave
  // the rest as bulk load packed it.
  ElementList loaded, held_out;
  for (size_t i = 0; i < all.size(); ++i) {
    const bool band = i >= all.size() / 4 && i < all.size() / 2;
    (band && rng.OneIn(3) ? held_out : loaded).push_back(all[i]);
  }
  for (size_t i = held_out.size(); i > 1; --i) {
    std::swap(held_out[i - 1], held_out[rng.Uniform(i)]);
  }

  TempDb db(4096);
  XrTreeOptions options;
  options.compressed_pages = param.compressed;
  options.leaf_capacity = kLeafCap;
  options.internal_capacity = param.internal_capacity;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(loaded));
  const std::vector<LeafShape> at_load = LeafShapes(db.pool(), tree.root());
  ASSERT_EQ(CountLeaves(at_load, !param.compressed), 0u);

  // Insert phase.
  for (const Element& e : held_out) ASSERT_OK(tree.Insert(e));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree.Height());
  EXPECT_GE(height, param.internal_capacity == 0 ? 2u : 4u);
  const std::vector<LeafShape> at_insert = LeafShapes(db.pool(), tree.root());
  if (param.compressed) {
    // Only a compressed split makes a compressed leaf, and only an in-place
    // decompression (or a split of a leaf it made) makes a fixed one.
    EXPECT_GT(CountLeaves(at_insert, true), CountLeaves(at_load, true));
    EXPECT_GT(CountLeaves(at_insert, false), 0u);
  } else {
    EXPECT_GT(at_insert.size(), at_load.size());  // fixed splits
  }
  const uint64_t insert_digest = LogicalPageDigest(&db);
  EXPECT_EQ(insert_digest, param.insert_digest)
      << std::hex << "0x" << insert_digest;

  // Delete phase. On compressed trees it opens with two targeted runs that
  // empty a leaf holding at most leaf_capacity entries to one below half
  // full, next to a compressed sibling holding more: that sibling must
  // then lend through the codec, its last entry from the left and its
  // first entry from the right. For the right, the leaf's left sibling is
  // first trimmed to half full, so it has none to spare.
  ElementList kept = all;
  auto erase_key = [&](Position key) {
    ASSERT_OK(tree.Delete(key));
    kept.erase(std::find_if(kept.begin(), kept.end(),
                            [&](const Element& e) { return e.start == key; }));
  };
  auto trim = [&](const LeafShape& leaf, size_t down_to) {
    for (size_t n = leaf.entries.size(); n > down_to; --n) {
      erase_key(leaf.entries[n - 1].start);
    }
  };
  if (param.compressed) {
    for (bool from_left : {true, false}) {
      const std::vector<LeafShape> leaves =
          LeafShapes(db.pool(), tree.root());
      auto fits = [&](const LeafShape& l) {
        return l.entries.size() >= kMinFill && l.entries.size() <= kLeafCap;
      };
      size_t pick = leaves.size();
      for (size_t i = 1; i + 1 < leaves.size() && pick == leaves.size();
           ++i) {
        const LeafShape& leaf = leaves[i];
        const LeafShape& lender = from_left ? leaves[i - 1] : leaves[i + 1];
        if (fits(leaf) && lender.compressed &&
            lender.entries.size() > kLeafCap &&
            lender.parent == leaf.parent &&
            (from_left || leaf.slot == 0 || fits(leaves[i - 1]))) {
          pick = i;
        }
      }
      ASSERT_LT(pick, leaves.size()) << "no compressed lender, from_left "
                                     << from_left;
      const LeafShape& leaf = leaves[pick];
      const LeafShape& lender =
          from_left ? leaves[pick - 1] : leaves[pick + 1];
      if (!from_left && leaf.slot > 0) trim(leaves[pick - 1], kMinFill);
      trim(leaf, kMinFill - 1);
      const std::vector<LeafShape> after = LeafShapes(db.pool(), tree.root());
      const LeafShape* lent = FindLeaf(after, lender.id);
      ASSERT_NE(lent, nullptr);
      EXPECT_TRUE(lent->compressed);
      std::vector<Element> rest = lender.entries;
      rest.erase(from_left ? rest.end() - 1 : rest.begin());
      ASSERT_EQ(lent->entries.size(), rest.size());
      for (size_t i = 0; i < rest.size(); ++i) {
        EXPECT_EQ(lent->entries[i].start, rest[i].start);
      }
    }
  }
  Random del_rng(2305);
  for (size_t i = kept.size(); i > 1; --i) {
    std::swap(kept[i - 1], kept[del_rng.Uniform(i)]);
  }
  const size_t deletes =
      param.drain ? kept.size() - kMinFill : kept.size() * 2 / 5;
  for (size_t i = 0; i < deletes; ++i) ASSERT_OK(tree.Delete(kept[i].start));
  kept.erase(kept.begin(), kept.begin() + static_cast<ptrdiff_t>(deletes));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_EQ(tree.size(), kept.size());
  if (param.drain) {
    ASSERT_OK_AND_ASSIGN(uint32_t drained, tree.Height());
    EXPECT_EQ(drained, 1u);
  }
  const std::vector<LeafShape> at_delete = LeafShapes(db.pool(), tree.root());
  // Only a merge frees a leaf; on compressed trees deletes split leaves
  // too, so count the leaves that went away rather than the total.
  size_t merged = 0;
  for (const LeafShape& l : at_insert) {
    if (FindLeaf(at_delete, l.id) == nullptr) ++merged;
  }
  EXPECT_GT(merged, 0u);
  const uint64_t delete_digest = LogicalPageDigest(&db);
  EXPECT_EQ(delete_digest, param.delete_digest)
      << std::hex << "0x" << delete_digest;
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndDepths, WritePathGoldenTest,
    ::testing::Values(
        WritePathParam{"Fixed", false, false, 0, 0x9db869e8afd8c06eull,
                       0x465ee1f8738dcdc1ull},
        WritePathParam{"FixedDeep", false, false, 4, 0x57de2c50b0985e10ull,
                       0x02ceeefb64529bf5ull},
        WritePathParam{"Compressed", true, false, 0, 0xf1cb10fc90bc97b3ull,
                       0x62a83e5c165f116full},
        WritePathParam{"CompressedDeep", true, false, 4, 0xf744b5729e6da43full,
                       0xc64c5edaf4ea8922ull},
        WritePathParam{"FixedDeepDrain", false, true, 4, 0x57de2c50b0985e10ull,
                       0x19bb414afa9eba86ull}),
    [](const ::testing::TestParamInfo<WritePathParam>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Corrupt entry counts: reads report Corruption, never a wrong answer
// ---------------------------------------------------------------------------

enum class Victim { kFixedLeaf, kInternal, kFixedStab };

class PageCountCorruptionTest : public ::testing::TestWithParam<Victim> {};

TEST_P(PageCountCorruptionTest, ReadsOfThePageReportCorruption) {
  const Victim victim = GetParam();
  ElementList elems = RandomNestedElements(91, 2000, 3);
  XrTreeOptions options;
  options.leaf_capacity = 32;
  TempDb db(4096);
  PageId root;
  PageId page_id;
  Position key;  // a start the page's leaf holds, or the stab entry's
  Position sd;   // a point whose ancestor probe reads the page
  {
    XrTree tree(db.pool(), kInvalidPageId, options);
    ASSERT_OK(tree.BulkLoad(elems));
    root = tree.root();
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(root));
    PageGuard root_page(db.pool(), raw);
    ASSERT_FALSE(XrHeader(raw)->is_leaf);
    if (victim == Victim::kFixedStab) {
      page_id = XrHeader(raw)->stab_head;
      ASSERT_NE(page_id, kInvalidPageId);
      ASSERT_OK_AND_ASSIGN(Page * stab, db.pool()->FetchPage(page_id));
      PageGuard stab_page(db.pool(), stab);
      // The chain's first entry heads its key's PSL, so a probe at sd
      // visits that key and reads this page.
      const StabEntry first = StabSlots(stab)[0];
      key = first.s;
      sd = first.s + 1;
      ASSERT_LT(sd, first.e);
    } else {
      // Height 2: the root's children are leaves.
      const PageId leaf_id = XrInternalSlots(raw)[0].child;
      ASSERT_OK_AND_ASSIGN(Page * leaf, db.pool()->FetchPage(leaf_id));
      PageGuard leaf_page(db.pool(), leaf);
      ASSERT_TRUE(XrHeader(leaf)->is_leaf);
      ASSERT_GE(XrHeader(leaf)->count, 2u);
      key = XrLeafSlots(leaf)[0].start;
      sd = key + 1;
      page_id = victim == Victim::kInternal ? root : leaf_id;
    }
  }
  {
    // Raise the count past the format's capacity; the flush stamps a valid
    // checksum over the corrupt header.
    ASSERT_OK_AND_ASSIGN(Page * raw, db.pool()->FetchPage(page_id));
    *(victim == Victim::kFixedStab ? &StabHeader(raw)->count
                                   : &XrHeader(raw)->count) = 100000;
    ASSERT_OK(db.pool()->UnpinPage(page_id, true));
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen(4096);
  XrTree tree(db.pool(), root, options);

  // Search, LowerBound and the leaf scan never read a stab page; they must
  // still answer correctly when only a stab page is corrupt.
  const bool descent_reads_it = victim != Victim::kFixedStab;
  Result<Element> found = tree.Search(key);
  if (descent_reads_it) {
    EXPECT_TRUE(found.status().IsCorruption()) << found.status().ToString();
  } else {
    ASSERT_OK(found.status());
    EXPECT_EQ(found->start, key);
  }
  ElementList scanned;
  Status scan = [&]() -> Status {
    XR_ASSIGN_OR_RETURN(XrIterator it, tree.Begin());
    while (it.Valid()) {
      scanned.push_back(it.Get());
      XR_RETURN_IF_ERROR(it.Next());
    }
    return Status::Ok();
  }();
  if (descent_reads_it) {
    EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
  } else {
    ASSERT_OK(scan);
    ElementList want = elems;
    StripFlags(&want);
    EXPECT_EQ(scanned, want);
  }
  Result<XrIterator> landed = tree.LowerBound(key);
  if (descent_reads_it) {
    EXPECT_TRUE(landed.status().IsCorruption())
        << landed.status().ToString();
  } else {
    ASSERT_OK(landed.status());
    ASSERT_TRUE(landed->Valid());
    EXPECT_EQ(landed->Get().start, key);
  }
  Result<ElementList> ancestors = tree.FindAncestors(sd);
  EXPECT_TRUE(ancestors.status().IsCorruption())
      << ancestors.status().ToString();
  Result<JoinOutput> joined = XrStackJoin(tree, tree);
  EXPECT_TRUE(joined.status().IsCorruption()) << joined.status().ToString();
  Status check = tree.CheckConsistency();
  EXPECT_TRUE(check.IsCorruption()) << check.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Pages, PageCountCorruptionTest,
    ::testing::Values(Victim::kFixedLeaf, Victim::kInternal,
                      Victim::kFixedStab),
    [](const ::testing::TestParamInfo<Victim>& info) {
      switch (info.param) {
        case Victim::kFixedLeaf:
          return std::string("FixedLeaf");
        case Victim::kInternal:
          return std::string("Internal");
        case Victim::kFixedStab:
          return std::string("FixedStab");
      }
      return std::string();
    });

// ---------------------------------------------------------------------------
// Deep nesting: multi-page stab chains and the ps directory
// ---------------------------------------------------------------------------

TEST(XrTreeTest, DeepNestingBuildsMultiPageStabLists) {
  TempDb db(512);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  Document doc = Generator::GenerateNested(/*nesting=*/600, /*chains=*/1,
                                           /*fanout=*/0);
  doc.EncodeRegions(1);
  ElementList elems = doc.ElementsWithTag("nest");
  ASSERT_EQ(elems.size(), 600u);
  ASSERT_OK(tree.BulkLoad(elems));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(StabStats stats, tree.ComputeStabStats());
  EXPECT_GT(stats.stab_entries, 0u);
  EXPECT_GT(stats.max_stab_pages_per_node, 1u);
  EXPECT_GT(stats.ps_dir_pages, 0u);

  // Queries through the directory remain exact.
  Random rng(13);
  for (int q = 0; q < 60; ++q) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    StripFlags(&got);
    ASSERT_EQ(got, BruteAncestors(elems, sd));
  }
}

TEST(XrTreeTest, DeepNestingSurvivesDeletions) {
  TempDb db(512);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  Document doc = Generator::GenerateNested(400, 1, 0);
  doc.EncodeRegions(1);
  ElementList elems = doc.ElementsWithTag("nest");
  ASSERT_OK(tree.BulkLoad(elems));
  // Delete every third element (keeps strict nesting of the remainder).
  ElementList remaining;
  for (size_t i = 0; i < elems.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_OK(tree.Delete(elems[i].start));
    } else {
      remaining.push_back(elems[i]);
    }
  }
  ASSERT_OK(tree.CheckConsistency());
  Random rng(17);
  for (int q = 0; q < 40; ++q) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    StripFlags(&got);
    ASSERT_EQ(got, BruteAncestors(remaining, sd));
  }
}

// ---------------------------------------------------------------------------
// Mutation property tests
// ---------------------------------------------------------------------------

struct FuzzParam {
  uint64_t seed;
  uint32_t n;
  uint32_t fanout;
  uint32_t max_children;  // tree shape: small = deep
};

class XrFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(XrFuzzTest, RandomInsertDeleteKeepsAllInvariants) {
  const FuzzParam p = GetParam();
  TempDb db(512);
  XrTreeOptions options;
  options.leaf_capacity = p.fanout;
  options.internal_capacity = p.fanout;
  XrTree tree(db.pool(), kInvalidPageId, options);

  ElementList universe = RandomNestedElements(p.seed, p.n, p.max_children);
  std::map<Position, Element> present;  // mirror, keyed by start
  Random rng(p.seed ^ 0xBEEF);

  // Alternate insert-heavy and delete-heavy phases.
  for (int op = 0; op < static_cast<int>(p.n * 3); ++op) {
    bool insert_phase = (op / 100) % 2 == 0;
    bool do_insert =
        present.empty() ||
        (insert_phase ? rng.Uniform(100) < 80 : rng.Uniform(100) < 20);
    if (do_insert && present.size() < universe.size()) {
      const Element& e = universe[rng.Uniform(universe.size())];
      if (present.count(e.start)) continue;
      ASSERT_OK(tree.Insert(e));
      present[e.start] = e;
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, rng.Uniform(present.size()));
      ASSERT_OK(tree.Delete(it->first));
      present.erase(it);
    }
    if (op % 61 == 60) ASSERT_OK(tree.CheckConsistency());
    if (op % 97 == 96) {
      // Differential ancestor query against the mirror.
      ElementList mirror_list;
      for (const auto& [k, v] : present) mirror_list.push_back(v);
      Position sd = static_cast<Position>(
          rng.UniformRange(1, universe.back().end + 2));
      ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
      StripFlags(&got);
      ASSERT_EQ(got, BruteAncestors(mirror_list, sd));
    }
  }
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(tree.size(), present.size());

  // Drain to empty.
  while (!present.empty()) {
    auto it = present.begin();
    ASSERT_OK(tree.Delete(it->first));
    present.erase(it);
    if (present.size() % 50 == 0) ASSERT_OK(tree.CheckConsistency());
  }
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(tree.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XrFuzzTest,
    ::testing::Values(FuzzParam{1, 150, 4, 4}, FuzzParam{2, 150, 4, 2},
                      FuzzParam{3, 150, 5, 8}, FuzzParam{4, 250, 8, 3},
                      FuzzParam{5, 250, 6, 2}, FuzzParam{6, 400, 16, 4},
                      FuzzParam{7, 120, 4, 1}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_fan" +
             std::to_string(info.param.fanout) + "_kids" +
             std::to_string(info.param.max_children);
    });

// ---------------------------------------------------------------------------
// Persistence & stats
// ---------------------------------------------------------------------------

TEST(XrTreeTest, PersistsAcrossReopen) {
  TempDb db;
  ElementList elems = RandomNestedElements(21, 800);
  PageId root;
  {
    XrTree tree(db.pool());
    ASSERT_OK(tree.BulkLoad(elems));
    root = tree.root();
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen();
  XrTree tree(db.pool(), root);
  ASSERT_OK_AND_ASSIGN(uint64_t n, tree.CountEntries());
  EXPECT_EQ(n, elems.size());
  ASSERT_OK(tree.CheckConsistency());
  Random rng(23);
  for (int q = 0; q < 50; ++q) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    StripFlags(&got);
    ASSERT_EQ(got, BruteAncestors(elems, sd));
  }
}

TEST(XrTreeTest, PersistsAfterMutationsAcrossReopen) {
  // Insert, delete, insert again — then reopen the database and verify the
  // stab lists, flags and (ps,pe) summaries all round-tripped through disk.
  TempDb db(512);
  ElementList elems = RandomNestedElements(61, 900, 2);
  PageId root;
  ElementList surviving;
  {
    XrTreeOptions options;
    options.leaf_capacity = 6;
    options.internal_capacity = 6;
    XrTree tree(db.pool(), kInvalidPageId, options);
    for (const Element& e : elems) ASSERT_OK(tree.Insert(e));
    for (size_t i = 0; i < elems.size(); i += 3) {
      ASSERT_OK(tree.Delete(elems[i].start));
    }
    for (size_t i = 0; i < elems.size(); i += 6) {
      ASSERT_OK(tree.Insert(elems[i]));
    }
    for (size_t i = 0; i < elems.size(); ++i) {
      if (i % 3 != 0 || i % 6 == 0) surviving.push_back(elems[i]);
    }
    ASSERT_OK(tree.CheckConsistency());
    root = tree.root();
    ASSERT_OK(db.pool()->FlushAll());
  }
  db.Reopen(512);
  XrTreeOptions options;
  options.leaf_capacity = 6;
  options.internal_capacity = 6;
  XrTree tree(db.pool(), root, options);
  ASSERT_OK_AND_ASSIGN(uint64_t n, tree.CountEntries());
  EXPECT_EQ(n, surviving.size());
  ASSERT_OK(tree.CheckConsistency());
  Random rng(62);
  for (int q = 0; q < 60; ++q) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    StripFlags(&got);
    ASSERT_EQ(got, BruteAncestors(surviving, sd));
  }
  // And the reopened tree keeps accepting mutations.
  ASSERT_OK(tree.Delete(surviving[0].start));
  ASSERT_OK(tree.CheckConsistency());
}

TEST(XrTreeTest, StabStatsBoundedByPaperAnalysis) {
  // §3.3: total stab entries never exceed the number of indexed elements,
  // and for realistic data stab pages are a small fraction of leaf pages.
  TempDb db(1024);
  XrTree tree(db.pool());
  ElementList elems = RandomNestedElements(31, 20000);
  ASSERT_OK(tree.BulkLoad(elems));
  ASSERT_OK_AND_ASSIGN(StabStats stats, tree.ComputeStabStats());
  EXPECT_LE(stats.stab_entries, elems.size());
  EXPECT_GT(stats.leaf_pages, 0u);
  EXPECT_LT(stats.stab_pages, stats.leaf_pages);
}

TEST(XrTreeTest, ScannedCounterTracksWork) {
  TempDb db;
  XrTree tree(db.pool());
  ElementList elems = RandomNestedElements(41, 3000);
  ASSERT_OK(tree.BulkLoad(elems));
  uint64_t scanned = 0;
  ASSERT_OK_AND_ASSIGN(ElementList anc,
                       tree.FindAncestors(elems[1500].start + 1, &scanned));
  // FindAncestors examines the ancestors, one terminator per stab-list
  // probe, and the landing leaf's prefix (S2 scans from the first element
  // of the leaf) — bounded by a couple of pages, far less than N.
  EXPECT_GE(scanned, anc.size());
  EXPECT_LT(scanned, 2 * tree.leaf_capacity());
}


// ---------------------------------------------------------------------------
// Probe cursor: the XR-stack's finger over FindAncestorsAbove
// ---------------------------------------------------------------------------

/// One probe through `cursor` and through the one-shot path: the answer,
/// next_start and the scanned increment must be identical. Returns the
/// answer in *answer when non-null.
void ExpectCursorMatchesOneShot(const XrTree& tree, XrProbeCursor* cursor,
                                Position sd, Position min_start,
                                ElementList* answer = nullptr) {
  ElementList got;
  uint64_t got_scanned = 0;
  Position got_next = 0;
  ASSERT_OK(cursor->FindAncestorsAbove(sd, min_start, &got, &got_scanned,
                                       &got_next));
  uint64_t want_scanned = 0;
  Position want_next = 0;
  ASSERT_OK_AND_ASSIGN(
      ElementList want,
      tree.FindAncestorsAbove(sd, min_start, &want_scanned, &want_next));
  ASSERT_EQ(got, want) << "sd=" << sd << " min_start=" << min_start;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << "sd=" << sd;
  }
  ASSERT_EQ(got_next, want_next) << "sd=" << sd << " min_start=" << min_start;
  ASSERT_EQ(got_scanned, want_scanned)
      << "sd=" << sd << " min_start=" << min_start;
  if (answer != nullptr) *answer = std::move(got);
}

/// Replays the XR-stack's probe sequence over `probes` (document order):
/// the stack pops closed regions and each probe is floored at
/// max(stack top, previous probe - 1), or at 0 without the floor
/// (JoinOptions::disable_probe_floor). Every answer must equal the
/// brute-force ancestors in `indexed` (the tree's elements) above the
/// floor: the cursor and the one-shot path share the floored key walk, so
/// their agreement alone would not catch a wrong prune.
void ReplayJoinProbes(const XrTree& tree, const ElementList& indexed,
                      XrProbeCursor* cursor, const ElementList& probes,
                      bool probe_floor) {
  ElementList stack;
  Position last_probe = 0;
  for (const Element& d : probes) {
    while (!stack.empty() && stack.back().end < d.start) stack.pop_back();
    Position stack_floor = stack.empty() ? 0 : stack.back().start;
    Position min_start =
        probe_floor
            ? std::max(stack_floor, last_probe > 0 ? last_probe - 1 : 0)
            : 0;
    ElementList ad;
    ASSERT_NO_FATAL_FAILURE(
        ExpectCursorMatchesOneShot(tree, cursor, d.start, min_start, &ad));
    ElementList want;
    for (const Element& e : BruteAncestors(indexed, d.start)) {
      if (e.start > min_start) want.push_back(e);
    }
    ASSERT_EQ(ad, want) << "sd=" << d.start << " min_start=" << min_start;
    for (const Element& a : ad) {
      if (a.start > stack_floor) stack.push_back(a);
    }
    last_probe = d.start;
  }
}

struct CursorShape {
  uint32_t fanout;  // 0 = full pages
  bool compressed;
  bool ps_dir;
};

class ProbeCursorDifferentialTest
    : public ::testing::TestWithParam<CursorShape> {};

TEST_P(ProbeCursorDifferentialTest, CursorMatchesOneShotProbes) {
  const CursorShape p = GetParam();
  // A bushy random document followed by one deep chain, whose ancestors
  // pile up in a few nodes' stab lists (multi-page chains at fanout 4).
  ElementList universe = RandomNestedElements(61, 3000, 3);
  Document doc = Generator::GenerateNested(/*nesting=*/1200, /*chains=*/1,
                                           /*fanout=*/0);
  doc.EncodeRegions(1);
  const Position shift = universe.front().end + 10;
  for (Element e : doc.ElementsWithTag("nest")) {
    e.start += shift;
    e.end += shift;
    universe.push_back(e);
  }
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }

  TempDb db(2048);
  XrTreeOptions options;
  options.leaf_capacity = p.fanout;
  options.internal_capacity = p.fanout;
  options.compressed_pages = p.compressed;
  options.disable_ps_directory = !p.ps_dir;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(a_list));
  ASSERT_OK_AND_ASSIGN(uint32_t height, tree.Height());
  EXPECT_GE(height, 2u);
  if (p.fanout != 0 && !p.compressed) {
    // Fixed pages at fanout 4 put floors below keys on more than one
    // internal level (compressed leaves pack more, so that tree is lower).
    EXPECT_GE(height, 3u);
    ASSERT_OK_AND_ASSIGN(StabStats stats, tree.ComputeStabStats());
    EXPECT_GT(stats.max_stab_pages_per_node, 1u);
  }

  // The join's probes, with and without the §5.2 floor, and a self-join
  // (probe points are the indexed starts themselves).
  XrProbeCursor cursor(&tree);
  ASSERT_NO_FATAL_FAILURE(
      ReplayJoinProbes(tree, a_list, &cursor, d_list, true));
  EXPECT_LT(cursor.refills(), d_list.size() / 2);
  XrProbeCursor unfloored(&tree);
  ASSERT_NO_FATAL_FAILURE(
      ReplayJoinProbes(tree, a_list, &unfloored, d_list, false));
  XrProbeCursor self(&tree);
  ASSERT_NO_FATAL_FAILURE(
      ReplayJoinProbes(tree, a_list, &self, a_list, true));

  // Non-monotone jumps, including points past the last element and floors
  // at an ancestor's start: the cursor re-descends.
  Random rng(62);
  const Position max_pos = universe.back().end + 5;
  for (int q = 0; q < 400; ++q) {
    Position sd = static_cast<Position>(rng.UniformRange(1, max_pos));
    Position min_start = 0;
    switch (rng.Uniform(3)) {
      case 0:
        break;
      case 1:
        min_start = sd / 2;
        break;
      default: {
        ElementList anc = BruteAncestors(a_list, sd);
        if (!anc.empty()) min_start = anc[rng.Uniform(anc.size())].start;
      }
    }
    ElementList got;
    ASSERT_NO_FATAL_FAILURE(
        ExpectCursorMatchesOneShot(tree, &cursor, sd, min_start, &got));
    ElementList want;
    for (const Element& e : BruteAncestors(a_list, sd)) {
      if (e.start > min_start) want.push_back(e);
    }
    ASSERT_EQ(got, want) << "sd=" << sd << " min_start=" << min_start;
  }

  // Nothing wrote the tree, so no probe fell back, and no cursor holds a
  // pin between probes.
  EXPECT_EQ(cursor.fallbacks(), 0u);
  EXPECT_EQ(unfloored.fallbacks(), 0u);
  EXPECT_EQ(self.fallbacks(), 0u);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProbeCursorDifferentialTest,
    ::testing::Values(CursorShape{4, false, true}, CursorShape{4, false, false},
                      CursorShape{4, true, true}, CursorShape{4, true, false},
                      CursorShape{0, false, true}, CursorShape{0, false, false},
                      CursorShape{0, true, true}, CursorShape{0, true, false}),
    [](const ::testing::TestParamInfo<CursorShape>& info) {
      return std::string(info.param.fanout == 0 ? "full" : "fan4") +
             (info.param.compressed ? "_compressed" : "_fixed") +
             (info.param.ps_dir ? "_psdir" : "_nopsdir");
    });

// One cursor across writes: each probe after an Insert, Delete, root split
// or Compact must see the write, and the cursor never holds a pin.
TEST(ProbeCursorTest, ProbesAfterWritesSeeTheWrites) {
  TempDb db(1024);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  // Scaled positions leave room to insert an element between any element
  // and its children.
  ElementList elems = RandomNestedElements(71, 300, 3);
  for (Element& e : elems) {
    e.start *= 4;
    e.end *= 4;
  }
  ASSERT_OK(tree.BulkLoad(elems));
  XrProbeCursor cursor(&tree);
  auto probe = [&](Position sd, Position min_start, ElementList* answer) {
    ExpectCursorMatchesOneShot(tree, &cursor, sd, min_start, answer);
    EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  };
  auto contains = [](const ElementList& list, Position start) {
    return std::any_of(list.begin(), list.end(), [&](const Element& e) {
      return e.start == start;
    });
  };

  // An element x with a child c; y is inserted between them, enclosing the
  // next probe point c.start + 1.
  size_t xi = 1;
  while (xi + 1 < elems.size() && !(elems[xi + 1].start < elems[xi].end)) {
    ++xi;
  }
  ASSERT_LT(xi + 1, elems.size());
  const Element x = elems[xi];
  const Element c = elems[xi + 1];
  ASSERT_LT(c.end, x.end);
  const Element y(x.start + 1, x.end - 1, x.level, 999999);
  ElementList got;
  ASSERT_NO_FATAL_FAILURE(probe(c.start - 1, 0, &got));
  EXPECT_FALSE(contains(got, y.start));
  uint64_t refills = cursor.refills();
  ASSERT_OK(tree.Insert(y));
  ASSERT_NO_FATAL_FAILURE(probe(c.start + 1, 0, &got));
  EXPECT_TRUE(contains(got, y.start));
  EXPECT_TRUE(contains(got, x.start));
  EXPECT_GT(cursor.refills(), refills);
  ASSERT_OK(tree.Delete(y.start));
  ASSERT_NO_FATAL_FAILURE(probe(c.start + 1, 0, &got));
  EXPECT_FALSE(contains(got, y.start));
  EXPECT_TRUE(contains(got, x.start));

  // Inserts past the end grow the tree; probe after every one.
  ASSERT_OK_AND_ASSIGN(uint32_t height0, tree.Height());
  ElementList more = RandomNestedElements(72, 400, 2);
  const Position shift = elems.front().end + 8;
  Random rng(73);
  ElementList present = elems;
  for (Element e : more) {
    e.start = e.start * 4 + shift;
    e.end = e.end * 4 + shift;
    ASSERT_OK(tree.Insert(e));
    present.push_back(e);
    Position sd = static_cast<Position>(rng.UniformRange(1, e.start + 2));
    ASSERT_NO_FATAL_FAILURE(probe(sd, rng.Uniform(2) == 0 ? 0 : sd / 2,
                                  nullptr));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t height1, tree.Height());
  EXPECT_GT(height1, height0);

  // Compact rebuilds the tree and frees every old page.
  ASSERT_NO_FATAL_FAILURE(probe(present.back().start + 1, 0, nullptr));
  ASSERT_OK(tree.Compact());
  ASSERT_OK(tree.CheckConsistency());
  for (int q = 0; q < 200; ++q) {
    Position sd = static_cast<Position>(
        rng.UniformRange(1, present.back().end + 2));
    ASSERT_NO_FATAL_FAILURE(probe(sd, 0, &got));
    StripFlags(&got);
    ASSERT_EQ(got, BruteAncestors(Sorted(present), sd));
  }
  // Single-threaded: no refill ever raced a writer.
  EXPECT_EQ(cursor.fallbacks(), 0u);
}

// Move-assigning another tree into the cursor's tree replaces the whole
// index; the cursor's copies of the old tree must not answer the next
// probe.
TEST(ProbeCursorTest, MoveAssignedTreeInvalidatesCursor) {
  TempDb db;
  XrTree a(db.pool());
  XrTree b(db.pool());
  ASSERT_OK(a.Insert(Element(10, 100)));
  ASSERT_OK(b.Insert(Element(20, 90)));
  XrProbeCursor cursor(&a);
  ElementList got;
  ASSERT_OK(cursor.FindAncestorsAbove(51, 0, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].start, 10u);

  a = std::move(b);
  ASSERT_OK(cursor.FindAncestorsAbove(51, 0, &got));
  ASSERT_OK_AND_ASSIGN(ElementList one_shot, a.FindAncestorsAbove(51, 0));
  ASSERT_EQ(one_shot.size(), 1u);
  EXPECT_EQ(one_shot[0].start, 20u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].start, 20u);
}

}  // namespace
}  // namespace xrtree
