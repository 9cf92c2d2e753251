#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "join/bplus_join.h"
#include "join/element_source.h"
#include "join/mpmgjn.h"
#include "join/nested_loop.h"
#include "join/parallel_join.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/selectivity.h"
#include "xml/generator.h"

namespace xrtree {
namespace {

std::vector<JoinPair> Canonical(std::vector<JoinPair> pairs) {
  for (JoinPair& p : pairs) {
    p.ancestor.flags = 0;
    p.descendant.flags = 0;
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Derives two joinable element sets (odd/even split by position of tag
/// chains) from a random nested universe: A = elements at even depth,
/// D = elements at odd depth. Produces rich overlap.
void SplitByLevel(const ElementList& universe, ElementList* a,
                  ElementList* d) {
  for (const Element& e : universe) {
    if (e.level % 2 == 0) {
      a->push_back(e);
    } else {
      d->push_back(e);
    }
  }
}

struct JoinParam {
  uint64_t seed;
  uint32_t n;
  uint32_t max_children;
};

class JoinEquivalenceTest : public ::testing::TestWithParam<JoinParam> {};

TEST_P(JoinEquivalenceTest, AllAlgorithmsAgreeWithOracle) {
  const JoinParam p = GetParam();
  ElementList universe = RandomNestedElements(p.seed, p.n, p.max_children);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  ASSERT_FALSE(a_list.empty());
  ASSERT_FALSE(d_list.empty());

  TempDb db(512);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));

  JoinOutput oracle = NestedLoopJoin(a_list, d_list);
  auto want = Canonical(oracle.pairs);

  ASSERT_OK_AND_ASSIGN(JoinOutput stack_out,
                       StackTreeDescJoin(a_set.file(), d_set.file()));
  EXPECT_EQ(Canonical(stack_out.pairs), want);
  EXPECT_EQ(stack_out.stats.output_pairs, want.size());

  JoinOutput vec_out = StackTreeDescJoinVectors(a_list, d_list);
  EXPECT_EQ(Canonical(vec_out.pairs), want);

  ASSERT_OK_AND_ASSIGN(JoinOutput bplus_out,
                       BPlusJoin(a_set.btree(), d_set.btree()));
  EXPECT_EQ(Canonical(bplus_out.pairs), want);

  ASSERT_OK_AND_ASSIGN(JoinOutput xr_out,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_EQ(Canonical(xr_out.pairs), want);

  ASSERT_OK_AND_ASSIGN(JoinOutput mp_out,
                       MpmgjnJoin(a_set.file(), d_set.file()));
  EXPECT_EQ(Canonical(mp_out.pairs), want);
  JoinOutput mpv_out = MpmgjnJoinVectors(a_list, d_list);
  EXPECT_EQ(Canonical(mpv_out.pairs), want);
  // MPMGJN re-scans descendant ranges under nested ancestors: never
  // cheaper than the stack-based merge on the same data.
  EXPECT_GE(mp_out.stats.elements_scanned + 2,
            std::min(stack_out.stats.elements_scanned,
                     a_list.size() + d_list.size()));

  // The scan counters must reflect the skipping hierarchy: B+ never scans
  // more than the full merge, and XR-stack stays within a small overhead
  // of it (stab-list probe terminators) even when nothing is skippable.
  EXPECT_LE(bplus_out.stats.elements_scanned,
            stack_out.stats.elements_scanned + 2);
  // Randomly interleaved sets with ~100 % match rate are the worst case
  // for XR-stack (a FindAncestors probe per descendant, each charging a
  // terminating stab-entry miss); paper-shaped workloads probe far less.
  EXPECT_LE(xr_out.stats.elements_scanned,
            2 * stack_out.stats.elements_scanned + 32);
}

TEST_P(JoinEquivalenceTest, ParentChildVariantsAgree) {
  const JoinParam p = GetParam();
  ElementList universe = RandomNestedElements(p.seed ^ 0xF00D, p.n,
                                              p.max_children);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);

  TempDb db(512);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));

  JoinOptions pc;
  pc.parent_child = true;
  auto want = Canonical(NestedLoopJoin(a_list, d_list, pc).pairs);

  ASSERT_OK_AND_ASSIGN(JoinOutput stack_out,
                       StackTreeDescJoin(a_set.file(), d_set.file(), pc));
  EXPECT_EQ(Canonical(stack_out.pairs), want);
  ASSERT_OK_AND_ASSIGN(JoinOutput bplus_out,
                       BPlusJoin(a_set.btree(), d_set.btree(), pc));
  EXPECT_EQ(Canonical(bplus_out.pairs), want);
  ASSERT_OK_AND_ASSIGN(JoinOutput xr_out,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree(), pc));
  EXPECT_EQ(Canonical(xr_out.pairs), want);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JoinEquivalenceTest,
    ::testing::Values(JoinParam{1, 200, 4}, JoinParam{2, 200, 2},
                      JoinParam{3, 500, 8}, JoinParam{4, 500, 3},
                      JoinParam{5, 1000, 2}, JoinParam{6, 1500, 6},
                      JoinParam{7, 80, 1}, JoinParam{8, 2500, 4}),
    [](const ::testing::TestParamInfo<JoinParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_kids" +
             std::to_string(info.param.max_children);
    });

TEST(JoinTest, EmptyInputs) {
  TempDb db;
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build({}));
  ASSERT_OK(d_set.Build({{1, 10, 0}}));
  ASSERT_OK_AND_ASSIGN(JoinOutput out1,
                       StackTreeDescJoin(a_set.file(), d_set.file()));
  EXPECT_TRUE(out1.pairs.empty());
  ASSERT_OK_AND_ASSIGN(JoinOutput out2,
                       BPlusJoin(a_set.btree(), d_set.btree()));
  EXPECT_TRUE(out2.pairs.empty());
  ASSERT_OK_AND_ASSIGN(JoinOutput out3,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_TRUE(out3.pairs.empty());
}

TEST(JoinTest, DisjointSetsProduceNothing) {
  ElementList a_list = {{1, 10, 0}, {2, 5, 1}};
  ElementList d_list = {{100, 110, 0}, {101, 105, 1}};
  TempDb db;
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));
  ASSERT_OK_AND_ASSIGN(JoinOutput out,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_TRUE(out.pairs.empty());
  ASSERT_OK_AND_ASSIGN(JoinOutput out2,
                       BPlusJoin(a_set.btree(), d_set.btree()));
  EXPECT_TRUE(out2.pairs.empty());
}

std::unique_ptr<XrTree> SmallFanoutTree(BufferPool* pool,
                                        const ElementList& elements) {
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  auto tree = std::make_unique<XrTree>(pool, kInvalidPageId, options);
  XR_CHECK_OK(tree->BulkLoad(elements));
  return tree;
}

TEST(JoinTest, CountOnlyModeSkipsMaterialization) {
  // Count-only emission adds the stack size per descendant instead of
  // looping over the pairs; it must count exactly the pairs the
  // materializing join returns and scan the same elements, serially and
  // in every range worker, for both join axes.
  ElementList universe = RandomNestedElements(77, 600);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  for (uint32_t threads : {1u, 2u, 4u}) {
    if (threads > 1) {
      ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, threads));
      ASSERT_GT(ranges.size(), 1u);
    }
    for (bool parent_child : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (parent_child ? " parent-child" : " ancestor-descendant"));
      JoinOptions options;
      options.num_threads = threads;
      options.parent_child = parent_child;
      auto join = [&](const JoinOptions& o) {
        return threads == 1 ? XrStackJoin(*a_tree, *d_tree, o)
                            : ParallelXrStackJoin(*a_tree, *d_tree, o);
      };
      ASSERT_OK_AND_ASSIGN(JoinOutput full, join(options));
      EXPECT_FALSE(full.pairs.empty());
      options.materialize = false;
      ASSERT_OK_AND_ASSIGN(JoinOutput counted, join(options));
      EXPECT_TRUE(counted.pairs.empty());
      EXPECT_EQ(counted.stats.output_pairs, full.pairs.size());
      EXPECT_EQ(counted.stats.elements_scanned, full.stats.elements_scanned);
    }
  }
}

TEST(JoinTest, PaperExampleEmployeeName) {
  // The motivating query of §1 on the Fig. 1 document: emp // name.
  ASSERT_OK_AND_ASSIGN(Dataset ds, MakeDepartmentDataset(4000));
  ASSERT_TRUE(IsStrictlyNested(ds.ancestors));
  ASSERT_TRUE(IsStrictlyNested(ds.descendants));
  TempDb db(512);
  StoredElementSet a_set(db.pool(), "employee");
  StoredElementSet d_set(db.pool(), "name");
  ASSERT_OK(a_set.Build(ds.ancestors));
  ASSERT_OK(d_set.Build(ds.descendants));
  auto want = Canonical(NestedLoopJoin(ds.ancestors, ds.descendants).pairs);
  ASSERT_OK_AND_ASSIGN(JoinOutput xr,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_EQ(Canonical(xr.pairs), want);
  EXPECT_FALSE(want.empty());
}

TEST(JoinTest, XrStackSkipsUnmatchedAncestors) {
  // One matching region among many cold ancestors: XR-stack should scan
  // far fewer elements than the no-index merge.
  ElementList a_list, d_list;
  Position p = 1;
  for (int i = 0; i < 5000; ++i) {
    a_list.push_back(Element(p, p + 1, 1));
    p += 3;
  }
  a_list.push_back(Element(p, p + 100, 1));
  for (Position q = p + 1; q < p + 50; q += 2) {
    d_list.push_back(Element(q, q + 1, 2));
  }
  TempDb db(512);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));
  ASSERT_OK_AND_ASSIGN(JoinOutput stack_out,
                       StackTreeDescJoin(a_set.file(), d_set.file()));
  ASSERT_OK_AND_ASSIGN(JoinOutput xr_out,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_EQ(Canonical(xr_out.pairs), Canonical(stack_out.pairs));
  EXPECT_EQ(xr_out.stats.output_pairs, 25u);
  EXPECT_LT(xr_out.stats.elements_scanned,
            stack_out.stats.elements_scanned / 5);
}

TEST(JoinTest, BPlusSkipsUnmatchedDescendants) {
  // One ancestor covering few descendants among many cold descendants.
  ElementList a_list = {{500000, 500100, 1}};
  ElementList d_list;
  Position p = 1;
  for (int i = 0; i < 5000; ++i) {
    d_list.push_back(Element(p, p + 1, 2));
    p += 3;
  }
  for (Position q = 500001; q < 500050; q += 2) {
    d_list.push_back(Element(q, q + 1, 2));
  }
  TempDb db(512);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));
  ASSERT_OK_AND_ASSIGN(JoinOutput stack_out,
                       StackTreeDescJoin(a_set.file(), d_set.file()));
  ASSERT_OK_AND_ASSIGN(JoinOutput bplus_out,
                       BPlusJoin(a_set.btree(), d_set.btree()));
  EXPECT_EQ(Canonical(bplus_out.pairs), Canonical(stack_out.pairs));
  EXPECT_LT(bplus_out.stats.elements_scanned,
            stack_out.stats.elements_scanned / 5);
}

// Anc_Des_B+ skips by probing: every skip is one root-to-leaf descent
// (Chien et al.), which is the page I/O Fig. 8 charges it. On one fixed
// corpus and a small cold pool this pins the join's pool fetches, misses
// and scanned elements, with XR-stack's scanned count on the same sets.
TEST(AncDesBPlusGoldenTest, ProbeFetchesMissesAndScansArePinned) {
  ASSERT_OK_AND_ASSIGN(Dataset ds, MakeDepartmentDataset(20000));
  DerivedWorkload w =
      MakeAncestorSelectivity(ds.ancestors, ds.descendants, 0.05, 0.99);
  TempDb db(4096);
  BTreeOptions b_options;
  b_options.leaf_capacity = 16;
  b_options.internal_capacity = 8;
  XrTreeOptions x_options;
  x_options.leaf_capacity = 16;
  x_options.internal_capacity = 8;
  PageId roots[4];
  {
    BTree a(db.pool(), kInvalidPageId, b_options);
    BTree d(db.pool(), kInvalidPageId, b_options);
    XrTree xa(db.pool(), kInvalidPageId, x_options);
    XrTree xd(db.pool(), kInvalidPageId, x_options);
    ASSERT_OK(a.BulkLoad(w.ancestors));
    ASSERT_OK(d.BulkLoad(w.descendants));
    ASSERT_OK(xa.BulkLoad(w.ancestors));
    ASSERT_OK(xd.BulkLoad(w.descendants));
    roots[0] = a.root();
    roots[1] = d.root();
    roots[2] = xa.root();
    roots[3] = xd.root();
  }
  db.Reopen(16);
  BTree a(db.pool(), roots[0], b_options);
  BTree d(db.pool(), roots[1], b_options);
  XrTree xa(db.pool(), roots[2], x_options);
  XrTree xd(db.pool(), roots[3], x_options);

  const IoStats before = db.pool()->stats();
  ASSERT_OK_AND_ASSIGN(JoinOutput bplus, BPlusJoin(a, d));
  const IoStats delta = db.pool()->stats() - before;
  ASSERT_OK_AND_ASSIGN(JoinOutput xr, XrStackJoin(xa, xd));
  EXPECT_EQ(bplus.stats.output_pairs, xr.stats.output_pairs);

  EXPECT_EQ(delta.buffer_hits + delta.buffer_misses, 851u);
  EXPECT_EQ(delta.buffer_misses, 207u);
  EXPECT_EQ(bplus.stats.elements_scanned, 994u);
  EXPECT_EQ(xr.stats.elements_scanned, 917u);
}

TEST(JoinTest, MultiDocumentCorpusNeverJoinsAcrossDocuments) {
  // Two copies of the same document in one corpus: every pair must stay
  // within one document's position range (condition (1) of §2.2, enforced
  // structurally by the corpus's disjoint base offsets).
  Corpus corpus;
  for (int i = 0; i < 2; ++i) {
    GeneratorOptions options;
    options.target_elements = 800;
    corpus.AddDocument(
        Generator::Generate(Dtd::Department(), options).value());
  }
  ElementList emps = corpus.ElementsWithTag("employee");
  ElementList names = corpus.ElementsWithTag("name");
  TempDb db(512);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(emps));
  ASSERT_OK(d_set.Build(names));
  ASSERT_OK_AND_ASSIGN(JoinOutput out,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  EXPECT_FALSE(out.pairs.empty());
  for (const JoinPair& p : out.pairs) {
    EXPECT_EQ(corpus.DocOf(p.ancestor.start),
              corpus.DocOf(p.descendant.start));
  }
  auto want = Canonical(NestedLoopJoin(emps, names).pairs);
  EXPECT_EQ(Canonical(out.pairs), want);
}

// ---------------------------------------------------------------------------
// Range-partitioned parallel XR-stack
// ---------------------------------------------------------------------------

/// Builds a deliberately deep XR-tree (fanout 4) so even small element sets
/// offer internal separator keys for partitioning.
TEST(ParallelJoinTest, RangeWorkersPartitionPairsExactly) {
  // Each pair must be emitted by exactly one range worker: the per-range
  // outputs are disjoint and their union is the serial output.
  ElementList universe = RandomNestedElements(21, 900, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);

  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, 4));
  ASSERT_GT(ranges.size(), 1u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, kNilPosition);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);  // contiguous cover
  }

  std::vector<JoinPair> merged;
  for (auto [lo, hi] : ranges) {
    ASSERT_OK_AND_ASSIGN(JoinOutput part,
                         XrStackJoinRange(*a_tree, *d_tree, lo, hi));
    for (const JoinPair& p : part.pairs) {
      // Ownership: the worker emits exactly the pairs whose ancestor
      // starts inside its range — including pairs whose descendant lies
      // beyond `hi` under a spanning ancestor.
      EXPECT_GE(p.ancestor.start, lo);
      EXPECT_LT(p.ancestor.start, hi);
      merged.push_back(p);
    }
  }
  EXPECT_EQ(Canonical(merged), Canonical(serial.pairs));
  EXPECT_EQ(merged.size(), serial.pairs.size());  // no duplicate emission
}

TEST(ParallelJoinTest, SpanningAncestorEmittedOnceWithAllDescendants) {
  // One ancestor covers the whole document (so it spans every partition
  // boundary); its pairs must all come from the worker owning its start.
  ElementList a_list, d_list;
  a_list.push_back(Element(1, 100000, 0));  // spans everything
  Position p = 10;
  for (int i = 0; i < 200; ++i) {
    a_list.push_back(Element(p, p + 6, 1));
    d_list.push_back(Element(p + 2, p + 3, 2));
    p += 10;
  }
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);

  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  // Every descendant joins the spanning root and its local ancestor.
  EXPECT_EQ(serial.stats.output_pairs, 2 * d_list.size());

  JoinOptions options;
  options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(par.pairs, serial.pairs);  // byte-identical, order included
  EXPECT_EQ(par.stats.output_pairs, serial.stats.output_pairs);

  // The spanning ancestor's pairs all come from the first range's worker.
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, 4));
  ASSERT_GT(ranges.size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      JoinOutput first,
      XrStackJoinRange(*a_tree, *d_tree, ranges[0].first, ranges[0].second));
  uint64_t spanning_pairs = 0;
  for (const JoinPair& pr : first.pairs) {
    if (pr.ancestor.start == 1) ++spanning_pairs;
  }
  EXPECT_EQ(spanning_pairs, d_list.size());
}

TEST(ParallelJoinTest, EmptyPartitionsAreHarmless) {
  // All ancestors cluster at low positions; ranges to the right of the
  // cluster own nothing and must emit nothing.
  ElementList a_list, d_list;
  for (Position p = 1; p < 300; p += 4) {
    a_list.push_back(Element(p, p + 3, 1));
    d_list.push_back(Element(p + 1, p + 2, 2));  // strictly inside
  }
  for (Position p = 1000; p < 90000; p += 7) {
    d_list.push_back(Element(p, p + 1, 2));  // no ancestor covers these
  }
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  ASSERT_FALSE(serial.pairs.empty());

  // A range that owns no ancestors joins nothing.
  ASSERT_OK_AND_ASSIGN(JoinOutput empty,
                       XrStackJoinRange(*a_tree, *d_tree, 50000, 60000));
  EXPECT_TRUE(empty.pairs.empty());
  EXPECT_EQ(empty.stats.output_pairs, 0u);

  JoinOptions options;
  options.num_threads = 6;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(par.pairs, serial.pairs);
}

TEST(ParallelJoinTest, MoreThreadsThanAncestors) {
  ElementList a_list, d_list;
  for (Position p = 10; p < 60; p += 10) a_list.push_back(Element(p, p + 5, 1));
  for (Position p = 1; p < 70; p += 2) d_list.push_back(Element(p, p + 1, 2));
  TempDb db;
  auto a_tree = SmallFanoutTree(db.pool(), a_list);  // 5 ancestors
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  JoinOptions options;
  options.num_threads = 64;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(par.pairs, serial.pairs);
  EXPECT_EQ(par.stats.output_pairs, serial.stats.output_pairs);
}

struct ParallelParam {
  uint64_t seed;
  uint32_t n;
  uint32_t max_children;
  uint32_t threads;
  uint32_t prefetch;
};

class ParallelEquivalenceTest : public ::testing::TestWithParam<ParallelParam> {
};

TEST_P(ParallelEquivalenceTest, OutputIsByteIdenticalToSerial) {
  const ParallelParam p = GetParam();
  ElementList universe = RandomNestedElements(p.seed, p.n, p.max_children);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  ASSERT_FALSE(a_list.empty());
  ASSERT_FALSE(d_list.empty());
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);

  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  JoinOptions options;
  options.num_threads = p.threads;
  options.prefetch_depth = p.prefetch;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  db.pool()->WaitForPrefetchIdle();
  // Byte-identical: same pairs in the same emission order.
  EXPECT_EQ(par.pairs, serial.pairs);
  EXPECT_EQ(par.stats.output_pairs, serial.stats.output_pairs);
  // Static trees: every probe is answered by the cursors, none by the
  // one-shot fallback.
  if (serial.stats.output_pairs > 0) {
    EXPECT_GT(serial.stats.probe_refills, 0u);
  }
  EXPECT_EQ(serial.stats.probe_fallbacks, 0u);
  EXPECT_EQ(par.stats.probe_fallbacks, 0u);

  // Parent-child variant through the same partitioning.
  JoinOptions pc = options;
  pc.parent_child = true;
  ASSERT_OK_AND_ASSIGN(JoinOutput serial_pc,
                       XrStackJoin(*a_tree, *d_tree, pc));
  ASSERT_OK_AND_ASSIGN(JoinOutput par_pc,
                       ParallelXrStackJoin(*a_tree, *d_tree, pc));
  db.pool()->WaitForPrefetchIdle();
  EXPECT_EQ(par_pc.pairs, serial_pc.pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEquivalenceTest,
    ::testing::Values(ParallelParam{11, 400, 4, 2, 0},
                      ParallelParam{12, 400, 2, 3, 0},
                      ParallelParam{13, 900, 8, 4, 2},
                      ParallelParam{14, 900, 3, 8, 0},
                      ParallelParam{15, 1600, 2, 4, 4},
                      ParallelParam{16, 1600, 6, 5, 0},
                      ParallelParam{17, 60, 1, 4, 0},
                      ParallelParam{18, 2500, 4, 7, 3}),
    [](const ::testing::TestParamInfo<ParallelParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_t" +
             std::to_string(info.param.threads) + "_pf" +
             std::to_string(info.param.prefetch);
    });

TEST(ParallelJoinTest, SingleThreadAndShallowTreesFallBackToSerial) {
  ElementList universe = RandomNestedElements(31, 60, 4);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db;
  // Page-native fanout: a 30-element tree is a single leaf, so no
  // separator keys exist and the parallel path must degrade gracefully.
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  ASSERT_OK(a_set.Build(a_list));
  ASSERT_OK(d_set.Build(d_list));
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(a_set.xrtree(), 8));
  EXPECT_EQ(ranges.size(), 1u);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial,
                       XrStackJoin(a_set.xrtree(), d_set.xrtree()));
  JoinOptions options;
  options.num_threads = 8;
  ASSERT_OK_AND_ASSIGN(
      JoinOutput par,
      ParallelXrStackJoin(a_set.xrtree(), d_set.xrtree(), options));
  EXPECT_EQ(par.pairs, serial.pairs);
  options.num_threads = 1;
  ASSERT_OK_AND_ASSIGN(
      JoinOutput one,
      ParallelXrStackJoin(a_set.xrtree(), d_set.xrtree(), options));
  EXPECT_EQ(one.pairs, serial.pairs);
}

// ---------------------------------------------------------------------------
// The worker set: ParallelXrStackJoin runs its ranges on process-wide
// threads, shared by every caller, instead of starting threads per call.
// ---------------------------------------------------------------------------

/// Discards every unpinned resident page, resolving prefetched-but-unread
/// frames into prefetch_wasted (which is otherwise only counted when a
/// frame is evicted or freed).
void DiscardAllResident(BufferPool* pool, PageId num_pages) {
  for (PageId id = 0; id < num_pages; ++id) {
    pool->DiscardPage(id).ok();  // non-resident ids are fine to skip
  }
}

/// Threads of this process (entries in /proc/self/task).
size_t LiveThreads() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

// Concurrent callers share the workers (a caller runs whatever ranges no
// worker has started, so none waits on another's join), and every output
// is the serial one, byte for byte.
TEST(ParallelJoinWorkerTest, ConcurrentCallersMatchSerial) {
  ElementList universe = RandomNestedElements(13, 900, 8);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(*a_tree, *d_tree));
  ASSERT_FALSE(serial.pairs.empty());
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, 4));
  ASSERT_EQ(ranges.size(), 4u);

  constexpr int kClients = 8;
  constexpr int kJoinsPerClient = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      JoinOptions options;
      options.num_threads = 4;
      for (int j = 0; j < kJoinsPerClient; ++j) {
        auto joined = ParallelXrStackJoin(*a_tree, *d_tree, options);
        if (!joined.ok()) {
          failures.fetch_add(1);
        } else if (joined->pairs.size() != serial.pairs.size() ||
                   std::memcmp(joined->pairs.data(), serial.pairs.data(),
                               serial.pairs.size() * sizeof(JoinPair)) !=
                       0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

/// DiskInterface decorator that records the kernel thread id of every
/// reader. Thread ids are not reused until the id space wraps, so a thread
/// started per join shows up as a new id each time.
class ReaderRecordingDisk final : public DiskInterface {
 public:
  explicit ReaderRecordingDisk(DiskInterface* base) : base_(base) {}

  size_t distinct_readers() {
    std::lock_guard<std::mutex> lock(mu_);
    return readers_.size();
  }

  Status ReadPage(PageId page_id, char* out) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      readers_.insert(static_cast<long>(::syscall(SYS_gettid)));
    }
    return base_->ReadPage(page_id, out);
  }
  Status WritePage(PageId page_id, const char* in) override {
    return base_->WritePage(page_id, in);
  }
  PageId AllocatePage() override { return base_->AllocatePage(); }
  PageId num_pages() const override { return base_->num_pages(); }
  Status Sync() override { return base_->Sync(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  DiskInterface* const base_;
  std::mutex mu_;
  std::set<long> readers_;
};

// Joins reuse the workers: once a 4-thread join has run, 500 more start no
// thread. Every join starts cold, so its ranges read pages on whichever
// threads run them; all of those are threads that were already live.
TEST(ParallelJoinWorkerTest, JoinsStartNoThreads) {
  ElementList universe = RandomNestedElements(17, 200, 4);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  char tmpl[] = "/tmp/xrtree_join_workers_XXXXXX";
  int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  ::close(fd);
  std::string path = tmpl;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(path));
    ReaderRecordingDisk recording(&disk);
    BufferPool pool(&recording, /*pool_size=*/512);
    auto a_tree = SmallFanoutTree(&pool, a_list);
    auto d_tree = SmallFanoutTree(&pool, d_list);
    ASSERT_OK(pool.FlushAll());
    ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, 4));
    ASSERT_EQ(ranges.size(), 4u);
    JoinOptions options;
    options.num_threads = 4;
    options.materialize = false;
    ASSERT_OK_AND_ASSIGN(JoinOutput first,
                         ParallelXrStackJoin(*a_tree, *d_tree, options));
    const size_t threads = LiveThreads();
    for (int j = 0; j < 500; ++j) {
      DiscardAllResident(&pool, disk.num_pages());
      ASSERT_OK_AND_ASSIGN(JoinOutput again,
                           ParallelXrStackJoin(*a_tree, *d_tree, options));
      ASSERT_EQ(again.stats.output_pairs, first.stats.output_pairs);
    }
    EXPECT_LE(LiveThreads(), threads);
    EXPECT_LE(recording.distinct_readers(), threads);
    ASSERT_OK(disk.Close());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault tolerance of the parallel join: deterministic first-error,
// degradation to serial, and DataLoss never being masked.
// ---------------------------------------------------------------------------

/// A join database whose pool sits on a FaultInjectingDisk, so read faults
/// can be armed between the bulk load and the join under test.
class FaultyJoinDb {
 public:
  explicit FaultyJoinDb(const BufferPoolOptions& options) {
    char tmpl[] = "/tmp/xrtree_join_fault_XXXXXX";
    int fd = ::mkstemp(tmpl);
    if (fd < 0) std::abort();
    ::close(fd);
    path_ = tmpl;
    XR_CHECK_OK(disk_.Open(path_));
    faulty_ = std::make_unique<FaultInjectingDisk>(&disk_);
    pool_ = std::make_unique<BufferPool>(faulty_.get(), options);
  }
  ~FaultyJoinDb() {
    pool_.reset();
    faulty_.reset();
    disk_.Close().ok();
    std::remove(path_.c_str());
  }

  BufferPool* pool() { return pool_.get(); }
  FaultInjectingDisk* faulty() { return faulty_.get(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  DiskManager disk_;
  std::unique_ptr<FaultInjectingDisk> faulty_;
  std::unique_ptr<BufferPool> pool_;
};

BufferPoolOptions NoRetryPoolOptions() {
  BufferPoolOptions options;
  options.pool_size = 16;
  // One attempt per read: an armed transient fault defeats the fetch
  // outright instead of being absorbed by the pool's backoff loop.
  options.io_retry.max_retries = 0;
  return options;
}

TEST(ParallelJoinFaultTest, DegradesToSerialOnTransientWorkerFailure) {
  ElementList universe = RandomNestedElements(41, 900, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  FaultyJoinDb db(NoRetryPoolOptions());
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK(db.pool()->FlushAll());
  ASSERT_OK_AND_ASSIGN(JoinOutput want, XrStackJoin(*a_tree, *d_tree));
  ASSERT_FALSE(want.pairs.empty());

  JoinOptions options;
  options.num_threads = 4;
  options.degrade_to_serial = true;
  // Warm the partition-planning pages so the armed fault lands inside a
  // range worker, not in PlanJoinPartitions (which has no fallback).
  ASSERT_OK(PlanJoinPartitions(*a_tree, 4).status());
  db.faulty()->TransientFailNthRead(db.faulty()->reads() + 1);

  ASSERT_OK_AND_ASSIGN(JoinOutput got,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_TRUE(got.stats.degraded_to_serial);
  EXPECT_GE(got.stats.failed_ranges, 1u);
  EXPECT_EQ(db.faulty()->faults_injected(), 1u);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST(ParallelJoinFaultTest, WorkerFailureSurfacesRetryableTypedError) {
  ElementList universe = RandomNestedElements(41, 900, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  FaultyJoinDb db(NoRetryPoolOptions());
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK(db.pool()->FlushAll());
  ASSERT_OK_AND_ASSIGN(JoinOutput want, XrStackJoin(*a_tree, *d_tree));

  JoinOptions options;
  options.num_threads = 4;  // degrade_to_serial stays off
  ASSERT_OK(PlanJoinPartitions(*a_tree, 4).status());
  db.faulty()->TransientFailNthRead(db.faulty()->reads() + 1);

  auto joined = ParallelXrStackJoin(*a_tree, *d_tree, options);
  ASSERT_FALSE(joined.ok());
  // The caller sees the worker's real error, never the cancellation
  // sentinel the sibling ranges were stopped with.
  EXPECT_TRUE(joined.status().IsIoError()) << joined.status().ToString();
  EXPECT_TRUE(joined.status().IsRetryable());
  EXPECT_NE(joined.status().message(), kJoinCancelledMessage);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  // Retryable means exactly that: the same join succeeds on retry.
  ASSERT_OK_AND_ASSIGN(JoinOutput again,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(again.pairs, want.pairs);
}

TEST(ParallelJoinFaultTest, CallerCancellationAborts) {
  ElementList universe = RandomNestedElements(41, 400, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db;
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);

  std::atomic<bool> cancel{true};
  JoinOptions options;
  options.num_threads = 4;
  options.cancel = &cancel;
  auto par = ParallelXrStackJoin(*a_tree, *d_tree, options);
  ASSERT_FALSE(par.ok());
  EXPECT_TRUE(par.status().IsAborted());
  EXPECT_EQ(par.status().message(), kJoinCancelledMessage);
  auto serial = XrStackJoin(*a_tree, *d_tree, options);
  ASSERT_FALSE(serial.ok());
  EXPECT_TRUE(serial.status().IsAborted());

  cancel.store(false);
  ASSERT_OK_AND_ASSIGN(JoinOutput want, XrStackJoin(*a_tree, *d_tree));
  ASSERT_OK_AND_ASSIGN(JoinOutput got,
                       ParallelXrStackJoin(*a_tree, *d_tree, options));
  EXPECT_EQ(got.pairs, want.pairs);
}

TEST(ParallelJoinFaultTest, DataLossIsNeverMaskedByDegradation) {
  ElementList universe = RandomNestedElements(41, 900, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  FaultyJoinDb db(NoRetryPoolOptions());
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK(db.pool()->FlushAll());

  // Persistently rot the descendant root on disk (no WAL attached, so no
  // repair image exists) and evict the cached copy.
  PageId victim = d_tree->root();
  {
    ASSERT_OK_AND_ASSIGN(Page * p, db.pool()->FetchPage(victim));
    ASSERT_OK(db.pool()->UnpinPage(p->page_id(), false));
  }
  ASSERT_OK(db.pool()->DiscardPage(victim));
  {
    int fd = ::open(db.path().c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    off_t at = static_cast<off_t>(victim) * kPageSize + 123;
    char byte;
    ASSERT_EQ(::pread(fd, &byte, 1, at), 1);
    byte = static_cast<char>(byte ^ 0x40);
    ASSERT_EQ(::pwrite(fd, &byte, 1, at), 1);
    ::close(fd);
  }

  JoinOptions options;
  options.num_threads = 4;
  options.degrade_to_serial = true;
  auto joined = ParallelXrStackJoin(*a_tree, *d_tree, options);
  ASSERT_FALSE(joined.ok());
  // Degradation covers transients only: rerunning serially cannot repair
  // lost data, so the DataLoss must reach the caller unmasked.
  EXPECT_TRUE(joined.status().IsDataLoss()) << joined.status().ToString();
  EXPECT_FALSE(joined.status().IsRetryable());
  EXPECT_TRUE(db.pool()->IsQuarantined(victim));
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

// A worker invoked with only the relocated caller flag set must abort: the
// parallel join moves the caller's `cancel` to `external_cancel` before
// installing its sibling-failure flag, and the worker loop observes both.
TEST(ParallelJoinFaultTest, RangeWorkerObservesExternalCancelFlag) {
  ElementList universe = RandomNestedElements(43, 300, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db;
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);

  std::atomic<bool> ext{true};
  JoinOptions options;
  options.external_cancel = &ext;
  auto out = XrStackJoinRange(*a_tree, *d_tree, 0, kNilPosition, options);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsAborted()) << out.status().ToString();
  EXPECT_EQ(out.status().message(), kJoinCancelledMessage);

  ext.store(false);
  ASSERT_OK(
      XrStackJoinRange(*a_tree, *d_tree, 0, kNilPosition, options).status());
}

/// DiskInterface decorator that sets a cancellation flag once the Nth read
/// after arming goes by — a deterministic way to fire "the caller cancels
/// while the join is in flight" without sleeping.
class CancelOnReadDisk final : public DiskInterface {
 public:
  CancelOnReadDisk(DiskInterface* base, std::atomic<bool>* flag)
      : base_(base), flag_(flag) {}

  /// The flag fires `after` reads from now.
  void Arm(uint64_t after) {
    trigger_.store(count_.load(std::memory_order_relaxed) + after,
                   std::memory_order_relaxed);
  }
  void Disarm() { trigger_.store(0, std::memory_order_relaxed); }

  Status ReadPage(PageId page_id, char* out) override {
    uint64_t n = 1 + count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t at = trigger_.load(std::memory_order_relaxed);
    if (at != 0 && n >= at) flag_->store(true, std::memory_order_relaxed);
    return base_->ReadPage(page_id, out);
  }
  Status WritePage(PageId page_id, const char* in) override {
    return base_->WritePage(page_id, in);
  }
  PageId AllocatePage() override { return base_->AllocatePage(); }
  PageId num_pages() const override { return base_->num_pages(); }
  Status Sync() override { return base_->Sync(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  DiskInterface* const base_;
  std::atomic<bool>* const flag_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> trigger_{0};
};

// The caller's flag firing mid-join must abort the whole join with the
// cancellation sentinel — and must NOT be "recovered" by the
// degrade-to-serial path, which would rerun the very work the caller just
// asked to stop. (Regression: the old code overwrote options.cancel with
// the internal sibling-failure flag, so a mid-flight external cancellation
// was invisible to the workers.)
TEST(ParallelJoinFaultTest, ExternalCancelMidJoinAbortsWithoutDegrade) {
  ElementList universe = RandomNestedElements(41, 900, 3);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);

  char tmpl[] = "/tmp/xrtree_join_cancel_XXXXXX";
  int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  ::close(fd);
  std::string path = tmpl;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(path));
    std::atomic<bool> cancel{false};
    CancelOnReadDisk trip(&disk, &cancel);
    // A 16-frame pool under a fanout-4 tree: every join misses constantly,
    // so the armed read trigger is guaranteed to fire mid-join.
    BufferPool pool(&trip, /*pool_size=*/16);
    auto a_tree = SmallFanoutTree(&pool, a_list);
    auto d_tree = SmallFanoutTree(&pool, d_list);
    ASSERT_OK(pool.FlushAll());
    ASSERT_OK_AND_ASSIGN(JoinOutput want, XrStackJoin(*a_tree, *d_tree));

    JoinOptions options;
    options.num_threads = 4;
    options.degrade_to_serial = true;  // must NOT mask the cancellation
    options.cancel = &cancel;
    trip.Arm(5);
    auto joined = ParallelXrStackJoin(*a_tree, *d_tree, options);
    ASSERT_FALSE(joined.ok());
    EXPECT_TRUE(joined.status().IsAborted()) << joined.status().ToString();
    EXPECT_EQ(joined.status().message(), kJoinCancelledMessage);
    EXPECT_EQ(pool.pinned_frames(), 0u);

    // With the flag cleared the identical join runs to completion.
    cancel.store(false);
    trip.Disarm();
    ASSERT_OK_AND_ASSIGN(JoinOutput again,
                         ParallelXrStackJoin(*a_tree, *d_tree, options));
    EXPECT_EQ(again.pairs, want.pairs);
    EXPECT_FALSE(again.stats.degraded_to_serial);
    ASSERT_OK(disk.Close());
  }
  std::remove(path.c_str());
}

TEST(ParallelJoinTest, PartitionPlansNeverContainDegenerateRanges) {
  // Whatever PartitionKeys hands back (duplicates included), the plan must
  // be a strictly increasing contiguous cover of [0, kNilPosition): a
  // degenerate [k, k) range would spawn a worker that owns nothing.
  ElementList universe = RandomNestedElements(47, 1200, 2);
  ElementList a_list, d_list;
  SplitByLevel(universe, &a_list, &d_list);
  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);

  for (uint32_t threads : {2u, 3u, 4u, 8u, 16u, 64u}) {
    ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(*a_tree, threads));
    ASSERT_FALSE(ranges.empty());
    EXPECT_EQ(ranges.front().first, 0u);
    EXPECT_EQ(ranges.back().second, kNilPosition);
    for (size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_LT(ranges[i].first, ranges[i].second)
          << "degenerate range at " << i << " for " << threads << " threads";
      if (i > 0) {
        EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
      }
    }
  }
}

// A range worker's read-ahead stays inside its range on both trees:
// ancestors in [lo, hi) and descendants in (lo, hi). Descendants do lie
// past `hi`, but no ancestor of the range spans the boundary to drain
// them, so a prefetched leaf can only end up wasted if the plan ran past
// `hi` on either side.
TEST(ParallelJoinTest, RangeWorkerPrefetchStaysInsideItsRange) {
  // Adjacent (non-nested) ancestors with one descendant inside each:
  // every in-range leaf of either tree gets read.
  ElementList a_list, d_list;
  Position p = 10;
  for (int i = 0; i < 400; ++i) {
    a_list.push_back(Element(p, p + 6, 1));
    d_list.push_back(Element(p + 2, p + 3, 2));
    p += 10;
  }
  const Position hi = a_list[200].start;

  TempDb db(512);
  auto a_tree = SmallFanoutTree(db.pool(), a_list);
  auto d_tree = SmallFanoutTree(db.pool(), d_list);
  ASSERT_OK(db.pool()->FlushAll());
  const PageId num_pages = db.disk()->num_pages();
  // Everything cold: the join's read-ahead must actually install frames.
  DiscardAllResident(db.pool(), num_pages);

  IoStats before = db.pool()->stats();
  JoinOptions options;
  options.prefetch_depth = 8;
  ASSERT_OK_AND_ASSIGN(JoinOutput part,
                       XrStackJoinRange(*a_tree, *d_tree, 0, hi, options));
  EXPECT_EQ(part.stats.output_pairs, 200u);
  db.pool()->WaitForPrefetchIdle();
  // Resolve still-resident prefetched frames: every one the worker never
  // touched now counts as wasted.
  DiscardAllResident(db.pool(), num_pages);
  IoStats delta = db.pool()->stats() - before;
  // 50 leaves per tree lie in the range; the read-ahead covers both trees.
  EXPECT_GT(delta.prefetch_issued, 60u);
  EXPECT_EQ(delta.prefetch_wasted, 0u)
      << "read-ahead fetched leaves outside [0, " << hi << ")";
}

// Read-ahead must cost a bounded share of a join's pool fetches. After an
// empty run (CurA's leaf is the last child of its parent, or the `hi`
// clamp cut the run) the ancestor read-ahead used to re-arm one position
// past CurA, so every later advance inside that leaf paid one more
// LeafRunAfter root-to-leaf descent: at a range's last leaf, one per
// descendant.
TEST(ParallelJoinTest, ReadAheadFetchesStayProportionalToTheJoin) {
  // Every tenth descendant: the descendant cursor's own read-ahead (one
  // LeafRunAfter descent per leaf it lands on) stays a small share of the
  // fetches, so the bound measures the ancestor side.
  ElementList a_list, d_all, d_list;
  SplitByLevel(RandomNestedElements(61, 20000, 3), &a_list, &d_all);
  for (size_t i = 0; i < d_all.size(); i += 10) d_list.push_back(d_all[i]);
  TempDb db(32);
  XrTreeOptions topt;
  topt.compressed_pages = true;
  topt.internal_capacity = 4;
  XrTree a_tree(db.pool(), kInvalidPageId, topt);
  XrTree d_tree(db.pool(), kInvalidPageId, topt);
  ASSERT_OK(a_tree.BulkLoad(a_list));
  ASSERT_OK(d_tree.BulkLoad(d_list));
  ASSERT_OK(db.pool()->FlushAll());
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(a_tree, 4));
  ASSERT_GT(ranges.size(), 1u);

  // Pool fetches of every range of the 4-way plan, joined one at a time
  // from a cold pool.
  auto range_fetches = [&](uint32_t depth, uint64_t* pairs) {
    JoinOptions options;
    options.materialize = false;
    options.prefetch_depth = depth;
    options.adaptive_prefetch = depth > 0;
    DiscardAllResident(db.pool(), db.disk()->num_pages());
    const IoStats before = db.pool()->stats();
    *pairs = 0;
    for (const auto& [lo, hi] : ranges) {
      auto part = XrStackJoinRange(a_tree, d_tree, lo, hi, options);
      EXPECT_TRUE(part.ok()) << part.status().ToString();
      if (part.ok()) *pairs += part->stats.output_pairs;
    }
    db.pool()->WaitForPrefetchIdle();
    const IoStats delta = db.pool()->stats() - before;
    return delta.buffer_hits + delta.buffer_misses;
  };
  uint64_t plain_pairs = 0;
  uint64_t ahead_pairs = 0;
  const uint64_t plain = range_fetches(0, &plain_pairs);
  const uint64_t ahead = range_fetches(8, &ahead_pairs);
  EXPECT_EQ(ahead_pairs, plain_pairs);
  EXPECT_GT(db.pool()->stats().prefetch_issued, 0u);
  EXPECT_LE(ahead, 2 * plain) << "without read-ahead: " << plain;
}

TEST(JoinTest, SelfJoinProducesProperPairsOnly) {
  ElementList list = RandomNestedElements(55, 300, 2);
  TempDb db;
  StoredElementSet set(db.pool(), "S");
  ASSERT_OK(set.Build(list));
  auto want = Canonical(NestedLoopJoin(list, list).pairs);
  ASSERT_OK_AND_ASSIGN(JoinOutput xr, XrStackJoin(set.xrtree(), set.xrtree()));
  EXPECT_EQ(Canonical(xr.pairs), want);
  ASSERT_OK_AND_ASSIGN(JoinOutput bp, BPlusJoin(set.btree(), set.btree()));
  EXPECT_EQ(Canonical(bp.pairs), want);
  for (const JoinPair& pr : want) {
    EXPECT_TRUE(pr.ancestor.Contains(pr.descendant));
  }
}

// ---------------------------------------------------------------------------
// Scan mode: XR-stack steps through the probe cursor's leaf copy where it
// covers the next descendant and probes elsewhere. Its output must equal,
// byte for byte, the all-probe path (disable_probe_floor) and Stack-Tree-
// Desc over the same two trees.
// ---------------------------------------------------------------------------

/// About `fraction` of `list`, seeded; subsets of a nested list stay nested.
ElementList KeepFraction(const ElementList& list, double fraction,
                         uint64_t seed) {
  if (fraction >= 1.0) return list;
  Random rng(seed);
  const uint64_t cut = static_cast<uint64_t>(fraction * 100000);
  ElementList out;
  for (const Element& e : list) {
    if (rng.Uniform(100000) < cut) out.push_back(e);
  }
  return out;
}

/// Pairs with flags cleared (InStabList bookkeeping depends on the page
/// format) and, when `contained_only`, only the proper-containment pairs.
std::vector<JoinPair> Comparable(std::vector<JoinPair> pairs,
                                 bool contained_only) {
  std::vector<JoinPair> out;
  for (JoinPair& p : pairs) {
    if (contained_only && !p.ancestor.Contains(p.descendant)) continue;
    p.ancestor.flags = p.descendant.flags = 0;
    out.push_back(p);
  }
  return out;
}

void ExpectSameBytes(const std::vector<JoinPair>& got,
                     const std::vector<JoinPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(JoinPair)), 0)
        << "pair " << i << ": " << got[i].ancestor << " " << got[i].descendant
        << " vs " << want[i].ancestor << " " << want[i].descendant;
  }
}

struct ScanModeParam {
  uint64_t seed;
  bool compressed;
  /// Ancestors and descendants from two independent documents, so their
  /// positions collide (an ancestor may end exactly where a descendant
  /// starts), instead of one document split by level.
  bool colliding;
  /// Fixed-page leaf capacity (a bulk-loaded compressed leaf fills its
  /// page whatever the capacity).
  uint32_t leaf_capacity;
};

class ScanModeDifferentialTest
    : public ::testing::TestWithParam<ScanModeParam> {};

/// Bounds that fall inside ancestor leaves rather than on their separator
/// keys: the starts at a third, a half and two thirds of `a_list`, and the
/// positions just past them (between two elements).
std::vector<std::pair<Position, Position>> InLeafRanges(
    const ElementList& a_list) {
  std::vector<Position> cuts;
  for (size_t k : {a_list.size() / 3, a_list.size() / 2,
                   2 * a_list.size() / 3}) {
    if (k == 0) continue;
    cuts.push_back(a_list[k].start);
    cuts.push_back(a_list[k].start + 1);
  }
  std::vector<std::pair<Position, Position>> ranges;
  Position lo = 0;
  for (Position cut : cuts) {
    ranges.emplace_back(lo, cut);
    lo = cut;
  }
  ranges.emplace_back(lo, kNilPosition);
  // Overlapping bounds too: both sides of every cut at once.
  for (Position cut : cuts) ranges.emplace_back(cut - 1, cut + 2);
  return ranges;
}

TEST_P(ScanModeDifferentialTest, StepsMatchProbesAndStackTreeDesc) {
  const ScanModeParam p = GetParam();
  ElementList a_all, d_list;
  if (p.colliding) {
    a_all = RandomNestedElements(p.seed, 1500, 3);
    d_list = RandomNestedElements(p.seed + 1, 1500, 5);
  } else {
    SplitByLevel(RandomNestedElements(p.seed, 3000, 3), &a_all, &d_list);
  }
  TempDb db(2048);
  XrTreeOptions topt;
  topt.leaf_capacity = p.leaf_capacity;
  topt.internal_capacity = 4;
  topt.compressed_pages = p.compressed;
  XrTree d_tree(db.pool(), kInvalidPageId, topt);
  ASSERT_OK(d_tree.BulkLoad(d_list));

  JoinOptions probe_only;
  probe_only.disable_probe_floor = true;
  JoinOptions pc;
  pc.parent_child = true;
  JoinOptions pc_probe_only = probe_only;
  pc_probe_only.parent_child = true;

  // XR-stack (run loop and probes), its all-probe ablation and
  // Stack-Tree-Desc over the same two trees, materialized, under
  // `options`: the first two byte for byte in the same emission order
  // (they read the same trees, so even the descendants' flags agree), and
  // Stack-Tree-Desc after clearing flags (InStabList bookkeeping depends
  // on the page format). Stack-Tree-Desc also pairs an ancestor with a
  // descendant starting exactly at its end; XR-stack emits such a
  // touching pair only when the ancestor is already on the stack. With
  // colliding positions, so compare the proper containments there.
  auto expect_oracles_agree = [&](const XrTree& a_tree, const XrTree& d,
                                  const JoinOptions& options,
                                  const JoinOptions& ablation,
                                  JoinOutput* xr_out) {
    ASSERT_OK_AND_ASSIGN(JoinOutput xr, XrStackJoin(a_tree, d, options));
    ASSERT_OK_AND_ASSIGN(JoinOutput probed, XrStackJoin(a_tree, d, ablation));
    ASSERT_OK_AND_ASSIGN(JoinOutput merge,
                         StackTreeDescJoin(a_tree, d, options));
    ASSERT_NO_FATAL_FAILURE(ExpectSameBytes(xr.pairs, probed.pairs));
    EXPECT_EQ(probed.stats.probe_steps, 0u);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameBytes(Comparable(xr.pairs, p.colliding),
                        Comparable(merge.pairs, p.colliding)));
    *xr_out = std::move(xr);
  };
  // Every range equals its ablation and the full join's pairs whose
  // ancestor it owns.
  auto expect_ranges_agree =
      [&](const XrTree& a_tree, const JoinOutput& full,
          const std::vector<std::pair<Position, Position>>& ranges,
          const JoinOptions& options, const JoinOptions& ablation) {
        for (const auto& [lo, hi] : ranges) {
          SCOPED_TRACE("range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + ")");
          ASSERT_OK_AND_ASSIGN(
              JoinOutput part,
              XrStackJoinRange(a_tree, d_tree, lo, hi, options));
          ASSERT_OK_AND_ASSIGN(
              JoinOutput part_probed,
              XrStackJoinRange(a_tree, d_tree, lo, hi, ablation));
          ASSERT_NO_FATAL_FAILURE(
              ExpectSameBytes(part.pairs, part_probed.pairs));
          std::vector<JoinPair> owned;
          for (const JoinPair& pr : full.pairs) {
            if (pr.ancestor.start >= lo && pr.ancestor.start < hi) {
              owned.push_back(pr);
            }
          }
          ASSERT_NO_FATAL_FAILURE(ExpectSameBytes(part.pairs, owned));
        }
      };

  for (double kept : {1.0, 0.3, 0.05, 0.01, 0.002}) {
    SCOPED_TRACE("ancestors kept " + std::to_string(kept));
    ElementList a_list = KeepFraction(a_all, kept, p.seed + 7);
    XrTree a_tree(db.pool(), kInvalidPageId, topt);
    ASSERT_OK(a_tree.BulkLoad(a_list));

    JoinOutput xr;
    ASSERT_NO_FATAL_FAILURE(
        expect_oracles_agree(a_tree, d_tree, {}, probe_only, &xr));
    if (kept == 1.0) {
      EXPECT_GT(xr.stats.probe_steps, 0u);
    }
    JoinOutput xr_pc;
    ASSERT_NO_FATAL_FAILURE(
        expect_oracles_agree(a_tree, d_tree, pc, pc_probe_only, &xr_pc));

    ASSERT_NO_FATAL_FAILURE(expect_ranges_agree(
        a_tree, xr, InLeafRanges(a_list), {}, probe_only));
    ASSERT_NO_FATAL_FAILURE(expect_ranges_agree(
        a_tree, xr_pc, InLeafRanges(a_list), pc, pc_probe_only));
    // Every range of every partition plan at 2-8 threads.
    for (uint32_t threads = 2; threads <= 8; ++threads) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(a_tree, threads));
      ASSERT_NO_FATAL_FAILURE(
          expect_ranges_agree(a_tree, xr, ranges, {}, probe_only));
      JoinOptions par;
      par.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(JoinOutput joined,
                           ParallelXrStackJoin(a_tree, d_tree, par));
      ASSERT_NO_FATAL_FAILURE(ExpectSameBytes(joined.pairs, xr.pairs));
    }
  }

  // Self-join: the probe point can sit exactly on an ancestor's start.
  XrTree self(db.pool(), kInvalidPageId, topt);
  ASSERT_OK(self.BulkLoad(a_all));
  JoinOutput xr;
  ASSERT_NO_FATAL_FAILURE(
      expect_oracles_agree(self, self, {}, probe_only, &xr));
  EXPECT_GT(xr.stats.probe_steps, 0u);
  EXPECT_EQ(Canonical(xr.pairs), Canonical(NestedLoopJoin(a_all, a_all).pairs));
  JoinOutput xr_pc;
  ASSERT_NO_FATAL_FAILURE(
      expect_oracles_agree(self, self, pc, pc_probe_only, &xr_pc));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScanModeDifferentialTest,
    ::testing::Values(ScanModeParam{71, false, false, 8},
                      ScanModeParam{72, true, false, 8},
                      ScanModeParam{73, false, true, 8},
                      ScanModeParam{74, true, true, 8},
                      ScanModeParam{75, false, false, 4},
                      ScanModeParam{76, false, true, 4}),
    [](const ::testing::TestParamInfo<ScanModeParam>& info) {
      return std::string(info.param.compressed ? "compressed" : "fixed") +
             (info.param.colliding ? "_colliding" : "_split") +
             (info.param.leaf_capacity == 8
                  ? ""
                  : "_leaf" + std::to_string(info.param.leaf_capacity));
    });

/// DiskInterface decorator that runs a hook once, on the first read of one
/// page: a deterministic point inside a join, between two descendants.
class HookOnReadDisk final : public DiskInterface {
 public:
  explicit HookOnReadDisk(DiskInterface* base) : base_(base) {}

  void Arm(PageId page, std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    page_ = page;
    hook_ = std::move(hook);
  }

  Status ReadPage(PageId page_id, char* out) override {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (page_id == page_) hook.swap(hook_);
    }
    if (hook) hook();
    return base_->ReadPage(page_id, out);
  }
  Status WritePage(PageId page_id, const char* in) override {
    return base_->WritePage(page_id, in);
  }
  PageId AllocatePage() override { return base_->AllocatePage(); }
  PageId num_pages() const override { return base_->num_pages(); }
  Status Sync() override { return base_->Sync(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  DiskInterface* const base_;
  std::mutex mu_;
  PageId page_ = kInvalidPageId;
  std::function<void()> hook_;
};

// A writer commits to the ancestor tree while a reader's join sits between
// two descendants that one ancestor leaf copy covers. The next ancestor
// advance finds the copy stale, so it must probe (re-copy the path), and
// the answer must lie between the counts before and after the write.
TEST(ScanModeTest, WriteBetweenDescendantsForcesProbe) {
  // 60 adjacent ancestors, one descendant inside each; ancestor leaves of
  // 16 (the last holds 12) and descendant leaves of 6, so descendant
  // leaves start mid-way through ancestor leaves.
  ElementList a_list, d_list;
  for (Position i = 0; i < 60; ++i) {
    a_list.push_back(Element(10 * i + 10, 10 * i + 16, 1));
    d_list.push_back(Element(10 * i + 12, 10 * i + 13, 3));
  }
  // Held out, then inserted mid-join: nested in ancestor 50, around its
  // descendant. Its leaf has room, so the leaf layout does not change.
  const Element extra(10 * 50 + 11, 10 * 50 + 14, 2);

  char tmpl[] = "/tmp/xrtree_join_hook_XXXXXX";
  int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  ::close(fd);
  std::string path = tmpl;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(path));
    HookOnReadDisk hooked(&disk);
    BufferPool pool(&hooked, /*pool_size=*/512);
    XrTreeOptions a_opt;
    a_opt.leaf_capacity = 16;
    a_opt.internal_capacity = 4;
    XrTreeOptions d_opt;
    d_opt.leaf_capacity = 6;
    d_opt.internal_capacity = 4;
    XrTree a_tree(&pool, kInvalidPageId, a_opt);
    XrTree d_tree(&pool, kInvalidPageId, d_opt);
    ASSERT_OK(a_tree.BulkLoad(a_list));
    ASSERT_OK(d_tree.BulkLoad(d_list));
    ASSERT_OK(pool.FlushAll());

    ASSERT_OK_AND_ASSIGN(JoinOutput before, XrStackJoin(a_tree, d_tree));
    EXPECT_EQ(before.stats.output_pairs, 60u);
    EXPECT_GT(before.stats.probe_steps, 0u);

    // The descendant leaf after the one holding descendant 13 (it starts
    // at descendant 18, inside ancestor leaf 16..31) is the only page the
    // next join misses on; the writer runs while that read is pending.
    std::vector<XrTree::LeafRef> listed;
    ASSERT_OK(d_tree
                  .ListLeaves(d_list[13].start, kNilPosition, 2, &listed,
                              [](const Page*) { return Status::Ok(); })
                  .status());
    ASSERT_GE(listed.size(), 2u);
    const PageId next_leaf = listed[1].id;
    ASSERT_OK(pool.DiscardPage(next_leaf));
    Status write;
    bool wrote = false;
    hooked.Arm(next_leaf, [&] {
      std::thread writer([&] { write = a_tree.Insert(extra); });
      writer.join();
      wrote = true;
    });
    ASSERT_OK_AND_ASSIGN(JoinOutput raced, XrStackJoin(a_tree, d_tree));
    ASSERT_TRUE(wrote);
    ASSERT_OK(write);
    ASSERT_OK_AND_ASSIGN(JoinOutput after, XrStackJoin(a_tree, d_tree));
    EXPECT_EQ(after.stats.output_pairs, 61u);
    EXPECT_GE(raced.stats.output_pairs, before.stats.output_pairs);
    EXPECT_LE(raced.stats.output_pairs, after.stats.output_pairs);
    for (const JoinPair& pr : raced.pairs) {
      EXPECT_TRUE(pr.ancestor.Contains(pr.descendant));
    }
    // The writer was done before the next advance, so that advance
    // re-copied the path instead of stepping through the stale copy: one
    // re-copy more than the quiet join, whose advance there was a step.
    // No probe raced a writer.
    EXPECT_EQ(raced.stats.probe_refills, before.stats.probe_refills + 1);
    EXPECT_EQ(raced.stats.probe_fallbacks, 0u);
    ASSERT_OK(a_tree.CheckConsistency());
    ASSERT_OK(disk.Close());
  }
  std::remove(path.c_str());
}

// PartitionKeys stops at the first level that yields the separators it
// was asked for: with the root resident and nothing else, planning a
// 4-range join whose root holds enough separators reads no page.
TEST(ParallelJoinTest, PartitionKeysFetchNothingBelowASufficientRoot) {
  ElementList a_list, d_list;
  SplitByLevel(RandomNestedElements(83, 8000, 3), &a_list, &d_list);
  TempDb db(512);
  XrTree tree(db.pool());
  ASSERT_OK(tree.BulkLoad(a_list));
  ASSERT_EQ(tree.Height().value(), 2u);
  ASSERT_OK(db.pool()->FlushAll());
  DiscardAllResident(db.pool(), db.disk()->num_pages());
  {
    ASSERT_OK_AND_ASSIGN(Page * root, db.pool()->FetchPage(tree.root()));
    ASSERT_OK(db.pool()->UnpinPage(root, false));
  }
  const IoStats before = db.pool()->stats();
  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(tree, 4));
  EXPECT_EQ(ranges.size(), 4u);
  EXPECT_EQ((db.pool()->stats() - before).buffer_misses, 0u);
}

// A compressed 4-range join on a pool smaller than its working set equals
// Stack-Tree-Desc, and every range's read-ahead window fits its share of
// the 48 frames, so nothing it reads ahead is evicted unread. The waste
// check runs the four ranges one after another: concurrent ranges are
// preempted at will, and a stalled range's window can lose its CLOCK
// grace to the others' installs.
TEST(ParallelJoinTest, CompressedJoinOnASmallPoolWastesNoReadAhead) {
  ASSERT_OK_AND_ASSIGN(Dataset ds, MakeDepartmentDataset(100000, 17));
  TempDb db(4096);
  XrTreeOptions topt;
  topt.compressed_pages = true;
  XrTree a_tree(db.pool(), kInvalidPageId, topt);
  XrTree d_tree(db.pool(), kInvalidPageId, topt);
  ASSERT_OK(a_tree.BulkLoad(ds.ancestors));
  ASSERT_OK(d_tree.BulkLoad(ds.descendants));
  ASSERT_OK_AND_ASSIGN(StabStats a_stats, a_tree.ComputeStabStats());
  ASSERT_OK_AND_ASSIGN(StabStats d_stats, d_tree.ComputeStabStats());
  ASSERT_GT(a_stats.leaf_pages + d_stats.leaf_pages, 48u);
  const PageId a_root = a_tree.root();
  const PageId d_root = d_tree.root();
  db.Reopen(48);
  XrTree a_cold(db.pool(), a_root);
  XrTree d_cold(db.pool(), d_root);

  const auto want = Comparable(
      StackTreeDescJoinVectors(ds.ancestors, ds.descendants).pairs, false);
  JoinOptions options;
  options.num_threads = 4;
  options.prefetch_depth = 8;
  ASSERT_OK_AND_ASSIGN(JoinOutput got,
                       ParallelXrStackJoin(a_cold, d_cold, options));
  EXPECT_EQ(Comparable(got.pairs, false), want);

  ASSERT_OK_AND_ASSIGN(auto ranges, PlanJoinPartitions(a_cold, 4));
  ASSERT_EQ(ranges.size(), 4u);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    db.pool()->WaitForPrefetchIdle();
    const IoStats before = db.pool()->stats();
    std::vector<JoinPair> pairs;
    for (const auto& [lo, hi] : ranges) {
      ASSERT_OK_AND_ASSIGN(JoinOutput part,
                           XrStackJoinRange(a_cold, d_cold, lo, hi, options));
      pairs.insert(pairs.end(), part.pairs.begin(), part.pairs.end());
    }
    db.pool()->WaitForPrefetchIdle();
    std::sort(pairs.begin(), pairs.end(), [](const JoinPair& x,
                                             const JoinPair& y) {
      return x.descendant.start != y.descendant.start
                 ? x.descendant.start < y.descendant.start
                 : x.ancestor.start < y.ancestor.start;
    });
    EXPECT_EQ(Comparable(pairs, false), want);
    const IoStats delta = db.pool()->stats() - before;
    EXPECT_GT(delta.prefetch_issued, 0u);
    EXPECT_EQ(delta.prefetch_wasted, 0u);
  }
}

}  // namespace
}  // namespace xrtree
