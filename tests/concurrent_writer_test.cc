// Multi-writer tests for the latch-crabbing BTree and XrTree mutation
// paths (DESIGN.md §14): several writer threads splitting pages
// concurrently with each other and with readers. Everything here must be
// clean under ThreadSanitizer — the CI tsan job runs this binary alongside
// the read-side concurrency tests.
//
// Verification strategy: writers mutate concurrently, then the tree is
// quiesced (threads joined) and checked against serial ground truth —
// CheckConsistency, exact membership, and structural joins against a
// serially built reference. Readers that run DURING the churn only assert
// what the weak-reader contract guarantees: every result is well-formed
// (no torn pages, no untyped errors), not that it reflects any particular
// prefix of the writes.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "common/random.h"
#include "join/nested_loop.h"
#include "join/parallel_join.h"
#include "join/xr_stack.h"
#include "tests/test_util.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace {

/// Deals `elements` into `ways` stride-interleaved slices, so concurrent
/// writers constantly collide on the same leaves instead of working in
/// disjoint subtrees.
std::vector<ElementList> Deal(const ElementList& elements, size_t ways) {
  std::vector<ElementList> slices(ways);
  for (size_t i = 0; i < elements.size(); ++i) {
    slices[i % ways].push_back(elements[i]);
  }
  return slices;
}

std::vector<JoinPair> Canonical(std::vector<JoinPair> pairs) {
  for (JoinPair& p : pairs) {
    p.ancestor.flags = 0;
    p.descendant.flags = 0;
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// ---------------------------------------------------------------------------
// BTree: crabbing writers
// ---------------------------------------------------------------------------

class BTreeWriterTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeWriterTest, ConcurrentInsertersBuildExactTree) {
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(101, 2000, 3);
  TempDb db(256);
  BTreeOptions options;
  options.leaf_capacity = 4;  // splits on almost every insert
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);

  auto slices = Deal(elements, kWriters);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());
  for (const Element& e : elements) {
    ASSERT_OK_AND_ASSIGN(Element got, tree.Search(e.start));
    EXPECT_EQ(got.end, e.end);
    EXPECT_EQ(got.level, e.level);
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(BTreeWriterTest, ConcurrentDeletersDrainExactly) {
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(103, 1600, 3);
  TempDb db(256);
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(elements));

  // Delete the interleaved odd slices concurrently; the even half stays.
  ElementList keep, drop;
  for (size_t i = 0; i < elements.size(); ++i) {
    (i % 2 == 0 ? keep : drop).push_back(elements[i]);
  }
  auto slices = Deal(drop, kWriters);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Delete(e.start).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), keep.size());
  ASSERT_OK(tree.CheckConsistency());
  for (const Element& e : keep) {
    EXPECT_OK(tree.Search(e.start).status());
  }
  for (const Element& e : drop) {
    EXPECT_TRUE(tree.Search(e.start).status().IsNotFound());
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(BTreeWriterTest, ReadersRunCleanlyDuringInsertChurn) {
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(107, 2000, 3);
  TempDb db(256);
  BTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  BTree tree(db.pool(), kInvalidPageId, options);
  // Seed a quarter so readers have something to find from the start.
  ElementList seed(elements.begin(), elements.begin() + elements.size() / 4);
  ElementList rest(elements.begin() + elements.size() / 4, elements.end());
  for (const Element& e : seed) ASSERT_OK(tree.Insert(e));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_errors{0};
  std::atomic<uint64_t> order_violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(500 + r);
      while (!done.load(std::memory_order_acquire)) {
        // Point lookups of seeded keys always succeed.
        const Element& e = seed[rng.Uniform(seed.size())];
        auto got = tree.Search(e.start);
        if (!got.ok() || got->end != e.end) reader_errors.fetch_add(1);
        // A short snapshot scan: starts must come back strictly
        // increasing even while leaves split under the cursor.
        auto it = tree.LowerBound(e.start);
        if (!it.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        Position prev = 0;
        bool first = true;
        for (int steps = 0; steps < 50 && it->Valid(); ++steps) {
          Position s = it->Get().start;
          if (!first && s <= prev) order_violations.fetch_add(1);
          first = false;
          prev = s;
          if (!it->Next().ok()) {
            reader_errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  auto slices = Deal(rest, kWriters);
  std::atomic<uint64_t> writer_errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Insert(e).ok()) writer_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Writers, BTreeWriterTest,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "writers";
                         });

// ---------------------------------------------------------------------------
// XrTree: crabbing inserters, gated deleters
// ---------------------------------------------------------------------------

class XrWriterTest : public ::testing::TestWithParam<int> {};

TEST_P(XrWriterTest, ConcurrentInsertersMatchSerialTruth) {
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(111, 2000, 3);
  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);

  auto slices = Deal(elements, kWriters);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());

  // Stab invariants + query answers against a serially built reference.
  XrTree serial(db.pool(), kInvalidPageId, options);
  ASSERT_OK(serial.BulkLoad(elements));
  Random rng(77);
  Position max_pos = elements.back().end + 5;
  for (int q = 0; q < 60; ++q) {
    Position sd = static_cast<Position>(rng.UniformRange(0, max_pos));
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    ASSERT_OK_AND_ASSIGN(ElementList want, serial.FindAncestors(sd));
    EXPECT_EQ(got, want) << "FindAncestors(" << sd << ") diverged";
  }
  for (int q = 0; q < 30; ++q) {
    const Element& a = elements[rng.Uniform(elements.size())];
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindDescendants(a));
    ASSERT_OK_AND_ASSIGN(ElementList want, serial.FindDescendants(a));
    EXPECT_EQ(got, want) << "FindDescendants diverged";
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(XrWriterTest, DuplicateRacersRollBackCleanly) {
  // Every writer inserts the SAME element list: exactly one insert per key
  // wins; the rest must roll their provisional stab placement back
  // (Algorithm 1's I2 duplicate exit) without corrupting the tree. In the
  // compressed format half the list is bulk-loaded first, so duplicates
  // also meet the decompress-on-write split, which rolls the placement
  // back before it re-descends.
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(113, 600, 3);
  for (bool compressed : {false, true}) {
    SCOPED_TRACE(compressed ? "compressed pages" : "fixed pages");
    TempDb db(256);
    XrTreeOptions options;
    options.leaf_capacity = 4;
    options.internal_capacity = 4;
    options.compressed_pages = compressed;
    XrTree tree(db.pool(), kInvalidPageId, options);
    ElementList loaded;
    if (compressed) {
      for (size_t i = 0; i < elements.size(); i += 2) {
        loaded.push_back(elements[i]);
      }
      ASSERT_OK(tree.BulkLoad(loaded));
    }

    std::atomic<uint64_t> wins{0};
    std::atomic<uint64_t> unexpected{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&] {
        for (const Element& e : elements) {
          Status s = tree.Insert(e);
          if (s.ok()) {
            wins.fetch_add(1);
          } else if (!s.IsInvalidArgument()) {
            unexpected.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : writers) t.join();

    EXPECT_EQ(wins.load(), elements.size() - loaded.size());
    EXPECT_EQ(unexpected.load(), 0u);
    EXPECT_EQ(tree.size(), elements.size());
    ASSERT_OK(tree.CheckConsistency());

    // A placement left behind by a loser would show up as a duplicate
    // ancestor; compare against a serially built fixed-format reference.
    XrTreeOptions fixed = options;
    fixed.compressed_pages = false;
    XrTree serial(db.pool(), kInvalidPageId, fixed);
    ASSERT_OK(serial.BulkLoad(elements));
    for (const Element& e : elements) {
      ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(e.start + 1));
      ASSERT_OK_AND_ASSIGN(ElementList want,
                           serial.FindAncestors(e.start + 1));
      EXPECT_EQ(got, want) << "FindAncestors(" << e.start + 1 << ") diverged";
    }
    EXPECT_EQ(db.pool()->pinned_frames(), 0u);
  }
}

TEST_P(XrWriterTest, ReadersAndIteratorsRunCleanlyDuringInsertChurn) {
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(117, 2000, 3);
  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ElementList seed(elements.begin(), elements.begin() + elements.size() / 4);
  ElementList rest(elements.begin() + elements.size() / 4, elements.end());
  for (const Element& e : seed) ASSERT_OK(tree.Insert(e));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_errors{0};
  std::atomic<uint64_t> malformed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(900 + r);
      Position max_pos = elements.back().end + 5;
      while (!done.load(std::memory_order_acquire)) {
        // Weak-reader contract: every ancestor returned really does
        // contain the probe position (results are never torn), even if
        // the set momentarily misses keys relocated by an in-flight
        // split.
        Position sd = static_cast<Position>(rng.UniformRange(1, max_pos));
        auto anc = tree.FindAncestors(sd);
        if (!anc.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        for (const Element& a : *anc) {
          if (!(a.start < sd && sd < a.end)) malformed.fetch_add(1);
        }
        // Snapshot cursor with lateral hops + epoch-validated reseeks.
        auto it = tree.LowerBound(sd);
        if (!it.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        Position prev = 0;
        bool first = true;
        for (int steps = 0; steps < 40 && it->Valid(); ++steps) {
          Position s = it->Get().start;
          if (!first && s <= prev) malformed.fetch_add(1);
          first = false;
          prev = s;
          if (!it->Next().ok()) {
            reader_errors.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  auto slices = Deal(rest, kWriters);
  std::atomic<uint64_t> writer_errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Insert(e).ok()) writer_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(XrWriterTest, MixedInsertDeleteWritersConverge) {
  // Inserters (shared gate) racing deleters (exclusive gate): the gate
  // serializes each Delete against in-flight Inserts, so every operation
  // sees a structurally sound tree. Disjoint key sets make the final
  // state exact.
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(119, 1600, 3);
  ElementList stay, churn;
  for (size_t i = 0; i < elements.size(); ++i) {
    (i % 2 == 0 ? stay : churn).push_back(elements[i]);
  }
  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(elements));

  // Half the writers delete `churn` keys, the other half re-insert keys
  // the deleters already removed — coordinated per-key by a turnstile so
  // each key sees delete -> insert exactly once.
  auto slices = Deal(churn, std::max(1, kWriters / 2));
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < slices.size(); ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Delete(e.start).ok()) errors.fetch_add(1);
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  // Pure inserters on fresh keys beyond the loaded universe, running
  // against the deleters' exclusive gate acquisitions.
  Position fresh_base = elements.back().end + 10;
  ElementList fresh;
  for (int i = 0; i < 400; ++i) {
    fresh.push_back(
        Element(fresh_base + 4 * i, fresh_base + 4 * i + 3, 1));
  }
  auto fresh_slices = Deal(fresh, std::max(1, kWriters - kWriters / 2));
  for (size_t w = 0; w < fresh_slices.size(); ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : fresh_slices[w]) {
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size() + fresh.size());
  ASSERT_OK(tree.CheckConsistency());
  for (const Element& e : elements) {
    EXPECT_OK(tree.Search(e.start).status());
  }
  for (const Element& e : fresh) {
    EXPECT_OK(tree.Search(e.start).status());
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(XrWriterTest, CompressedPagesDecompressUnderSplitStorm) {
  // Bulk-loaded compressed leaves hold far more than leaf_capacity entries
  // (page_max is the codec cap, not the slot cap), so the very first write
  // landing on each page triggers the decompress-on-write protocol: inside
  // its crab, still under the shared gate, the writer binary-splits the
  // leaf down to leaf_capacity (DecompressLeafStep) and re-descends. Eight
  // writers hammering disjoint key slices race those splits against each
  // other and against stab-list placement.
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(131, 2400, 3);
  ElementList loaded, inserted;
  for (size_t i = 0; i < elements.size(); ++i) {
    (i % 2 == 0 ? loaded : inserted).push_back(elements[i]);
  }
  TempDb db(512);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  options.compressed_pages = true;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(loaded));
  ASSERT_OK(tree.CheckConsistency());

  auto slices = Deal(inserted, kWriters);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());

  // Query answers match a serially built fixed-format reference.
  XrTreeOptions fixed = options;
  fixed.compressed_pages = false;
  XrTree serial(db.pool(), kInvalidPageId, fixed);
  ASSERT_OK(serial.BulkLoad(elements));
  Random rng(53);
  Position max_pos = elements.back().end + 5;
  for (int q = 0; q < 60; ++q) {
    Position sd = static_cast<Position>(rng.UniformRange(0, max_pos));
    ASSERT_OK_AND_ASSIGN(ElementList got, tree.FindAncestors(sd));
    ASSERT_OK_AND_ASSIGN(ElementList want, serial.FindAncestors(sd));
    EXPECT_EQ(got, want) << "FindAncestors(" << sd << ") diverged";
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST_P(XrWriterTest, CompressedPagesSurviveMixedChurn) {
  // Delete and Insert both decompress on first touch; racing them over a
  // compressed bulk load exercises underflow handling where the borrowed-
  // from sibling is itself still compressed.
  const int kWriters = GetParam();
  ElementList elements = RandomNestedElements(137, 1600, 3);
  ElementList churn;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i % 2 == 1) churn.push_back(elements[i]);
  }
  TempDb db(512);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  options.compressed_pages = true;
  XrTree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(elements));

  auto slices = Deal(churn, kWriters);
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!tree.Delete(e.start).ok()) errors.fetch_add(1);
        if (!tree.Insert(e).ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(tree.size(), elements.size());
  ASSERT_OK(tree.CheckConsistency());
  for (const Element& e : elements) {
    EXPECT_OK(tree.Search(e.start).status());
  }
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Writers, XrWriterTest, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "writers";
                         });

// ---------------------------------------------------------------------------
// Snapshot cursors during merging deletes, both trees
// ---------------------------------------------------------------------------

/// Cursor threads scan while deleters drain every other element of
/// half-full leaves, so leaves merge and their pages are freed under parked
/// cursors: a hop then meets a moved free epoch and re-descends. Every scan
/// must come back strictly increasing, with no error.
template <typename Tree, typename Options>
void ScanDuringMergingDeletes(uint64_t seed) {
  ElementList elements = RandomNestedElements(seed, 1600, 3);
  TempDb db(256);
  Options options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  Tree tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(tree.BulkLoad(elements, 0.5));
  ElementList keep, drop;
  for (size_t i = 0; i < elements.size(); ++i) {
    (i % 2 == 0 ? keep : drop).push_back(elements[i]);
  }
  const uint64_t epoch_before = db.pool()->free_epoch();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> reader_errors{0};
  std::atomic<uint64_t> order_violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(seed + r);
      while (!done.load(std::memory_order_acquire)) {
        const Element& e = elements[rng.Uniform(elements.size())];
        auto it = tree.LowerBound(e.start);
        if (!it.ok()) {
          reader_errors.fetch_add(1);
          continue;
        }
        Position prev = 0;
        bool first = true;
        for (int steps = 0; steps < 60 && it->Valid(); ++steps) {
          const Position s = it->Get().start;
          if (!first && s <= prev) order_violations.fetch_add(1);
          first = false;
          prev = s;
          std::this_thread::yield();  // let a merge land mid-scan
          if (!it->Next().ok()) {
            reader_errors.fetch_add(1);
            break;
          }
        }
        scans.fetch_add(1);
      }
    });
  }

  auto slices = Deal(drop, 2);
  std::atomic<uint64_t> writer_errors{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      while (scans.load() < 3) std::this_thread::yield();
      for (const Element& e : slices[w]) {
        if (!tree.Delete(e.start).ok()) writer_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0u);
  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);
  EXPECT_GT(db.pool()->free_epoch(), epoch_before);  // merges freed leaves
  EXPECT_EQ(tree.size(), keep.size());
  ASSERT_OK(tree.CheckConsistency());
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

TEST(ConcurrentCursorTest, BTreeScanDuringMergingDeletes) {
  ScanDuringMergingDeletes<BTree, BTreeOptions>(141);
}

TEST(ConcurrentCursorTest, XrTreeScanDuringMergingDeletes) {
  ScanDuringMergingDeletes<XrTree, XrTreeOptions>(143);
}

// ---------------------------------------------------------------------------
// Joins against concurrently built trees
// ---------------------------------------------------------------------------

TEST(ConcurrentWriterJoinTest, JoinOverConcurrentlyBuiltTreesMatchesOracle) {
  ElementList universe = RandomNestedElements(131, 1800, 3);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }
  ASSERT_FALSE(a_list.empty());
  ASSERT_FALSE(d_list.empty());

  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree a_tree(db.pool(), kInvalidPageId, options);
  XrTree d_tree(db.pool(), kInvalidPageId, options);

  // Build BOTH trees with 3 concurrent inserters each (6 writer threads
  // over one pool), then quiesce and join.
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (auto [tree, list] : {std::pair<XrTree*, ElementList*>{&a_tree, &a_list},
                            {&d_tree, &d_list}}) {
    auto slices = Deal(*list, 3);
    for (auto& slice : slices) {
      writers.emplace_back([&errors, tree, slice] {
        for (const Element& e : slice) {
          if (!tree->Insert(e).ok()) errors.fetch_add(1);
        }
      });
    }
  }
  for (auto& t : writers) t.join();
  ASSERT_EQ(errors.load(), 0u);
  ASSERT_OK(a_tree.CheckConsistency());
  ASSERT_OK(d_tree.CheckConsistency());

  auto want = Canonical(NestedLoopJoin(a_list, d_list).pairs);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(a_tree, d_tree));
  EXPECT_EQ(Canonical(serial.pairs), want);

  JoinOptions par_options;
  par_options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(a_tree, d_tree, par_options));
  EXPECT_EQ(par.pairs, serial.pairs);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

// Readers joining WHILE writers stream inserts: the weak-reader contract
// promises clean execution (typed results, no crashes or torn pages), and
// quiescing afterwards restores exact answers.
TEST(ConcurrentWriterJoinTest, JoinsDuringInsertChurnRunCleanly) {
  ElementList universe = RandomNestedElements(137, 1800, 3);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }

  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree a_tree(db.pool(), kInvalidPageId, options);
  XrTree d_tree(db.pool(), kInvalidPageId, options);
  // Ancestors are fully loaded; descendants stream in during the joins.
  ASSERT_OK(a_tree.BulkLoad(a_list));
  ElementList d_seed(d_list.begin(), d_list.begin() + d_list.size() / 4);
  ElementList d_rest(d_list.begin() + d_list.size() / 4, d_list.end());
  for (const Element& e : d_seed) ASSERT_OK(d_tree.Insert(e));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> join_errors{0};
  std::atomic<uint64_t> joins_run{0};
  std::vector<std::thread> joiners;
  for (int r = 0; r < 2; ++r) {
    joiners.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto out = XrStackJoin(a_tree, d_tree);
        if (!out.ok()) {
          join_errors.fetch_add(1);
        } else {
          joins_run.fetch_add(1);
          // Structural sanity of every emitted pair.
          for (const JoinPair& p : out->pairs) {
            if (!(p.ancestor.start < p.descendant.start &&
                  p.descendant.start < p.ancestor.end)) {
              join_errors.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }

  auto slices = Deal(d_rest, 2);
  std::atomic<uint64_t> writer_errors{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < slices.size(); ++w) {
    writers.emplace_back([&, w] {
      for (const Element& e : slices[w]) {
        if (!d_tree.Insert(e).ok()) writer_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : joiners) t.join();

  EXPECT_EQ(writer_errors.load(), 0u);
  EXPECT_EQ(join_errors.load(), 0u);
  EXPECT_GT(joins_run.load(), 0u);
  ASSERT_OK(d_tree.CheckConsistency());

  // Quiesced: the join is exact again.
  auto want = Canonical(NestedLoopJoin(a_list, d_list).pairs);
  ASSERT_OK_AND_ASSIGN(JoinOutput out, XrStackJoin(a_tree, d_tree));
  EXPECT_EQ(Canonical(out.pairs), want);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}


// Joins WHILE writers churn the ANCESTOR tree — the tree whose root-to-leaf
// path each join worker's probe cursor copies. Every write invalidates the
// copies, so probes keep re-descending and some race a writer and fall back
// to the one-shot path; all of it must run cleanly, and quiescing restores
// exact answers.
TEST(ConcurrentWriterJoinTest, JoinsDuringAncestorChurnRunCleanly) {
  ElementList universe = RandomNestedElements(139, 1800, 3);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }

  TempDb db(256);
  XrTreeOptions options;
  options.leaf_capacity = 4;
  options.internal_capacity = 4;
  XrTree a_tree(db.pool(), kInvalidPageId, options);
  XrTree d_tree(db.pool(), kInvalidPageId, options);
  ASSERT_OK(a_tree.BulkLoad(a_list));
  ASSERT_OK(d_tree.BulkLoad(d_list));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> join_errors{0};
  std::atomic<uint64_t> joins_run{0};
  std::atomic<uint64_t> fallbacks{0};
  auto join_loop = [&](uint32_t threads) {
    JoinOptions join_options;
    join_options.num_threads = threads;
    while (!done.load(std::memory_order_acquire)) {
      auto out = ParallelXrStackJoin(a_tree, d_tree, join_options);
      if (!out.ok()) {
        join_errors.fetch_add(1);
        continue;
      }
      joins_run.fetch_add(1);
      fallbacks.fetch_add(out->stats.probe_fallbacks);
      for (const JoinPair& p : out->pairs) {
        if (!(p.ancestor.start < p.descendant.start &&
              p.descendant.start < p.ancestor.end)) {
          join_errors.fetch_add(1);
          break;
        }
      }
    }
  };
  std::vector<std::thread> joiners;
  joiners.emplace_back(join_loop, 1);
  joiners.emplace_back(join_loop, 4);

  // Each writer deletes and re-inserts its slice of the ancestors, so the
  // tree ends where it started.
  auto slices = Deal(a_list, 2);
  std::atomic<uint64_t> writer_errors{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < slices.size(); ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < 2; ++round) {
        for (const Element& e : slices[w]) {
          if (!a_tree.Delete(e.start).ok()) writer_errors.fetch_add(1);
          if (!a_tree.Insert(e).ok()) writer_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : joiners) t.join();

  EXPECT_EQ(writer_errors.load(), 0u);
  EXPECT_EQ(join_errors.load(), 0u);
  EXPECT_GT(joins_run.load(), 0u);
  ASSERT_OK(a_tree.CheckConsistency());
  std::printf("ancestor churn: %llu joins, %llu probe fallbacks\n",
              static_cast<unsigned long long>(joins_run.load()),
              static_cast<unsigned long long>(fallbacks.load()));

  // Quiesced: exact again, serial and parallel, with no fallbacks.
  auto want = Canonical(NestedLoopJoin(a_list, d_list).pairs);
  ASSERT_OK_AND_ASSIGN(JoinOutput serial, XrStackJoin(a_tree, d_tree));
  EXPECT_EQ(Canonical(serial.pairs), want);
  EXPECT_EQ(serial.stats.probe_fallbacks, 0u);
  JoinOptions par_options;
  par_options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(JoinOutput par,
                       ParallelXrStackJoin(a_tree, d_tree, par_options));
  EXPECT_EQ(par.pairs, serial.pairs);
  EXPECT_EQ(par.stats.probe_fallbacks, 0u);
  EXPECT_EQ(db.pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace xrtree
