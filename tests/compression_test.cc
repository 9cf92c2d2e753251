#include "xrtree/page_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "join/xr_stack.h"
#include "storage/element_file.h"
#include "storage/varint.h"
#include "tests/test_util.h"
#include "xrtree/xrtree.h"
#include "xrtree/xrtree_iterator.h"

namespace xrtree {
namespace {

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint32_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  2097151,
                                  2097152,
                                  268435455,
                                  268435456,
                                  std::numeric_limits<uint32_t>::max()};
  for (uint32_t v : values) {
    uint8_t buf[kMaxVarint32Bytes];
    uint8_t* end = PutVarint32(buf, v);
    EXPECT_EQ(static_cast<size_t>(end - buf), Varint32Size(v));
    uint32_t got = 0;
    const uint8_t* p = GetVarint32(buf, end, &got);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(p, end);
    EXPECT_EQ(got, v);
  }
}

TEST(VarintTest, RoundTripFuzz) {
  Random rng(20260808);
  for (int i = 0; i < 20000; ++i) {
    uint32_t v = rng.Next32();
    // Mix magnitudes: small deltas dominate real payloads.
    if (i % 3 == 0) v &= 0xFF;
    if (i % 3 == 1) v &= 0xFFFF;
    uint8_t buf[kMaxVarint32Bytes];
    uint8_t* end = PutVarint32(buf, v);
    uint32_t got = 0;
    ASSERT_EQ(GetVarint32(buf, end, &got), end);
    ASSERT_EQ(got, v);
  }
}

TEST(VarintTest, TruncationDetected) {
  uint8_t buf[kMaxVarint32Bytes];
  uint8_t* end = PutVarint32(buf, 300000);  // multi-byte
  for (const uint8_t* limit = buf; limit < end; ++limit) {
    uint32_t got;
    EXPECT_EQ(GetVarint32(buf, limit, &got), nullptr);
  }
}

TEST(VarintTest, ZigZagRoundTrip) {
  std::vector<int32_t> values = {0, 1, -1, 2, -2, 1000, -1000,
                                 std::numeric_limits<int32_t>::max(),
                                 std::numeric_limits<int32_t>::min()};
  for (int32_t v : values) {
    EXPECT_EQ(UnZigZag32(ZigZag32(v)), v) << v;
  }
  EXPECT_EQ(ZigZag32(0), 0u);
  EXPECT_EQ(ZigZag32(-1), 1u);
  EXPECT_EQ(ZigZag32(1), 2u);
}

TEST(VarintTest, SizeSubadditive) {
  // The size-stability argument the in-place re-encode paths rely on.
  Random rng(7);
  for (int i = 0; i < 5000; ++i) {
    uint32_t a = rng.Next32();
    uint32_t b = rng.Next32();
    if (i % 2 == 0) {
      a &= 0xFFFF;
      b &= 0xFFFF;
    }
    uint64_t sum = uint64_t{a} + b;
    if (sum > std::numeric_limits<uint32_t>::max()) continue;
    EXPECT_LE(Varint32Size(static_cast<uint32_t>(sum)),
              Varint32Size(a) + Varint32Size(b));
  }
}

// ---------------------------------------------------------------------------
// Leaf codec
// ---------------------------------------------------------------------------

/// Strictly-increasing starts, assorted widths/levels/ids.
std::vector<Element> MakeLeafEntries(Random* rng, size_t n,
                                     bool adversarial) {
  std::vector<Element> out;
  Position start = adversarial ? 0 : 1 + rng->Uniform(100);
  for (size_t i = 0; i < n; ++i) {
    Position width;
    uint16_t level;
    uint32_t id;
    if (adversarial) {
      switch (rng->Uniform(5)) {
        case 0:  // zero-width region
          width = 0;
          break;
        case 1:  // huge region
          width = 0x7FFFFFFF + rng->Uniform(1000);
          break;
        default:
          width = rng->Uniform(50);
      }
      level = (rng->Uniform(2) == 0) ? 0 : 0xFFFF;  // level jumps
      id = (rng->Uniform(2) == 0) ? 0 : 0xFFFFFFFF - rng->Uniform(3);
    } else {
      width = 1 + rng->Uniform(1000);
      level = static_cast<uint16_t>(rng->Uniform(12));
      id = static_cast<uint32_t>(i * 3 + rng->Uniform(3));
    }
    Element e(start, start + width, level, id);
    if (rng->Uniform(3) == 0) SetInStabList(&e, true);
    out.push_back(e);
    Position step = adversarial && rng->Uniform(4) == 0
                        ? 0x00FFFFFF + rng->Uniform(1000)
                        : 1 + rng->Uniform(20);
    if (start > std::numeric_limits<Position>::max() - step - 2) break;
    start += step;
  }
  return out;
}

void CheckLeafRoundTrip(const std::vector<Element>& in) {
  Page page;
  auto* hdr = page.As<XrPageHeader>();
  hdr->magic = kXrLeafMagic;
  hdr->is_leaf = 1;
  size_t n = XrcEncodeLeaf(&page, in.data(), in.size());
  ASSERT_GE(n, 1u);
  ASSERT_LE(n, in.size());
  ASSERT_TRUE(XrLeafIsCompressed(&page));
  ASSERT_EQ(hdr->count, n);

  std::vector<Element> out;
  ASSERT_OK(XrcDecodeLeaf(&page, &out));
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].start, in[i].start) << i;
    EXPECT_EQ(out[i].end, in[i].end) << i;
    EXPECT_EQ(out[i].level, in[i].level) << i;
    EXPECT_EQ(out[i].id, in[i].id) << i;
    EXPECT_EQ(InStabList(out[i]), InStabList(in[i])) << i;
  }

  // Point lookups: every present key found, gaps not found.
  for (size_t i = 0; i < n; i += 7) {
    Element got;
    ASSERT_OK_AND_ASSIGN(bool found, XrLeafFind(&page, in[i].start, &got));
    ASSERT_TRUE(found);
    EXPECT_EQ(got.end, in[i].end);
    EXPECT_EQ(got.id, in[i].id);
  }
  for (size_t i = 0; i + 1 < n; i += 11) {
    if (in[i + 1].start > in[i].start + 1) {
      Element got;
      ASSERT_OK_AND_ASSIGN(bool found,
                           XrLeafFind(&page, in[i].start + 1, &got));
      EXPECT_FALSE(found);
    }
  }

  // Suffix decode from assorted anchors matches the full decode's suffix.
  for (size_t i = 0; i < n; i += 13) {
    std::vector<Element> suffix;
    ASSERT_OK(XrcDecodeLeafFrom(&page, in[i].start, &suffix));
    ASSERT_FALSE(suffix.empty());
    // Must cover everything from in[i] through the page end.
    auto it = std::find_if(suffix.begin(), suffix.end(), [&](const Element& e) {
      return e.start == in[i].start;
    });
    ASSERT_NE(it, suffix.end());
    ASSERT_EQ(static_cast<size_t>(suffix.end() - it), n - i);
    for (size_t j = 0; j < n - i; ++j) {
      EXPECT_EQ(it[j].start, in[i + j].start);
      EXPECT_EQ(it[j].end, in[i + j].end);
    }
  }
}

TEST(LeafCodecTest, SingleEntry) {
  CheckLeafRoundTrip({Element(42, 43, 3, 7)});
  CheckLeafRoundTrip({Element(0, 0, 0, 0)});
  Element max_e(0xFFFFFFFE, 0xFFFFFFFE, 0xFFFF, 0xFFFFFFFF);
  CheckLeafRoundTrip({max_e});
}

TEST(LeafCodecTest, ExactBlockBoundaries) {
  Random rng(1);
  for (size_t n : {kXrcBlockEntries - 1, kXrcBlockEntries,
                   kXrcBlockEntries + 1, 2 * kXrcBlockEntries}) {
    CheckLeafRoundTrip(MakeLeafEntries(&rng, n, false));
  }
}

TEST(LeafCodecTest, RandomFuzz) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    size_t n = 1 + rng.Uniform(600);
    CheckLeafRoundTrip(MakeLeafEntries(&rng, n, false));
  }
}

TEST(LeafCodecTest, AdversarialFuzz) {
  for (uint64_t seed = 100; seed <= 140; ++seed) {
    Random rng(seed);
    size_t n = 1 + rng.Uniform(600);
    CheckLeafRoundTrip(MakeLeafEntries(&rng, n, true));
  }
}

TEST(LeafCodecTest, LongestPrefixNeverOverflows) {
  // Feed far more than fits; the encoder must take a prefix and the page
  // must still decode cleanly.
  Random rng(55);
  std::vector<Element> big = MakeLeafEntries(&rng, kXrcMaxPageEntries + 200,
                                             false);
  Page page;
  auto* hdr = page.As<XrPageHeader>();
  hdr->magic = kXrLeafMagic;
  hdr->is_leaf = 1;
  size_t n = XrcEncodeLeaf(&page, big.data(), big.size());
  ASSERT_GE(n, 1u);
  ASSERT_LE(n, kXrcMaxPageEntries);
  std::vector<Element> out;
  ASSERT_OK(XrcDecodeLeaf(&page, &out));
  ASSERT_EQ(out.size(), n);
  EXPECT_EQ(out.back().start, big[n - 1].start);
}

TEST(LeafCodecTest, SetFlagIsSizeStableAndInPlace) {
  Random rng(9);
  std::vector<Element> in = MakeLeafEntries(&rng, 400, false);
  for (Element& e : in) SetInStabList(&e, false);
  Page page;
  auto* hdr = page.As<XrPageHeader>();
  hdr->magic = kXrLeafMagic;
  hdr->is_leaf = 1;
  size_t n = XrcEncodeLeaf(&page, in.data(), in.size());
  ASSERT_GE(n, 1u);
  // Flip every other flag on, then verify only flags changed.
  for (size_t i = 0; i < n; i += 2) {
    ASSERT_OK_AND_ASSIGN(bool found,
                         XrLeafSetFlag(&page, in[i].start, true));
    ASSERT_TRUE(found);
  }
  std::vector<Element> out;
  ASSERT_OK(XrcDecodeLeaf(&page, &out));
  ASSERT_EQ(out.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(InStabList(out[i]), i % 2 == 0) << i;
    EXPECT_EQ(out[i].start, in[i].start);
    EXPECT_EQ(out[i].end, in[i].end);
  }
  // Clearing restores the original bytes exactly (in-place, size-stable).
  std::vector<char> before(page.data(), page.data() + kPageSize);
  for (size_t i = 0; i < n; i += 2) {
    ASSERT_OK_AND_ASSIGN(bool found,
                         XrLeafSetFlag(&page, in[i].start, false));
    ASSERT_TRUE(found);
  }
  for (size_t i = 0; i < n; i += 2) {
    ASSERT_OK_AND_ASSIGN(bool found,
                         XrLeafSetFlag(&page, in[i].start, true));
    ASSERT_TRUE(found);
  }
  EXPECT_EQ(std::memcmp(before.data(), page.data(), kPageSize), 0);
  // A missing key reports not-found without touching the page.
  if (n > 1 && in[1].start > in[0].start + 1) {
    ASSERT_OK_AND_ASSIGN(bool found,
                         XrLeafSetFlag(&page, in[0].start + 1, true));
    EXPECT_FALSE(found);
  }
}

// ---------------------------------------------------------------------------
// Stab codec
// ---------------------------------------------------------------------------

std::vector<StabEntry> MakeStabEntries(Random* rng, size_t n,
                                       bool adversarial) {
  std::vector<StabEntry> out;
  Position key = 10 + rng->Uniform(50);
  while (out.size() < n) {
    // A nested run under this key: s ascending, e descending.
    size_t run = 1 + rng->Uniform(6);
    Position s = key > 2000 ? key - 2000 : 0;
    Position e = adversarial && rng->Uniform(3) == 0 ? 0xFFFFFFFE
                                                     : key + 1 + rng->Uniform(4000);
    for (size_t j = 0; j < run && out.size() < n; ++j) {
      if (s > key || e <= key) break;
      out.push_back(StabEntry{s, e, key,
                              static_cast<uint32_t>(out.size() * 7),
                              static_cast<uint16_t>(rng->Uniform(9)), 0});
      s += 1 + rng->Uniform(30);
      if (e < key + 2) break;
      e -= 1 + rng->Uniform(std::min<Position>(e - key - 1, 30));
    }
    Position step = adversarial && rng->Uniform(5) == 0
                        ? 0x01000000
                        : 1 + rng->Uniform(500);
    if (key > std::numeric_limits<Position>::max() - step - 4100) break;
    key += step;
  }
  return out;
}

TEST(StabCodecTest, RoundTripFuzz) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Random rng(seed);
    size_t n = 1 + rng.Uniform(400);
    bool adversarial = seed % 2 == 0;
    std::vector<StabEntry> in = MakeStabEntries(&rng, n, adversarial);
    ASSERT_FALSE(in.empty());
    Page page;
    auto* hdr = page.As<StabPageHeader>();
    hdr->magic = kXrStabMagic;
    size_t taken = XrcEncodeStab(&page, in.data(), in.size());
    ASSERT_GE(taken, 1u);
    ASSERT_TRUE(StabPageIsCompressed(&page));
    std::vector<StabEntry> out;
    ASSERT_OK(XrcDecodeStab(&page, &out));
    ASSERT_EQ(out.size(), taken);
    for (size_t i = 0; i < taken; ++i) {
      EXPECT_EQ(out[i].s, in[i].s) << i;
      EXPECT_EQ(out[i].e, in[i].e) << i;
      EXPECT_EQ(out[i].key, in[i].key) << i;
      EXPECT_EQ(out[i].elem_id, in[i].elem_id) << i;
      EXPECT_EQ(out[i].level, in[i].level) << i;
    }

    // Per-key decode: the run for each key must be fully present, and
    // whenever the decode does not reach the page end there must be a
    // terminator entry with a larger key.
    for (size_t i = 0; i < taken; i += 5) {
      Position key = in[i].key;
      std::vector<StabEntry> got;
      bool covers_end = false;
      ASSERT_OK(XrcDecodeStabForKey(&page, key, &got, &covers_end));
      size_t want = 0, have = 0;
      for (size_t j = 0; j < taken; ++j) {
        if (in[j].key == key) ++want;
      }
      bool has_terminator = false;
      for (const StabEntry& se : got) {
        if (se.key == key) ++have;
        if (se.key > key) has_terminator = true;
      }
      EXPECT_EQ(have, want) << "key " << key;
      EXPECT_TRUE(covers_end || has_terminator) << "key " << key;
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-level equivalence
// ---------------------------------------------------------------------------

void StripFlags(ElementList* list) {
  for (Element& e : *list) e.flags = 0;
}

XrTreeOptions SmallOpts(bool compressed) {
  XrTreeOptions o;
  o.leaf_capacity = 16;
  o.internal_capacity = 8;
  o.compressed_pages = compressed;
  return o;
}

/// All elements via the iterator, flags stripped.
ElementList DumpTree(const XrTree& tree) {
  ElementList out;
  auto it = tree.Begin().value();
  while (it.Valid()) {
    Element e = it.Get();
    e.flags = 0;
    out.push_back(e);
    EXPECT_OK(it.Next());
  }
  return out;
}

TEST(CompressedTreeTest, JoinOutputByteIdentical) {
  ElementList anc = RandomNestedElements(31, 1500, 3);
  ElementList desc = RandomNestedElements(32, 1500, 5);
  TempDb db_f(4096), db_c(4096);
  XrTree af(db_f.pool(), kInvalidPageId, SmallOpts(false));
  XrTree df(db_f.pool(), kInvalidPageId, SmallOpts(false));
  XrTree ac(db_c.pool(), kInvalidPageId, SmallOpts(true));
  XrTree dc(db_c.pool(), kInvalidPageId, SmallOpts(true));
  ASSERT_OK(af.BulkLoad(anc));
  ASSERT_OK(df.BulkLoad(desc));
  ASSERT_OK(ac.BulkLoad(anc));
  ASSERT_OK(dc.BulkLoad(desc));
  ASSERT_OK(ac.CheckConsistency());
  ASSERT_OK(dc.CheckConsistency());

  JoinOptions options;
  options.materialize = true;
  ASSERT_OK_AND_ASSIGN(JoinOutput fixed, XrStackJoin(af, df, options));
  ASSERT_OK_AND_ASSIGN(JoinOutput comp, XrStackJoin(ac, dc, options));
  ASSERT_EQ(fixed.pairs.size(), comp.pairs.size());
  for (size_t i = 0; i < fixed.pairs.size(); ++i) {
    // The InStabList flag is storage bookkeeping (it depends on leaf page
    // boundaries, which the formats draw differently); everything else in
    // the pair must match byte for byte.
    JoinPair f = fixed.pairs[i], c = comp.pairs[i];
    f.ancestor.flags = f.descendant.flags = 0;
    c.ancestor.flags = c.descendant.flags = 0;
    ASSERT_EQ(std::memcmp(&f, &c, sizeof(f)), 0) << i;
  }

  // Point queries agree too.
  for (size_t i = 0; i < anc.size(); i += 97) {
    ASSERT_OK_AND_ASSIGN(Element ef, af.Search(anc[i].start));
    ASSERT_OK_AND_ASSIGN(Element ec, ac.Search(anc[i].start));
    ef.flags = ec.flags = 0;
    EXPECT_EQ(std::memcmp(&ef, &ec, sizeof(Element)), 0);
  }
  ASSERT_OK_AND_ASSIGN(ElementList fa, af.FindAncestors(anc[40].start + 1));
  ASSERT_OK_AND_ASSIGN(ElementList ca, ac.FindAncestors(anc[40].start + 1));
  EXPECT_EQ(fa, ca);
}

TEST(CompressedTreeTest, InsertDecompressesOnWrite) {
  ElementList all = RandomNestedElements(77, 1200, 4);
  // Load the even half compressed, insert the odd half incrementally.
  ElementList loaded, inserted;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 2 == 0 ? loaded : inserted).push_back(all[i]);
  }
  TempDb db(4096);
  XrTree tree(db.pool(), kInvalidPageId, SmallOpts(true));
  ASSERT_OK(tree.BulkLoad(loaded));
  ASSERT_OK(tree.CheckConsistency());
  for (const Element& e : inserted) ASSERT_OK(tree.Insert(e));
  ASSERT_OK(tree.CheckConsistency());
  ElementList got = DumpTree(tree);
  ElementList want = all;
  StripFlags(&want);
  EXPECT_EQ(got, want);
}

TEST(CompressedTreeTest, DeleteOnCompressedPages) {
  ElementList all = RandomNestedElements(99, 1000, 4);
  TempDb db(4096);
  XrTree tree(db.pool(), kInvalidPageId, SmallOpts(true));
  ASSERT_OK(tree.BulkLoad(all));
  // Delete every third element (exercises decompress + underflow with
  // compressed siblings), verifying structure as we go.
  ElementList kept;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_OK(tree.Delete(all[i].start));
    } else {
      kept.push_back(all[i]);
    }
    if (i % 200 == 0) ASSERT_OK(tree.CheckConsistency());
  }
  ASSERT_OK(tree.CheckConsistency());
  ElementList got = DumpTree(tree);
  StripFlags(&kept);
  EXPECT_EQ(got, kept);
}

TEST(CompressedTreeTest, StreamingBulkLoadMatchesInMemory) {
  ElementList all = RandomNestedElements(123, 3000, 5);
  TempDb db(8192);
  ElementFile file(db.pool());
  ASSERT_OK(file.Build(all));

  XrTree mem(db.pool(), kInvalidPageId, SmallOpts(true));
  ASSERT_OK(mem.BulkLoad(all));
  XrTree streamed(db.pool(), kInvalidPageId, SmallOpts(true));
  ASSERT_OK(streamed.BulkLoadFromFile(file));
  ASSERT_OK(streamed.CheckConsistency());
  EXPECT_EQ(DumpTree(streamed), DumpTree(mem));
  ASSERT_OK_AND_ASSIGN(uint64_t n, streamed.CountEntries());
  EXPECT_EQ(n, all.size());

  // Unsorted input is rejected, same contract as the in-memory load.
  ElementList shuffled = all;
  std::swap(shuffled.front(), shuffled.back());
  ElementFile bad(db.pool());
  ASSERT_OK(bad.Build(shuffled));  // file build does not sort-check
  XrTree rejected(db.pool(), kInvalidPageId, SmallOpts(true));
  EXPECT_TRUE(rejected.BulkLoadFromFile(bad).IsInvalidArgument());
}

TEST(CompressedTreeTest, CompactRecompressesGrownTree) {
  ElementList all = RandomNestedElements(321, 1500, 4);
  TempDb db(8192);
  XrTree tree(db.pool(), kInvalidPageId, SmallOpts(true));
  // Grow purely through Insert: pages end up fixed-format (decompress-on-
  // write) and half-full.
  for (const Element& e : all) ASSERT_OK(tree.Insert(e));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(StabStats before, tree.ComputeStabStats());
  ElementList before_dump = DumpTree(tree);

  ASSERT_OK(tree.Compact());
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(StabStats after, tree.ComputeStabStats());
  EXPECT_LT(after.leaf_pages, before.leaf_pages);
  EXPECT_EQ(DumpTree(tree), before_dump);
  ASSERT_OK_AND_ASSIGN(uint64_t n, tree.CountEntries());
  EXPECT_EQ(n, all.size());
}

TEST(CompressedTreeTest, CountEntriesAfterReopenByRoot) {
  // A compressed leaf holds up to kXrcMaxPageEntries, far more than a
  // fixed one: counting a compact compressed tree reattached by root must
  // not trip the leaf-walk cycle guard, whose bound is per page.
  ElementList all = RandomNestedElements(555, 20000, 6);
  TempDb db(8192);
  PageId root = kInvalidPageId;
  {
    XrTreeOptions opts;
    opts.compressed_pages = true;
    XrTree tree(db.pool(), kInvalidPageId, opts);
    ASSERT_OK(tree.BulkLoad(all));
    root = tree.root();
  }
  db.Reopen(8192);
  XrTree reopened(db.pool(), root);
  ASSERT_OK_AND_ASSIGN(uint64_t n, reopened.CountEntries());
  EXPECT_EQ(n, all.size());
}

TEST(CompressedTreeTest, FullCapacityCompressedLeaves) {
  // Default (253-entry) leaf capacity with realistic data: compressed
  // leaves should carry well past the fixed cap, and everything must still
  // round-trip through queries.
  ElementList all = RandomNestedElements(555, 20000, 6);
  TempDb db(8192);
  XrTreeOptions opts;
  opts.compressed_pages = true;
  XrTree tree(db.pool(), kInvalidPageId, opts);
  ASSERT_OK(tree.BulkLoad(all));
  ASSERT_OK(tree.CheckConsistency());
  ASSERT_OK_AND_ASSIGN(StabStats stats, tree.ComputeStabStats());
  XrTreeOptions fopts;
  TempDb fdb(8192);
  XrTree ftree(fdb.pool(), kInvalidPageId, fopts);
  ASSERT_OK(ftree.BulkLoad(all));
  ASSERT_OK_AND_ASSIGN(StabStats fstats, ftree.ComputeStabStats());
  // The headline claim: >= 2.5x leaf fan-out on generated nested data.
  EXPECT_LE(stats.leaf_pages * 5, fstats.leaf_pages * 2);
  ElementList got = DumpTree(tree);
  ElementList want = all;
  StripFlags(&want);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace xrtree
