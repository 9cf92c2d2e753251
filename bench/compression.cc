// Compressed-page study: the same corpus built with fixed-slot and with
// delta+FOR compressed leaf/stab pages (DESIGN.md §15), comparing page
// footprint and the pages an XR-stack join actually touches, plus the
// streaming bulk load (XrTree::BulkLoadFromFile) at 10x scale to show the
// build never materializes the element list.
//
// Usage: compression [--json <path>] [--require-ratio R]
//   --json PATH       write machine-readable results to PATH
//   --require-ratio R exit nonzero unless
//                     compressed (leaf+stab pages) <= R * fixed pages.
//                     CI runs with R=0.4 (the paper-motivated 2.5x+ fan-out
//                     target with margin).
//
// Environment knobs:
//   XR_COMP_SCALE  elements per dataset side (default 60000)
//   XR_COMP_POOL   measurement pool size in pages (default 256)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "join/xr_stack.h"
#include "storage/element_file.h"

namespace xrtree {
namespace bench {
namespace {

struct FormatResult {
  std::string format;
  uint64_t elements = 0;
  uint64_t leaf_pages = 0;
  uint64_t stab_pages = 0;
  uint64_t ps_dir_pages = 0;
  uint64_t internal_nodes = 0;
  double bytes_per_element = 0;
  double build_seconds = 0;
  uint64_t join_pages_touched = 0;  ///< buffer hits + misses over the join
  uint64_t join_misses = 0;
  uint64_t pairs = 0;
};

FormatResult BuildAndJoin(const Dataset& ds, bool compressed,
                          uint64_t pool_pages) {
  FormatResult r;
  r.format = compressed ? "compressed" : "fixed";
  BenchDb db(8192);
  XrTreeOptions xopt;
  xopt.compressed_pages = compressed;
  PageId a_root, d_root;
  uint64_t a_leaf_pages = 0;
  {
    XrTree a_tree(db.pool(), kInvalidPageId, xopt);
    XrTree d_tree(db.pool(), kInvalidPageId, xopt);
    auto t0 = std::chrono::steady_clock::now();
    XR_CHECK_OK(a_tree.BulkLoad(ds.ancestors));
    XR_CHECK_OK(d_tree.BulkLoad(ds.descendants));
    auto t1 = std::chrono::steady_clock::now();
    r.build_seconds = std::chrono::duration<double>(t1 - t0).count();
    a_root = a_tree.root();
    d_root = d_tree.root();
    // Footprint over BOTH trees: the ratio guard covers leaf and stab
    // pages, the two layers the codec compresses.
    StabStats sa = a_tree.ComputeStabStats().value();
    StabStats sd = d_tree.ComputeStabStats().value();
    r.leaf_pages = sa.leaf_pages + sd.leaf_pages;
    r.stab_pages = sa.stab_pages + sd.stab_pages;
    r.ps_dir_pages = sa.ps_dir_pages + sd.ps_dir_pages;
    r.internal_nodes = sa.internal_nodes + sd.internal_nodes;
    a_leaf_pages = sa.leaf_pages;
    (void)a_leaf_pages;
  }
  r.elements = ds.ancestors.size() + ds.descendants.size();
  r.bytes_per_element =
      static_cast<double>((r.leaf_pages + r.stab_pages) * kPageSize) /
      static_cast<double>(r.elements);

  // Pages touched per join: every FetchPage the join issues, resident or
  // not, against a cold measurement pool.
  db.SwapPool(pool_pages);
  XrTree a_xr(db.pool(), a_root);
  XrTree d_xr(db.pool(), d_root);
  JoinOptions options;
  options.materialize = false;
  IoStats before = db.pool()->stats();
  JoinOutput out = XrStackJoin(a_xr, d_xr, options).value();
  db.pool()->WaitForPrefetchIdle();
  IoStats io = db.pool()->stats() - before;
  r.join_pages_touched = io.buffer_hits + io.buffer_misses;
  r.join_misses = io.buffer_misses;
  r.pairs = out.stats.output_pairs;
  return r;
}

void PrintResult(const FormatResult& r) {
  std::printf(
      "%-10s leaf=%llu stab=%llu psdir=%llu bytes/elem=%.2f "
      "join_touched=%llu misses=%llu pairs=%llu build=%.2fs\n",
      r.format.c_str(), (unsigned long long)r.leaf_pages,
      (unsigned long long)r.stab_pages, (unsigned long long)r.ps_dir_pages,
      r.bytes_per_element, (unsigned long long)r.join_pages_touched,
      (unsigned long long)r.join_misses, (unsigned long long)r.pairs,
      r.build_seconds);
}

std::string FormatJson(const FormatResult& r) {
  JsonObject o;
  o.Set("format", r.format);
  o.Set("elements", r.elements);
  o.Set("leaf_pages", r.leaf_pages);
  o.Set("stab_pages", r.stab_pages);
  o.Set("leaf_plus_stab_pages", r.leaf_pages + r.stab_pages);
  o.Set("ps_dir_pages", r.ps_dir_pages);
  o.Set("internal_nodes", r.internal_nodes);
  o.Set("bytes_per_element", r.bytes_per_element);
  o.Set("build_seconds", r.build_seconds);
  o.Set("join_pages_touched", r.join_pages_touched);
  o.Set("join_misses", r.join_misses);
  o.Set("pairs", r.pairs);
  return o.Dump();
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main(int argc, char** argv) {
  using namespace xrtree;
  using namespace xrtree::bench;

  double require_ratio = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--require-ratio" && i + 1 < argc) {
      require_ratio = std::strtod(argv[i + 1], nullptr);
    }
  }
  const std::string json_path = ParseJsonPathArg(argc, argv);
  const uint64_t scale = EnvU64("XR_COMP_SCALE", 60000);
  const uint64_t pool_pages = EnvU64("XR_COMP_POOL", 256);

  PrintHeader("Compressed leaf & stab pages (delta+FOR mini-blocks)");
  std::printf("scale=%llu elements/side, measurement pool=%llu pages\n\n",
              (unsigned long long)scale, (unsigned long long)pool_pages);

  auto ds = MakeDepartmentDataset(scale);
  XR_CHECK_OK(ds.status());

  FormatResult fixed = BuildAndJoin(*ds, false, pool_pages);
  FormatResult comp = BuildAndJoin(*ds, true, pool_pages);
  PrintResult(fixed);
  PrintResult(comp);

  uint64_t fixed_pages = fixed.leaf_pages + fixed.stab_pages;
  uint64_t comp_pages = comp.leaf_pages + comp.stab_pages;
  double page_ratio = fixed_pages > 0
                          ? static_cast<double>(comp_pages) / fixed_pages
                          : 1.0;
  double fanout_gain = comp.leaf_pages > 0
                           ? static_cast<double>(fixed.leaf_pages) /
                                 static_cast<double>(comp.leaf_pages)
                           : 0.0;
  double join_ratio =
      fixed.join_pages_touched > 0
          ? static_cast<double>(comp.join_pages_touched) /
                static_cast<double>(fixed.join_pages_touched)
          : 1.0;
  bool pairs_match = fixed.pairs == comp.pairs;
  std::printf(
      "\nleaf+stab pages: %llu -> %llu (ratio %.3f, leaf fan-out gain "
      "%.2fx)\njoin pages touched: %llu -> %llu (ratio %.3f)\n",
      (unsigned long long)fixed_pages, (unsigned long long)comp_pages,
      page_ratio, fanout_gain, (unsigned long long)fixed.join_pages_touched,
      (unsigned long long)comp.join_pages_touched, join_ratio);

  // Streaming bulk load at 10x: the corpus lives in an on-disk ElementFile
  // and streams into compressed pages through a bounded lookahead — the
  // element list is never materialized by the build.
  const uint64_t big_scale = scale * 10;
  double stream_seconds = 0;
  uint64_t stream_elements = 0;
  uint64_t stream_leaf_pages = 0;
  {
    BenchDb db(8192);
    ElementFile file(db.pool());
    {
      auto big = MakeDepartmentDataset(big_scale);
      XR_CHECK_OK(big.status());
      XR_CHECK_OK(file.Build(big->ancestors));
      stream_elements = big->ancestors.size();
    }  // generated list is gone before the tree build starts
    XrTreeOptions xopt;
    xopt.compressed_pages = true;
    XrTree tree(db.pool(), kInvalidPageId, xopt);
    auto t0 = std::chrono::steady_clock::now();
    XR_CHECK_OK(tree.BulkLoadFromFile(file));
    auto t1 = std::chrono::steady_clock::now();
    stream_seconds = std::chrono::duration<double>(t1 - t0).count();
    XR_CHECK_OK(tree.CheckConsistency());
    stream_leaf_pages = tree.ComputeStabStats().value().leaf_pages;
  }
  std::printf(
      "\nstreaming bulk load (10x): %llu elements -> %llu compressed leaf "
      "pages in %.2fs\n",
      (unsigned long long)stream_elements,
      (unsigned long long)stream_leaf_pages, stream_seconds);

  if (!json_path.empty()) {
    JsonObject top;
    top.Set("bench", "compression");
    top.Set("scale", scale);
    top.Set("pool_pages", pool_pages);
    top.SetRaw("fixed", FormatJson(fixed));
    top.SetRaw("compressed", FormatJson(comp));
    top.Set("page_ratio", page_ratio);
    top.Set("leaf_fanout_gain", fanout_gain);
    top.Set("join_pages_ratio", join_ratio);
    top.Set("pairs_match", pairs_match);
    JsonObject stream;
    stream.Set("scale", big_scale);
    stream.Set("elements", stream_elements);
    stream.Set("leaf_pages", stream_leaf_pages);
    stream.Set("build_seconds", stream_seconds);
    top.SetRaw("streaming", stream.Dump());
    if (!WriteTextFile(json_path, top.Dump())) return 1;
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!pairs_match) {
    std::printf("\nFAIL: join pair counts diverged between formats\n");
    return 1;
  }
  if (require_ratio > 0 && page_ratio > require_ratio) {
    std::printf(
        "\nFAIL: compressed leaf+stab pages are %.3fx the fixed format "
        "(required <= %.3fx)\n",
        page_ratio, require_ratio);
    return 1;
  }
  if (require_ratio > 0) {
    std::printf("\nratio guard: %.3f <= %.3f\n", page_ratio, require_ratio);
  }
  return 0;
}
