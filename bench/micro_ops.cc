// Google-benchmark micro-benchmarks for the individual primitives: index
// maintenance, the two query operations of §5.1, region encoding and the
// buffer pool. Complements the table/figure reproductions with per-op
// latency numbers.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "btree/btree.h"
#include "join/mpmgjn.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"
#include "rtree/rtree.h"
#include "common/random.h"
#include "storage/checksum.h"
#include "xml/document.h"
#include "xml/generator.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {
namespace {

ElementList NestedElements(uint32_t n) {
  Document doc = Generator::GenerateNested(/*nesting=*/16, /*chains=*/n / 32,
                                           /*fanout=*/1);
  doc.EncodeRegions(1);
  ElementList out = doc.ElementsWithTag("nest");
  ElementList leaves = doc.ElementsWithTag("leaf");
  out.insert(out.end(), leaves.begin(), leaves.end());
  std::sort(out.begin(), out.end());
  out.resize(std::min<size_t>(out.size(), n));
  return out;
}

void BM_BufferPoolFetchHit(benchmark::State& state) {
  BenchDb db(64);
  Page* p = db.pool()->NewPage().value();
  PageId id = p->page_id();
  XR_CHECK_OK(db.pool()->UnpinPage(id, false));
  for (auto _ : state) {
    Page* page = db.pool()->FetchPage(id).value();
    benchmark::DoNotOptimize(page);
    db.pool()->UnpinPage(id, false).ok();
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

// Pool set-up alone: the frame mapping, the frames' bookkeeping and the
// read-ahead queue. Frame bytes are faulted in by first use, not here.
void BM_BufferPoolConstruct(benchmark::State& state) {
  BenchDb db(8);
  const size_t frames = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    BufferPool pool(db.disk(), frames);
    benchmark::DoNotOptimize(pool.pool_size());
  }
}
BENCHMARK(BM_BufferPoolConstruct)->Arg(4096);

// The integrity check every miss verifies and every write-back stamps.
void BM_ComputePageCrc(benchmark::State& state) {
  std::vector<char> page(kPageSize);
  Random rng(3);
  for (char& c : page) c = static_cast<char>(rng.Next32());
  PageId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePageCrc(page.data(), ++id, 0));
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_ComputePageCrc);

void BM_RegionEncode(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Document doc = Generator::GenerateNested(8, n / 16, 1);
    state.ResumeTiming();
    doc.EncodeRegions(1);
    benchmark::DoNotOptimize(doc.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RegionEncode)->Arg(4096)->Arg(65536);

template <typename Tree>
void BM_IndexInsert(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  ElementList elems = NestedElements(n);
  Random rng(1);
  for (size_t i = elems.size(); i > 1; --i) {
    std::swap(elems[i - 1], elems[rng.Uniform(i)]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    BenchDb db(1024);
    Tree tree(db.pool());
    state.ResumeTiming();
    for (const Element& e : elems) XR_CHECK_OK(tree.Insert(e));
  }
  state.SetItemsProcessed(state.iterations() * elems.size());
}
BENCHMARK_TEMPLATE(BM_IndexInsert, BTree)->Arg(10000)->Name("BM_BTreeInsert");
BENCHMARK_TEMPLATE(BM_IndexInsert, XrTree)
    ->Arg(10000)
    ->Name("BM_XrTreeInsert");

void BM_XrBulkLoad(benchmark::State& state) {
  ElementList elems = NestedElements(static_cast<uint32_t>(state.range(0)));
  uint64_t fetches = 0;
  uint64_t pages = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchDb db(1024);
    const IoStats before = db.pool()->stats();
    state.ResumeTiming();
    XrTree tree(db.pool());
    XR_CHECK_OK(tree.BulkLoad(elems));
    state.PauseTiming();
    const IoStats load = db.pool()->stats() - before;
    fetches += load.total_page_accesses();
    pages += load.pages_allocated;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * elems.size());
  // Pool fetches and pages written per load.
  state.counters["fetches"] = benchmark::Counter(
      static_cast<double>(fetches), benchmark::Counter::kAvgIterations);
  state.counters["pages"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_XrBulkLoad)->Arg(100000);

void BM_FindAncestors(benchmark::State& state) {
  ElementList elems = NestedElements(100000);
  BenchDb db(4096);
  XrTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(elems));
  Random rng(3);
  for (auto _ : state) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    auto anc = tree.FindAncestors(sd).value();
    benchmark::DoNotOptimize(anc);
  }
}
BENCHMARK(BM_FindAncestors);

void BM_FindDescendants(benchmark::State& state) {
  ElementList elems = NestedElements(100000);
  BenchDb db(4096);
  XrTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(elems));
  Random rng(3);
  for (auto _ : state) {
    const Element& a = elems[rng.Uniform(elems.size())];
    auto desc = tree.FindDescendants(a).value();
    benchmark::DoNotOptimize(desc);
  }
}
BENCHMARK(BM_FindDescendants);

void BM_BTreeSearch(benchmark::State& state) {
  ElementList elems = NestedElements(100000);
  BenchDb db(4096);
  BTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(elems));
  Random rng(5);
  for (auto _ : state) {
    auto e = tree.Search(elems[rng.Uniform(elems.size())].start);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_BTreeSearch);

void BM_RTreeBulkLoad(benchmark::State& state) {
  ElementList elems = NestedElements(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    BenchDb db(4096);
    state.ResumeTiming();
    RTree tree(db.pool());
    XR_CHECK_OK(tree.BulkLoad(elems));
  }
  state.SetItemsProcessed(state.iterations() * elems.size());
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(100000);

void BM_RTreeFindAncestors(benchmark::State& state) {
  ElementList elems = NestedElements(100000);
  BenchDb db(4096);
  RTree tree(db.pool());
  XR_CHECK_OK(tree.BulkLoad(elems));
  Random rng(3);
  for (auto _ : state) {
    Position sd = elems[rng.Uniform(elems.size())].start + 1;
    auto anc = tree.FindAncestors(sd).value();
    benchmark::DoNotOptimize(anc);
  }
}
BENCHMARK(BM_RTreeFindAncestors);

template <typename Fn>
void JoinBenchBody(benchmark::State& state, Fn&& run) {
  ElementList universe = NestedElements(60000);
  ElementList a_list, d_list;
  for (const Element& e : universe) {
    (e.level % 2 == 0 ? a_list : d_list).push_back(e);
  }
  BenchDb db(8192);
  StoredElementSet a_set(db.pool(), "A");
  StoredElementSet d_set(db.pool(), "D");
  XR_CHECK_OK(a_set.Build(a_list));
  XR_CHECK_OK(d_set.Build(d_list));
  JoinOptions options;
  options.materialize = false;
  uint64_t pairs = 0;
  for (auto _ : state) {
    pairs = run(a_set, d_set, options);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_JoinStackTreeDesc(benchmark::State& state) {
  JoinBenchBody(state, [](const StoredElementSet& a,
                          const StoredElementSet& d,
                          const JoinOptions& options) {
    return StackTreeDescJoin(a.file(), d.file(), options)
        .value()
        .stats.output_pairs;
  });
}
BENCHMARK(BM_JoinStackTreeDesc);

void BM_JoinXrStack(benchmark::State& state) {
  JoinBenchBody(state, [](const StoredElementSet& a,
                          const StoredElementSet& d,
                          const JoinOptions& options) {
    return XrStackJoin(a.xrtree(), d.xrtree(), options)
        .value()
        .stats.output_pairs;
  });
}
BENCHMARK(BM_JoinXrStack);

void BM_JoinMpmgjn(benchmark::State& state) {
  JoinBenchBody(state, [](const StoredElementSet& a,
                          const StoredElementSet& d,
                          const JoinOptions& options) {
    return MpmgjnJoin(a.file(), d.file(), options)
        .value()
        .stats.output_pairs;
  });
}
BENCHMARK(BM_JoinMpmgjn);

}  // namespace
}  // namespace bench
}  // namespace xrtree
