// Validates the §4 update-cost analysis (Theorems 1-2): amortized XR-tree
// insertion and deletion cost O(log_F N + C_DP) — i.e., B+-tree cost plus a
// small constant for stab-list displacement. We measure physical page I/O
// (reads + writes) per operation for both index types as N grows.
//
// A second table prices crash safety: the same insert stream run with one
// durable commit per operation, with and without the write-ahead log, so
// the WAL's logging overhead is visible next to the raw update cost.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "btree/btree.h"
#include "storage/wal.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {
namespace {

struct Cost {
  double insert_io;
  double delete_io;
};

template <typename Tree>
Cost MeasureTree(const ElementList& elems, size_t pool_pages) {
  BenchDb db(pool_pages);
  Tree tree(db.pool());
  IoStats start = db.pool()->stats();
  for (const Element& e : elems) XR_CHECK_OK(tree.Insert(e));
  IoStats after_insert = db.pool()->stats();
  IoStats ins = after_insert - start;
  Cost c;
  c.insert_io =
      static_cast<double>(ins.disk_reads + ins.disk_writes) / elems.size();
  // Delete a random-ish half (every other element).
  uint64_t deleted = 0;
  for (size_t i = 0; i < elems.size(); i += 2) {
    XR_CHECK_OK(tree.Delete(elems[i].start));
    ++deleted;
  }
  IoStats del = db.pool()->stats() - after_insert;
  c.delete_io =
      static_cast<double>(del.disk_reads + del.disk_writes) / deleted;
  return c;
}

struct DurableCost {
  double data_writes_per_op;  ///< physical data-file page writes / insert
  double images_per_op;       ///< page after-images logged / insert (WAL only)
  double log_kb_per_op;       ///< log bytes appended / insert (WAL only)
  double wall_us_per_op;
};

/// Inserts `elems` into an XR-tree with one durable commit per insert:
/// WAL mode pays a log append + fsync barrier (plus periodic checkpoints),
/// the baseline pays a full flush + data-file fsync. Both end in the same
/// durable state; the delta is the price of atomicity.
DurableCost MeasureDurableInserts(const ElementList& elems, size_t pool_pages,
                                  bool with_wal) {
  char tmpl[] = "/tmp/xrtree_walbench_XXXXXX";
  int fd = ::mkstemp(tmpl);
  if (fd >= 0) ::close(fd);
  std::string path = tmpl;
  DurableCost c{};
  {
    DiskManager disk;
    XR_CHECK_OK(disk.Open(path));
    Wal wal;
    if (with_wal) {
      XR_CHECK_OK(wal.Open(Wal::SidecarPath(path)));
      XR_CHECK_OK(wal.Recover(&disk));
    }
    BufferPool pool(&disk, pool_pages);
    if (with_wal) pool.SetWal(&wal);
    XrTree tree(&pool);
    IoStats before = pool.stats();
    auto start = std::chrono::steady_clock::now();
    for (const Element& e : elems) {
      XR_CHECK_OK(tree.Insert(e));
      if (with_wal) {
        XR_CHECK_OK(pool.Commit());
      } else {
        XR_CHECK_OK(pool.FlushAll());
        XR_CHECK_OK(disk.Sync());
      }
    }
    auto end = std::chrono::steady_clock::now();
    const double n = static_cast<double>(elems.size());
    c.data_writes_per_op =
        static_cast<double>((pool.stats() - before).disk_writes) / n;
    if (with_wal) {
      WalStats ws = wal.stats();
      c.images_per_op = static_cast<double>(ws.images_logged) / n;
      c.log_kb_per_op =
          static_cast<double>(ws.bytes_appended) / 1024.0 / n;
    }
    c.wall_us_per_op =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            end - start)
            .count() /
        n;
    if (with_wal) {
      pool.SetWal(nullptr);
      wal.Close().ok();
    }
  }
  std::remove(Wal::SidecarPath(path).c_str());
  std::remove(path.c_str());
  return c;
}

}  // namespace
}  // namespace bench
}  // namespace xrtree

int main() {
  using namespace xrtree;
  using namespace xrtree::bench;
  BenchEnv env = GetBenchEnv();
  PrintHeader("Update cost (Theorems 1-2): physical I/Os per operation");
  std::printf("%10s | %12s %12s | %12s %12s | %9s\n", "N", "B+ insert",
              "B+ delete", "XR insert", "XR delete", "XR/B+ ins");

  const Dataset& ds = DepartmentDataset();
  for (uint64_t n : std::vector<uint64_t>{
           5000, 20000, 80000,
           std::min<uint64_t>(ds.ancestors.size(), 320000)}) {
    if (n > ds.ancestors.size()) break;
    ElementList elems(ds.ancestors.begin(), ds.ancestors.begin() + n);
    // Shuffle so inserts are not append-only (worst case for splits).
    Random rng(n);
    for (size_t i = elems.size(); i > 1; --i) {
      std::swap(elems[i - 1], elems[rng.Uniform(i)]);
    }
    Cost bt = MeasureTree<BTree>(elems, env.buffer_pages);
    Cost xr = MeasureTree<XrTree>(elems, env.buffer_pages);
    std::printf("%10llu | %12.2f %12.2f | %12.2f %12.2f | %8.2fx\n",
                (unsigned long long)n, bt.insert_io, bt.delete_io,
                xr.insert_io, xr.delete_io,
                xr.insert_io / (bt.insert_io > 0 ? bt.insert_io : 1));
  }
  std::printf(
      "\npaper's claim: XR update cost = B+ cost + amortized C_DP (a few "
      "I/Os)\n");

  PrintHeader("Durable updates: one commit per insert, WAL vs no-WAL");
  std::printf("%10s | %13s %11s | %13s %11s %11s %11s | %9s\n", "N",
              "base wr/op", "base us/op", "wal wr/op", "imgs/op", "log KB/op",
              "wal us/op", "wr overhead");
  for (uint64_t n : std::vector<uint64_t>{2000, 10000, 20000}) {
    if (n > ds.ancestors.size()) break;
    ElementList elems(ds.ancestors.begin(), ds.ancestors.begin() + n);
    Random rng(n);
    for (size_t i = elems.size(); i > 1; --i) {
      std::swap(elems[i - 1], elems[rng.Uniform(i)]);
    }
    DurableCost base = MeasureDurableInserts(elems, env.buffer_pages, false);
    DurableCost wal = MeasureDurableInserts(elems, env.buffer_pages, true);
    // The WAL's physical write cost per op: checkpoint writes to the data
    // file plus the page images appended to the log.
    const double wal_writes = wal.data_writes_per_op + wal.images_per_op;
    std::printf("%10llu | %13.2f %11.1f | %13.2f %11.2f %11.1f %11.1f | %8.2fx\n",
                (unsigned long long)n, base.data_writes_per_op,
                base.wall_us_per_op, wal.data_writes_per_op, wal.images_per_op,
                wal.log_kb_per_op, wal.wall_us_per_op,
                wal_writes /
                    (base.data_writes_per_op > 0 ? base.data_writes_per_op
                                                 : 1));
  }
  std::printf(
      "\nwal overhead = (checkpoint writes + logged images) per op vs the\n"
      "baseline's flush-per-commit writes; both streams end equally "
      "durable.\n");
  return 0;
}
