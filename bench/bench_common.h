#ifndef XRTREE_BENCH_BENCH_COMMON_H_
#define XRTREE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "join/element_source.h"
#include "join/join_types.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/datasets.h"
#include "workload/selectivity.h"

namespace xrtree {
namespace bench {

/// Environment-tunable benchmark parameters.
///
///   XR_SCALE           target generated elements per dataset (default 300000;
///                      the paper's 90 MB documents held ~1.5M — set
///                      XR_SCALE=1500000 to match)
///   XR_BUFFER_PAGES    buffer pool size in pages (default 100, §6.1)
///   XR_MISS_LATENCY_US modelled per-page-miss latency for the derived
///                      elapsed time (default 5000 us ≈ one 2002-era disk
///                      access; measured wall time is reported separately)
struct BenchEnv {
  uint64_t scale = 300000;
  uint64_t buffer_pages = 100;
  uint64_t miss_latency_us = 5000;
};

BenchEnv GetBenchEnv();

/// The unsigned value of environment variable `name`, or `dflt` when it is
/// unset or empty.
uint64_t EnvU64(const char* name, uint64_t dflt);

/// A scratch on-disk database deleted on destruction.
class BenchDb {
 public:
  explicit BenchDb(size_t pool_pages);
  ~BenchDb();
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }

  /// Drops the current pool (flushing) and attaches a fresh, cold one of
  /// `pool_pages` frames over the same file.
  void SwapPool(size_t pool_pages);

 private:
  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

enum class Algo { kNoIndex, kBPlus, kXrStack };

const char* AlgoName(Algo algo);

/// One algorithm execution over one workload.
struct RunResult {
  Algo algo;
  uint64_t scanned = 0;
  uint64_t pairs = 0;
  uint64_t page_misses = 0;
  uint64_t disk_reads = 0;
  double wall_seconds = 0;
  double modeled_seconds = 0;  ///< page_misses * XR_MISS_LATENCY_US
};

/// Builds the three storage representations of both element sets in a fresh
/// database with `pool_pages` frames, runs the requested algorithms
/// (count-only), and reports per-run I/O deltas. The pool is flushed and the
/// counters reset before each run so algorithms see identical cold-ish
/// state.
std::vector<RunResult> RunJoins(const ElementList& ancestors,
                                const ElementList& descendants,
                                size_t pool_pages, uint64_t miss_latency_us,
                                bool parent_child = false);

/// Loads (and memoizes on disk of the process lifetime) the two evaluation
/// datasets at the environment scale.
const Dataset& DepartmentDataset();
const Dataset& ConferenceDataset();

/// Pretty printing helpers.
void PrintHeader(const std::string& title);
std::string Thousands(uint64_t n);  ///< "1609" style thousands-of-elements

/// Minimal JSON emitter for the benches' machine-readable `--json <path>`
/// output. Keys keep insertion order; values are rendered on Set, so a
/// JsonObject can nest another via SetRaw(child.Dump()).
class JsonObject {
 public:
  void Set(const std::string& key, uint64_t value);
  void Set(const std::string& key, int value) { Set(key, uint64_t(value)); }
  void Set(const std::string& key, double value);
  void Set(const std::string& key, bool value);
  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, const char* value) {
    Set(key, std::string(value));
  }
  void SetRaw(const std::string& key, const std::string& raw_json);
  std::string Dump() const;  ///< {"k":v,...}

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonEscape(const std::string& s);
/// ["a","b",...] from pre-rendered items (use JsonObject::Dump or literals).
std::string JsonArray(const std::vector<std::string>& raw_items);

/// Extracts the value of a `--json <path>` argument pair from argv (empty
/// string when absent).
std::string ParseJsonPathArg(int argc, char** argv);
/// Writes `content` (plus trailing newline) to `path`; returns false and
/// prints to stderr on failure.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace bench
}  // namespace xrtree

#endif  // XRTREE_BENCH_BENCH_COMMON_H_
