#include "bench/bench_common.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "btree/btree.h"
#include "join/bplus_join.h"
#include "join/stack_tree_desc.h"
#include "join/xr_stack.h"
#include "storage/element_file.h"
#include "xrtree/xrtree.h"

namespace xrtree {
namespace bench {

uint64_t EnvU64(const char* name, uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return std::strtoull(v, nullptr, 10);
}

BenchEnv GetBenchEnv() {
  BenchEnv env;
  env.scale = EnvU64("XR_SCALE", env.scale);
  env.buffer_pages = EnvU64("XR_BUFFER_PAGES", env.buffer_pages);
  env.miss_latency_us = EnvU64("XR_MISS_LATENCY_US", env.miss_latency_us);
  return env;
}

BenchDb::BenchDb(size_t pool_pages) {
  char tmpl[] = "/tmp/xrtree_bench_XXXXXX";
  int fd = ::mkstemp(tmpl);
  if (fd >= 0) ::close(fd);
  path_ = tmpl;
  XR_CHECK_OK(disk_.Open(path_));
  pool_ = std::make_unique<BufferPool>(&disk_, pool_pages);
}

BenchDb::~BenchDb() {
  pool_.reset();
  disk_.Close().ok();
  std::remove(path_.c_str());
}

void BenchDb::SwapPool(size_t pool_pages) {
  XR_CHECK_OK(pool_->FlushAll());
  pool_.reset();
  pool_ = std::make_unique<BufferPool>(&disk_, pool_pages);
}

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kNoIndex:
      return "no-index";
    case Algo::kBPlus:
      return "B+";
    case Algo::kXrStack:
      return "XR-stack";
  }
  return "?";
}

std::vector<RunResult> RunJoins(const ElementList& ancestors,
                                const ElementList& descendants,
                                size_t pool_pages, uint64_t miss_latency_us,
                                bool parent_child) {
  // Build with a generous pool, flush, then run every algorithm against a
  // fresh cold pool of `pool_pages` frames — the paper's joins ran with a
  // fixed 100-page buffer pool (§6.1).
  BenchDb db(8192);
  PageId a_file_head, d_file_head, a_bt_root, d_bt_root, a_xr_root, d_xr_root;
  uint64_t a_size, d_size;
  {
    StoredElementSet a_set(db.pool(), "A");
    StoredElementSet d_set(db.pool(), "D");
    XR_CHECK_OK(a_set.Build(ancestors));
    XR_CHECK_OK(d_set.Build(descendants));
    a_file_head = a_set.file().head();
    d_file_head = d_set.file().head();
    a_size = a_set.file().size();
    d_size = d_set.file().size();
    a_bt_root = a_set.btree().root();
    d_bt_root = d_set.btree().root();
    a_xr_root = a_set.xrtree().root();
    d_xr_root = d_set.xrtree().root();
  }

  JoinOptions options;
  options.materialize = false;
  options.parent_child = parent_child;

  std::vector<RunResult> results;
  for (Algo algo : {Algo::kNoIndex, Algo::kBPlus, Algo::kXrStack}) {
    db.SwapPool(pool_pages);
    // Snapshot subtraction: the counters are monotonic, and saturating
    // operator- keeps an interval sane under concurrent I/O.
    IoStats before = db.pool()->stats();
    auto t0 = std::chrono::steady_clock::now();
    JoinOutput out;
    switch (algo) {
      case Algo::kNoIndex: {
        ElementFile a_file(db.pool());
        ElementFile d_file(db.pool());
        a_file.OpenExisting(a_file_head, a_size);
        d_file.OpenExisting(d_file_head, d_size);
        out = StackTreeDescJoin(a_file, d_file, options).value();
        break;
      }
      case Algo::kBPlus: {
        BTree a_bt(db.pool(), a_bt_root);
        BTree d_bt(db.pool(), d_bt_root);
        out = BPlusJoin(a_bt, d_bt, options).value();
        break;
      }
      case Algo::kXrStack: {
        XrTree a_xr(db.pool(), a_xr_root);
        XrTree d_xr(db.pool(), d_xr_root);
        out = XrStackJoin(a_xr, d_xr, options).value();
        break;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    IoStats io = db.pool()->stats() - before;

    RunResult r;
    r.algo = algo;
    r.scanned = out.stats.elements_scanned;
    r.pairs = out.stats.output_pairs;
    r.page_misses = io.buffer_misses;
    r.disk_reads = io.disk_reads;
    r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.modeled_seconds =
        static_cast<double>(io.buffer_misses) * miss_latency_us * 1e-6;
    results.push_back(r);
  }
  return results;
}

const Dataset& DepartmentDataset() {
  static Dataset* ds = [] {
    BenchEnv env = GetBenchEnv();
    auto result = MakeDepartmentDataset(env.scale);
    XR_CHECK_OK(result.status());
    return new Dataset(std::move(result).value());
  }();
  return *ds;
}

const Dataset& ConferenceDataset() {
  static Dataset* ds = [] {
    BenchEnv env = GetBenchEnv();
    auto result = MakeConferenceDataset(env.scale);
    XR_CHECK_OK(result.status());
    return new Dataset(std::move(result).value());
  }();
  return *ds;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::string Thousands(uint64_t n) {
  return std::to_string((n + 500) / 1000);
}

void JsonObject::Set(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  fields_.emplace_back(key, buf);
}

void JsonObject::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonObject::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void JsonObject::SetRaw(const std::string& key, const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
}

std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonArray(const std::vector<std::string>& raw_items) {
  std::string out = "[";
  for (size_t i = 0; i < raw_items.size(); ++i) {
    if (i > 0) out += ",";
    out += raw_items[i];
  }
  out += "]";
  return out;
}

std::string ParseJsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                content.size() &&
            std::fputc('\n', f) != EOF;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace xrtree
