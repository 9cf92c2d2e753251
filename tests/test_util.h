#ifndef XRTREE_TESTS_TEST_UTIL_H_
#define XRTREE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "xml/document.h"
#include "xml/element.h"

namespace xrtree {

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::xrtree::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::xrtree::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();  \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                          \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                     \
      XR_RESULT_CONCAT_(_assert_result, __LINE__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)               \
  auto tmp = (rexpr);                                             \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString(); \
  lhs = std::move(tmp).value()

/// A scratch database (temp file + DiskManager + BufferPool) cleaned up on
/// destruction.
class TempDb {
 public:
  explicit TempDb(size_t pool_pages = 256) {
    char tmpl[] = "/tmp/xrtree_test_XXXXXX";
    int fd = ::mkstemp(tmpl);
    if (fd >= 0) ::close(fd);
    path_ = tmpl;
    Status st = disk_.Open(path_);
    if (!st.ok()) std::abort();
    pool_ = std::make_unique<BufferPool>(&disk_, pool_pages);
  }

  ~TempDb() {
    pool_.reset();
    disk_.Close().ok();
    std::remove(path_.c_str());
  }

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return &disk_; }
  const std::string& path() const { return path_; }

  /// Drops the pool (flushing) and reopens a fresh one over the same file —
  /// simulates process restart for persistence tests.
  void Reopen(size_t pool_pages = 256) {
    pool_.reset();
    disk_.Close().ok();
    Status st = disk_.Open(path_);
    if (!st.ok()) std::abort();
    pool_ = std::make_unique<BufferPool>(&disk_, pool_pages);
  }

 private:
  std::string path_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

/// Generates a random ordered tree with `n` nodes and returns the
/// region-encoded elements of every node (strictly nested by
/// construction), sorted by start. `max_children` bounds fanout; smaller
/// values yield deeper nesting.
inline ElementList RandomNestedElements(uint64_t seed, uint32_t n,
                                        uint32_t max_children = 4) {
  Random rng(seed);
  Document doc;
  TagId tag = doc.InternTag("n");
  if (n == 0) return {};
  NodeId root = doc.CreateRoot(tag);
  std::vector<NodeId> pool{root};
  for (uint32_t i = 1; i < n; ++i) {
    NodeId parent = pool[rng.Uniform(pool.size())];
    NodeId child = doc.AddChild(parent, tag);
    // Bias toward recent nodes for depth; cap list growth.
    pool.push_back(child);
    if (pool.size() > max_children * 8) {
      pool.erase(pool.begin(), pool.begin() + pool.size() / 2);
    }
  }
  doc.EncodeRegions(1);
  ElementList out = doc.ElementsWithTag(tag);
  return out;
}

/// Sorted copy helper for comparing join outputs.
template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace xrtree

#endif  // XRTREE_TESTS_TEST_UTIL_H_
