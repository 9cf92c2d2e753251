#ifndef XRTREE_JOIN_ELEMENT_SOURCE_H_
#define XRTREE_JOIN_ELEMENT_SOURCE_H_

#include <memory>
#include <string>

#include "btree/btree.h"
#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/element_file.h"
#include "xml/element.h"
#include "xrtree/xrtree.h"

namespace xrtree {

/// A joinable element set materialized in all three storage formats the
/// paper compares: a sequential file (no-index), a B+-tree and an XR-tree,
/// all inside one database. This is the fixture type used by the benchmark
/// harness so each algorithm reads the same logical data.
class StoredElementSet {
 public:
  StoredElementSet(BufferPool* pool, std::string name)
      : name_(std::move(name)),
        file_(pool),
        btree_(pool),
        xrtree_(pool) {}

  /// Builds all three representations from `elements` (sorted by start).
  Status Build(const ElementList& elements);

  /// Records this set's storage roots in `catalog` (call Save() after).
  Status Register(Catalog* catalog) const;

  /// Reattaches a set previously built and registered in `catalog`.
  static Result<StoredElementSet> Open(BufferPool* pool,
                                       const Catalog& catalog,
                                       const std::string& name);

  /// Reattaches only the XR-tree of a registered set, for readers that use
  /// no other representation: one leaf-level walk instead of two.
  static Result<XrTree> OpenXrTree(BufferPool* pool, const Catalog& catalog,
                                   const std::string& name);

  const std::string& name() const { return name_; }
  uint64_t size() const { return size_; }

  const ElementFile& file() const { return file_; }
  const BTree& btree() const { return btree_; }
  const XrTree& xrtree() const { return xrtree_; }
  BTree& btree() { return btree_; }
  XrTree& xrtree() { return xrtree_; }

 private:
  std::string name_;
  ElementFile file_;
  BTree btree_;
  XrTree xrtree_;
  uint64_t size_ = 0;
};

}  // namespace xrtree

#endif  // XRTREE_JOIN_ELEMENT_SOURCE_H_
