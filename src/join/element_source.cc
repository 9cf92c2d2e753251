#include "join/element_source.h"

namespace xrtree {

Status StoredElementSet::Build(const ElementList& elements) {
  size_ = elements.size();
  XR_RETURN_IF_ERROR(file_.Build(elements));
  XR_RETURN_IF_ERROR(btree_.BulkLoad(elements));
  XR_RETURN_IF_ERROR(xrtree_.BulkLoad(elements));
  return Status::Ok();
}

Status StoredElementSet::Register(Catalog* catalog) const {
  CatalogEntry entry;
  entry.name = name_;
  entry.element_count = size_;
  entry.file_head = file_.head();
  entry.btree_root = btree_.root();
  entry.xrtree_root = xrtree_.root();
  return catalog->Put(entry);
}

namespace {

// Restores a reopened tree's in-memory entry count (one leaf-level walk)
// and cross-checks it against the catalog.
template <typename Tree>
Status RestoreCount(Tree* tree, const CatalogEntry& entry) {
  XR_ASSIGN_OR_RETURN(uint64_t count, tree->CountEntries());
  if (count != entry.element_count) {
    return Status::Corruption("catalog count disagrees with indexes for '" +
                              entry.name + "'");
  }
  return Status::Ok();
}

}  // namespace

Result<StoredElementSet> StoredElementSet::Open(BufferPool* pool,
                                                const Catalog& catalog,
                                                const std::string& name) {
  XR_ASSIGN_OR_RETURN(CatalogEntry entry, catalog.Get(name));
  StoredElementSet set(pool, name);
  set.size_ = entry.element_count;
  set.file_.OpenExisting(entry.file_head, entry.element_count);
  set.btree_ = BTree(pool, entry.btree_root);
  set.xrtree_ = XrTree(pool, entry.xrtree_root);
  XR_RETURN_IF_ERROR(RestoreCount(&set.btree_, entry));
  XR_RETURN_IF_ERROR(RestoreCount(&set.xrtree_, entry));
  return set;
}

Result<XrTree> StoredElementSet::OpenXrTree(BufferPool* pool,
                                            const Catalog& catalog,
                                            const std::string& name) {
  XR_ASSIGN_OR_RETURN(CatalogEntry entry, catalog.Get(name));
  XrTree tree(pool, entry.xrtree_root);
  XR_RETURN_IF_ERROR(RestoreCount(&tree, entry));
  return tree;
}

}  // namespace xrtree
