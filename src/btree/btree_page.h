#ifndef XRTREE_BTREE_BTREE_PAGE_H_
#define XRTREE_BTREE_BTREE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "xml/element.h"

namespace xrtree {

/// On-page layouts for the disk B+-tree keyed on element start position.
/// Both node kinds share a 24-byte header; the payload is a fixed-size
/// entry array, so slots are addressed by plain indexing and shifted with
/// memmove. The member defaults are an empty node's (links unset).

struct BTreePageHeader {
  uint32_t magic = 0;
  uint16_t is_leaf = 0;
  uint16_t reserved = 0;
  uint32_t count = 0;  ///< number of keys (internal) / elements (leaf)
  PageId next = kInvalidPageId;      ///< leaf: right sibling
  PageId prev = kInvalidPageId;      ///< leaf: left sibling
  PageId leftmost = kInvalidPageId;  ///< internal: child for keys < keys[0]
};
static_assert(sizeof(BTreePageHeader) == 24);

inline constexpr uint32_t kBTreeLeafMagic = 0x42544C46;      // "BTLF"
inline constexpr uint32_t kBTreeInternalMagic = 0x4254494E;  // "BTIN"

/// Internal entry: separator key and the child holding keys >= key.
struct BTreeInternalEntry {
  Position key;
  PageId child;
};
static_assert(sizeof(BTreeInternalEntry) == 8);

/// Leaf entries are raw Elements; the key is Element::start. Capacities are
/// computed against kPageDataSize so the slot arrays never overlap the
/// integrity trailer.
inline constexpr size_t kBTreeLeafMaxEntries =
    (kPageDataSize - sizeof(BTreePageHeader)) / sizeof(Element);
inline constexpr size_t kBTreeInternalMaxEntries =
    (kPageDataSize - sizeof(BTreePageHeader)) / sizeof(BTreeInternalEntry);

inline BTreePageHeader* BTreeHeader(Page* p) {
  return p->As<BTreePageHeader>();
}
inline const BTreePageHeader* BTreeHeader(const Page* p) {
  return p->As<BTreePageHeader>();
}

inline Element* LeafSlots(Page* p) {
  return reinterpret_cast<Element*>(p->data() + sizeof(BTreePageHeader));
}
inline const Element* LeafSlots(const Page* p) {
  return reinterpret_cast<const Element*>(p->data() +
                                          sizeof(BTreePageHeader));
}

inline BTreeInternalEntry* InternalSlots(Page* p) {
  return reinterpret_cast<BTreeInternalEntry*>(p->data() +
                                               sizeof(BTreePageHeader));
}
inline const BTreeInternalEntry* InternalSlots(const Page* p) {
  return reinterpret_cast<const BTreeInternalEntry*>(
      p->data() + sizeof(BTreePageHeader));
}

/// The one check a B-tree (or SpTree) descent or chain walk makes before it
/// trusts a node: a leaf or internal magic that agrees with is_leaf, and an
/// entry count within the node's capacity (`leaf_capacity` on a leaf).
Status BTreeCheckPage(const Page* p,
                      size_t leaf_capacity = kBTreeLeafMaxEntries);

/// Node-layout traits of the B-tree for BPlusSkeleton.
struct BTreeLayout {
  using Header = BTreePageHeader;
  using InternalEntry = BTreeInternalEntry;
  static constexpr const char* kName = "btree";
  static constexpr uint32_t kLeafMagic = kBTreeLeafMagic;
  static constexpr uint32_t kInternalMagic = kBTreeInternalMagic;
  static constexpr size_t kLeafMaxEntries = kBTreeLeafMaxEntries;
  static constexpr size_t kInternalMaxEntries = kBTreeInternalMaxEntries;
  static constexpr size_t kLeafMaxEntriesAnyFormat = kBTreeLeafMaxEntries;

  static Header* Hdr(Page* p) { return BTreeHeader(p); }
  static const Header* Hdr(const Page* p) { return BTreeHeader(p); }
  static Element* Leaf(Page* p) { return LeafSlots(p); }
  static const Element* Leaf(const Page* p) { return LeafSlots(p); }
  static InternalEntry* Slots(Page* p) { return InternalSlots(p); }
  static const InternalEntry* Slots(const Page* p) { return InternalSlots(p); }
  static InternalEntry MakeEntry(Position key, PageId child) {
    return {key, child};
  }
  static Status CheckPage(const Page* p) { return BTreeCheckPage(p); }
  /// Checks that `p` is a leaf and appends a copy of its entries with
  /// start >= `from` to *out.
  static Status CopyLeaf(const Page* p, Position from,
                         std::vector<Element>* out);
};

}  // namespace xrtree

#endif  // XRTREE_BTREE_BTREE_PAGE_H_
