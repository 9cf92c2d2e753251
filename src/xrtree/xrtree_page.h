#ifndef XRTREE_XRTREE_XRTREE_PAGE_H_
#define XRTREE_XRTREE_XRTREE_PAGE_H_

#include <cstdint>

#include "storage/page.h"
#include "xml/element.h"

namespace xrtree {

/// On-page layouts for the XR-tree (Definition 4).
///
/// The XR-tree is "essentially a B+-tree with a complex index key entry and
/// extra stab lists associated with its internal nodes" (§3.2):
///  * internal entries carry (key, ps, pe, child) — ps/pe are the region of
///    the first element of the key's primary stab list (Definition 3), or
///    nil when the PSL is empty;
///  * each internal node owns a chain of stab pages holding the elements
///    stabbed by its keys but by no ancestor's key (Definition 4, prop. 4);
///  * a ps-directory page (Fig. 4) maps keys to the page holding the head
///    of their PSL once the chain spans more than one page;
///  * leaf entries are Elements whose flags bit 0 is the InStabList flag
///    (Definition 4, prop. 6).

/// On-page entry encoding, carried per page (DESIGN.md §15). Fixed is the
/// mutable slot-array layout every page starts life in; compressed pages
/// hold frame-of-reference + delta-varint mini-blocks and are produced only
/// by bulk load and compaction. Zero == fixed so every pre-existing page
/// image (reserved field) reads back as fixed-format.
inline constexpr uint16_t kXrPageFormatFixed = 0;
inline constexpr uint16_t kXrPageFormatCompressed = 1;

/// The member defaults are an empty fixed-format node's (links unset).
struct XrPageHeader {
  uint32_t magic = 0;
  uint16_t is_leaf = 0;
  uint16_t format = kXrPageFormatFixed;
  uint32_t count = 0;                 ///< keys (internal) / elements (leaf)
  PageId next = kInvalidPageId;       ///< leaf chain
  PageId prev = kInvalidPageId;       ///< leaf chain
  PageId leftmost = kInvalidPageId;   ///< internal: child for keys < keys[0]
  PageId stab_head = kInvalidPageId;  ///< internal: first stab page
  PageId ps_dir = kInvalidPageId;     ///< internal: ps-directory page
};
static_assert(sizeof(XrPageHeader) == 32);

inline constexpr uint32_t kXrLeafMagic = 0x58524C46;      // "XRLF"
inline constexpr uint32_t kXrInternalMagic = 0x5852494E;  // "XRIN"
inline constexpr uint32_t kXrStabMagic = 0x58525342;      // "XRSB"
inline constexpr uint32_t kXrPsDirMagic = 0x58525044;     // "XRPD"

/// Internal key entry (Definition 4, prop. 2): key with the (ps, pe)
/// summary of its primary stab list and the child for keys >= key.
struct XrInternalEntry {
  Position key;
  Position ps;  ///< kNilPosition when PSL(key) is empty
  Position pe;
  PageId child;
};
static_assert(sizeof(XrInternalEntry) == 16);

/// The InStabList flag on leaf elements.
inline constexpr uint16_t kInStabListFlag = 0x1;

inline bool InStabList(const Element& e) {
  return (e.flags & kInStabListFlag) != 0;
}
inline void SetInStabList(Element* e, bool v) {
  if (v) {
    e->flags |= kInStabListFlag;
  } else {
    e->flags &= static_cast<uint16_t>(~kInStabListFlag);
  }
}

/// One element in a stab list: the region, the data-entry pointer, and the
/// key that primarily stabs it (Definition 2). Chains are sorted by
/// (key, s); the run sharing one key is that key's PSL in nesting order
/// (outermost first).
struct StabEntry {
  Position s;
  Position e;
  Position key;      ///< the primarily-stabbing key of the owning node
  uint32_t elem_id;  ///< Element::id — pointer to the data entry
  uint16_t level;    ///< element level, kept for parent-child filtering
  uint16_t reserved;
};
static_assert(sizeof(StabEntry) == 20);

inline Element ToElement(const StabEntry& se) {
  Element e(se.s, se.e, se.level, se.elem_id);
  return e;
}
inline StabEntry MakeStabEntry(const Element& e, Position key) {
  return StabEntry{e.start, e.end, key, e.id, e.level, 0};
}

struct StabPageHeader {
  uint32_t magic;
  uint32_t count;
  PageId next;
  uint32_t format;  ///< kXrPageFormatFixed / kXrPageFormatCompressed
};
static_assert(sizeof(StabPageHeader) == 16);

/// ps-directory entry (Fig. 4): the stab page holding the head of
/// PSL(key). Page-granular: within the page the PSL head is found by scan.
struct PsDirEntry {
  Position key;
  PageId page;
};
static_assert(sizeof(PsDirEntry) == 8);

struct PsDirHeader {
  uint32_t magic;
  uint32_t count;
};

// Capacities are computed against kPageDataSize so the slot arrays never
// overlap the integrity trailer.
inline constexpr size_t kXrLeafMaxEntries =
    (kPageDataSize - sizeof(XrPageHeader)) / sizeof(Element);
inline constexpr size_t kXrInternalMaxEntries =
    (kPageDataSize - sizeof(XrPageHeader)) / sizeof(XrInternalEntry);
inline constexpr size_t kStabPageMaxEntries =
    (kPageDataSize - sizeof(StabPageHeader)) / sizeof(StabEntry);
inline constexpr size_t kPsDirMaxEntries =
    (kPageDataSize - sizeof(PsDirHeader)) / sizeof(PsDirEntry);

inline XrPageHeader* XrHeader(Page* p) { return p->As<XrPageHeader>(); }
inline const XrPageHeader* XrHeader(const Page* p) {
  return p->As<XrPageHeader>();
}

inline Element* XrLeafSlots(Page* p) {
  return reinterpret_cast<Element*>(p->data() + sizeof(XrPageHeader));
}
inline const Element* XrLeafSlots(const Page* p) {
  return reinterpret_cast<const Element*>(p->data() + sizeof(XrPageHeader));
}

inline XrInternalEntry* XrInternalSlots(Page* p) {
  return reinterpret_cast<XrInternalEntry*>(p->data() +
                                            sizeof(XrPageHeader));
}
inline const XrInternalEntry* XrInternalSlots(const Page* p) {
  return reinterpret_cast<const XrInternalEntry*>(p->data() +
                                                  sizeof(XrPageHeader));
}

inline StabPageHeader* StabHeader(Page* p) {
  return p->As<StabPageHeader>();
}
inline const StabPageHeader* StabHeader(const Page* p) {
  return p->As<StabPageHeader>();
}

inline StabEntry* StabSlots(Page* p) {
  return reinterpret_cast<StabEntry*>(p->data() + sizeof(StabPageHeader));
}
inline const StabEntry* StabSlots(const Page* p) {
  return reinterpret_cast<const StabEntry*>(p->data() +
                                            sizeof(StabPageHeader));
}

/// Ordering of a stab chain: by primarily-stabbing key, then by start
/// (nesting order within a PSL).
inline bool StabEntryLess(const StabEntry& a, const StabEntry& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.s < b.s;
}

}  // namespace xrtree

#endif  // XRTREE_XRTREE_XRTREE_PAGE_H_
