#ifndef XRTREE_XRTREE_PAGE_CODEC_H_
#define XRTREE_XRTREE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/page.h"
#include "xml/element.h"
#include "xrtree/xrtree_page.h"

namespace xrtree {

/// The page formats of XR-tree leaf and stab-list pages (DESIGN.md §15),
/// behind one module: the tree reads a leaf or stab page through one view,
/// writes a leaf through one call, and checks a node's header through one
/// page check, so no caller outside this module asks which format a page
/// holds. The fixed format is the slot array of xrtree_page.h; the
/// compressed format is described below.
///
/// Layout after the page's own header (XrPageHeader / StabPageHeader):
///
///   [XrcAreaHeader: u16 num_blocks, u16 pad]
///   [XrcBlockHeader x num_blocks]            <- fixed 12-byte skip headers
///   [payload bytes, one run per block]
///
/// Each block covers up to kXrcBlockEntries consecutive entries.
/// Readers binary-search the block headers (base = first start / first key
/// of the block) and decode only the blocks they land in.
///
/// Leaf block payload — entries sorted by start; first entry of the block
/// stores no start delta (start == header.base):
///   entry 0:  varint(end - start), varint((level << 1) | flag), varint(id)
///   entry i:  varint(start_i - start_{i-1}), varint(end - start),
///             varint((level << 1) | flag), varint(zigzag(id_i - id_{i-1}))
/// header.aux = max end over the block (kept for diagnostics/skipping).
/// The InStabList flag rides the low bit of the level varint, so flipping
/// it never changes the encoded size — PlaceEntry and the D-algorithms
/// rewrite flags in place on compressed pages (XrLeafSetFlag).
///
/// Stab block payload — entries sorted by (key, s); header.base = first
/// key, header.aux = first s:
///   entry 0:  varint(e - s), varint(id), varint(level)
///   entry i:  varint(key_i - key_{i-1}), varint(zigzag(s_i - s_{i-1})),
///             varint(e - s), varint(zigzag(id_i - id_{i-1})),
///             varint(level)
///
/// Size-stability argument used by the write paths: for unsigned a, b,
/// Varint32Size(a + b) <= Varint32Size(a) + Varint32Size(b), and a block
/// head stores its base in the fixed header (no delta bytes at all) — so
/// re-encoding any subsequence of a page's entries (dropping entries merges
/// adjacent deltas, promoting an entry to block head drops its delta)
/// never needs more bytes than the original encoding. Splits and borrows
/// on compressed pages rely on this to re-encode halves in place.

/// Entries per mini-block. 128 keeps a decoded block in two cache lines'
/// worth of work while the 12-byte header amortizes to <0.1 byte/entry.
inline constexpr size_t kXrcBlockEntries = 128;

/// Hard ceiling on entries a compressed page may claim. The minimum entry
/// encoding is 3 bytes (leaf) so a 4 KiB page can never hold more than
/// ~1350 real entries; the cap bounds decoder allocations against a
/// corrupt count and bounds the scratch vectors in the write paths.
inline constexpr size_t kXrcMaxPageEntries = 1536;

struct XrcAreaHeader {
  uint16_t num_blocks;
  uint16_t pad;
};
static_assert(sizeof(XrcAreaHeader) == 4);

struct XrcBlockHeader {
  uint32_t base;    ///< leaf: first start; stab: first key
  uint32_t aux;     ///< leaf: max end in block; stab: first s
  uint16_t count;   ///< entries in this block (1..kXrcBlockEntries)
  uint16_t offset;  ///< payload start, relative to the codec area
};
static_assert(sizeof(XrcBlockHeader) == 12);

/// A leaf's entries in start order (XrLeafRead).
struct XrLeafView {
  const Element* data = nullptr;
  uint32_t size = 0;
  /// True when `data` is the page's own slot array, which a writer holding
  /// the page's W-latch may edit in place; false when it points into the
  /// caller's scratch.
  bool in_place = false;

  const Element* begin() const { return data; }
  const Element* end() const { return data + size; }
};

/// The part of a stab page that can hold one key's run (XrStabRead).
struct XrStabView {
  const StabEntry* data = nullptr;
  uint32_t size = 0;
  /// For a run read of a compressed page: false when the page proves the
  /// run ends on it. A fixed page leaves it true; its caller's scan of the
  /// slice decides, as Algorithm 5's chain walk does.
  bool run_may_continue = true;
};

/// The one check a descent makes before it trusts a node: a leaf or
/// internal magic that agrees with is_leaf, and an entry count within the
/// page's capacity (a leaf's is that of its format).
Status XrCheckPage(const Page* p);

/// The one read view of a leaf. A fixed leaf's entries are its own slot
/// array, read in place. A compressed leaf is decoded into *scratch
/// (replacing its contents) from the block that could hold the first start
/// >= `from`, so a few entries with a smaller start may lead. Returns
/// Corruption when the page is not a leaf, its count exceeds its format's
/// capacity, or its blocks do not decode.
Result<XrLeafView> XrLeafRead(const Page* p, std::vector<Element>* scratch,
                              Position from = 0);

/// Appends a copy of each entry of a leaf with start >= `from` to *out, for
/// callers that keep the entries after the page latch drops. Same checks
/// as XrLeafRead.
Status XrLeafAppend(const Page* p, std::vector<Element>* out,
                    Position from = 0);

/// Point lookup on a leaf of either format; a compressed leaf decodes only
/// the candidate block. Returns true and fills *out when an element with
/// start == key exists.
Result<bool> XrLeafFind(const Page* p, Position key, Element* out);

/// Sets the InStabList flag of the element with start == key in place
/// (size-stable on a compressed leaf: the flag is the low bit of one varint
/// byte). Returns true when the element was found.
Result<bool> XrLeafSetFlag(Page* p, Position key, bool in_stab);

/// The one format rule for a leaf rewritten by an edit (decompress-on-
/// write): it stays compressed only if, before the edit, it was compressed
/// and held more than `leaf_capacity` entries. Every other leaf is written
/// fixed.
uint16_t XrLeafFormatAfterEdit(const Page* before, uint32_t leaf_capacity);

/// The one leaf write: lays elems[0..n) (sorted by start, strictly
/// increasing) out on the page in `format` and sets the header's count and
/// format; other header fields are left alone. A fixed write copies the
/// slots (`elems` may be the page's own slots) and zeroes the slack. A
/// compressed write must take all n entries. Either returns Corruption
/// when the entries do not fit.
Status XrLeafWrite(Page* p, const Element* elems, size_t n, uint16_t format);

/// The one read view of a stab page for `key`'s run. A fixed page's
/// entries are its own slot array. A compressed page decodes into *scratch
/// (replacing its contents) only the blocks that can hold the run, plus one
/// terminator. Returns Corruption on a foreign magic, a count past the
/// format's capacity or undecodable blocks.
Result<XrStabView> XrStabRead(const Page* p, Position key,
                              std::vector<StabEntry>* scratch);

/// Appends a copy of every entry of a stab page to *out. Same checks as
/// XrStabRead.
Status XrStabAppend(const Page* p, std::vector<StabEntry>* out);

inline bool XrLeafIsCompressed(const Page* p) {
  const XrPageHeader* h = p->As<XrPageHeader>();
  return h->magic == kXrLeafMagic && h->format == kXrPageFormatCompressed;
}
inline bool StabPageIsCompressed(const Page* p) {
  const StabPageHeader* h = p->As<StabPageHeader>();
  return h->magic == kXrStabMagic && h->format == kXrPageFormatCompressed;
}

/// Encodes the longest prefix of elems[0..n) that fits the page and
/// returns its length (always >= 1 for n >= 1). Overwrites the codec area,
/// sets hdr->count and hdr->format = compressed; all other header fields
/// (magic, links, ...) are left untouched. Elements must be sorted by
/// start, strictly increasing.
size_t XrcEncodeLeaf(Page* p, const Element* elems, size_t n);

/// Decodes every entry of a compressed leaf page, appending to *out.
Status XrcDecodeLeaf(const Page* p, std::vector<Element>* out);

/// Decodes the page suffix starting at the block that could contain the
/// first entry with start >= lo (i.e. the last block with base <= lo, so
/// a few entries with start < lo may lead the output). Appends to *out.
Status XrcDecodeLeafFrom(const Page* p, Position lo, std::vector<Element>* out);

/// Stab-page counterparts. Entries must be sorted by (key, s).
size_t XrcEncodeStab(Page* p, const StabEntry* entries, size_t n);
Status XrcDecodeStab(const Page* p, std::vector<StabEntry>* out);

/// Decodes the candidate blocks for `key`'s run: from the last block with
/// first key <= key through the first block with first key > key. Appends
/// to *out. *covers_page_end is set true when the decoded span includes
/// the page's final entry — i.e. the run could continue on the next page.
Status XrcDecodeStabForKey(const Page* p, Position key,
                           std::vector<StabEntry>* out, bool* covers_page_end);

}  // namespace xrtree

#endif  // XRTREE_XRTREE_PAGE_CODEC_H_
