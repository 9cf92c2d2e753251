#include "xrtree/page_codec.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "storage/varint.h"

namespace xrtree {

namespace {

constexpr size_t kLeafAreaSize = kPageDataSize - sizeof(XrPageHeader);
constexpr size_t kStabAreaSize = kPageDataSize - sizeof(StabPageHeader);

inline uint8_t* LeafArea(Page* p) {
  return reinterpret_cast<uint8_t*>(p->data()) + sizeof(XrPageHeader);
}
inline const uint8_t* LeafArea(const Page* p) {
  return reinterpret_cast<const uint8_t*>(p->data()) + sizeof(XrPageHeader);
}
inline uint8_t* StabArea(Page* p) {
  return reinterpret_cast<uint8_t*>(p->data()) + sizeof(StabPageHeader);
}
inline const uint8_t* StabArea(const Page* p) {
  return reinterpret_cast<const uint8_t*>(p->data()) + sizeof(StabPageHeader);
}

/// Validates the block table of a compressed page against the page's entry
/// count and the area bounds, so a corrupt header cannot drive the varint
/// readers off the page or the decoders into huge allocations.
Status ValidateBlocks(const uint8_t* area, size_t area_size,
                      uint32_t expect_count, const XrcBlockHeader** bh_out,
                      size_t* nb_out) {
  const auto* ah = reinterpret_cast<const XrcAreaHeader*>(area);
  const size_t nb = ah->num_blocks;
  if (nb == 0 ||
      sizeof(XrcAreaHeader) + nb * sizeof(XrcBlockHeader) > area_size) {
    return Status::Corruption("compressed page: bad block count");
  }
  const auto* bh =
      reinterpret_cast<const XrcBlockHeader*>(area + sizeof(XrcAreaHeader));
  const size_t payload_start =
      sizeof(XrcAreaHeader) + nb * sizeof(XrcBlockHeader);
  size_t total = 0;
  for (size_t i = 0; i < nb; ++i) {
    if (bh[i].count == 0 || bh[i].count > kXrcBlockEntries) {
      return Status::Corruption("compressed page: bad block entry count");
    }
    if (bh[i].offset < payload_start || bh[i].offset > area_size) {
      return Status::Corruption("compressed page: block offset out of range");
    }
    total += bh[i].count;
  }
  if (total != expect_count) {
    return Status::Corruption("compressed page: block counts disagree with header");
  }
  *bh_out = bh;
  *nb_out = nb;
  return Status();
}

Status DecodeLeafBlock(const uint8_t* area, size_t area_size,
                       const XrcBlockHeader& h, std::vector<Element>* out) {
  const uint8_t* q = area + h.offset;
  const uint8_t* limit = area + area_size;
  Position start = h.base;
  uint32_t id = 0;
  for (size_t j = 0; j < h.count; ++j) {
    uint32_t delta, width, lf, idv;
    if (j > 0) {
      q = GetVarint32(q, limit, &delta);
      if (!q) return Status::Corruption("compressed leaf: truncated start delta");
      start += delta;
    }
    q = GetVarint32(q, limit, &width);
    if (!q) return Status::Corruption("compressed leaf: truncated width");
    q = GetVarint32(q, limit, &lf);
    if (!q) return Status::Corruption("compressed leaf: truncated level");
    q = GetVarint32(q, limit, &idv);
    if (!q) return Status::Corruption("compressed leaf: truncated id");
    if ((lf >> 1) > 0xFFFF) {
      return Status::Corruption("compressed leaf: level out of range");
    }
    id = (j == 0) ? idv
                  : static_cast<uint32_t>(static_cast<int32_t>(id) +
                                          UnZigZag32(idv));
    Element e(start, start + width, static_cast<uint16_t>(lf >> 1), id);
    e.flags = static_cast<uint16_t>(lf & kInStabListFlag);
    out->push_back(e);
  }
  return Status();
}

Status DecodeStabBlock(const uint8_t* area, size_t area_size,
                       const XrcBlockHeader& h, std::vector<StabEntry>* out) {
  const uint8_t* q = area + h.offset;
  const uint8_t* limit = area + area_size;
  Position key = h.base;
  Position s = h.aux;
  uint32_t id = 0;
  for (size_t j = 0; j < h.count; ++j) {
    uint32_t kd, sd, width, idv, lvl;
    if (j > 0) {
      q = GetVarint32(q, limit, &kd);
      if (!q) return Status::Corruption("compressed stab: truncated key delta");
      key += kd;
      q = GetVarint32(q, limit, &sd);
      if (!q) return Status::Corruption("compressed stab: truncated s delta");
      s = static_cast<uint32_t>(static_cast<int32_t>(s) + UnZigZag32(sd));
    }
    q = GetVarint32(q, limit, &width);
    if (!q) return Status::Corruption("compressed stab: truncated width");
    q = GetVarint32(q, limit, &idv);
    if (!q) return Status::Corruption("compressed stab: truncated id");
    q = GetVarint32(q, limit, &lvl);
    if (!q) return Status::Corruption("compressed stab: truncated level");
    if (lvl > 0xFFFF) {
      return Status::Corruption("compressed stab: level out of range");
    }
    id = (j == 0) ? idv
                  : static_cast<uint32_t>(static_cast<int32_t>(id) +
                                          UnZigZag32(idv));
    out->push_back(StabEntry{s, s + width, key, id,
                             static_cast<uint16_t>(lvl), 0});
  }
  return Status();
}

/// Index of the last block with base <= key, or -1 when every base > key.
int FindBlockLE(const XrcBlockHeader* bh, size_t nb, Position key) {
  int lo = 0, hi = static_cast<int>(nb) - 1, ans = -1;
  while (lo <= hi) {
    int mid = lo + (hi - lo) / 2;
    if (bh[mid].base <= key) {
      ans = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return ans;
}

}  // namespace

size_t XrcEncodeLeaf(Page* p, const Element* elems, size_t n) {
  XrPageHeader* hdr = XrHeader(p);
  uint8_t* area = LeafArea(p);
  if (n > kXrcMaxPageEntries) n = kXrcMaxPageEntries;

  // Pass 1: greedily accept entries against the exact byte budget.
  size_t accepted = 0, blocks = 0, payload = 0, in_block = 0;
  Position prev_start = 0;
  uint32_t prev_id = 0;
  for (size_t i = 0; i < n; ++i) {
    const Element& e = elems[i];
    const bool new_block = (in_block == 0 || in_block == kXrcBlockEntries);
    size_t bytes = 0;
    if (!new_block) bytes += Varint32Size(e.start - prev_start);
    bytes += Varint32Size(e.end - e.start);
    bytes += Varint32Size((static_cast<uint32_t>(e.level) << 1) |
                          (e.flags & kInStabListFlag));
    bytes += new_block
                 ? Varint32Size(e.id)
                 : Varint32Size(ZigZag32(static_cast<int32_t>(e.id) -
                                         static_cast<int32_t>(prev_id)));
    const size_t nb = blocks + (new_block ? 1 : 0);
    if (sizeof(XrcAreaHeader) + nb * sizeof(XrcBlockHeader) + payload + bytes >
        kLeafAreaSize) {
      break;
    }
    if (new_block) {
      ++blocks;
      in_block = 0;
    }
    ++in_block;
    payload += bytes;
    prev_start = e.start;
    prev_id = e.id;
    ++accepted;
  }

  // Pass 2: lay the page out with the now-known block count.
  auto* ah = reinterpret_cast<XrcAreaHeader*>(area);
  ah->num_blocks = static_cast<uint16_t>(blocks);
  ah->pad = 0;
  auto* bh = reinterpret_cast<XrcBlockHeader*>(area + sizeof(XrcAreaHeader));
  uint8_t* out = area + sizeof(XrcAreaHeader) + blocks * sizeof(XrcBlockHeader);
  size_t bi = 0;
  for (size_t i = 0; i < accepted; ++bi) {
    const size_t c = std::min(kXrcBlockEntries, accepted - i);
    XrcBlockHeader& h = bh[bi];
    h.base = elems[i].start;
    h.count = static_cast<uint16_t>(c);
    h.offset = static_cast<uint16_t>(out - area);
    uint32_t max_end = 0;
    for (size_t j = 0; j < c; ++j) {
      const Element& e = elems[i + j];
      max_end = std::max(max_end, e.end);
      if (j > 0) out = PutVarint32(out, e.start - elems[i + j - 1].start);
      out = PutVarint32(out, e.end - e.start);
      out = PutVarint32(out, (static_cast<uint32_t>(e.level) << 1) |
                                 (e.flags & kInStabListFlag));
      out = (j == 0)
                ? PutVarint32(out, e.id)
                : PutVarint32(out,
                              ZigZag32(static_cast<int32_t>(e.id) -
                                       static_cast<int32_t>(elems[i + j - 1].id)));
    }
    h.aux = max_end;
    i += c;
  }
  // Zero the tail: deterministic page images keep WAL/CRC diffs honest.
  std::memset(out, 0, static_cast<size_t>(area + kLeafAreaSize - out));
  hdr->count = static_cast<uint32_t>(accepted);
  hdr->format = kXrPageFormatCompressed;
  return accepted;
}

Status XrcDecodeLeaf(const Page* p, std::vector<Element>* out) {
  const XrPageHeader* hdr = XrHeader(p);
  if (hdr->format != kXrPageFormatCompressed) {
    return Status::Corruption("XrcDecodeLeaf: page is not compressed");
  }
  if (hdr->count == 0) return Status();
  if (hdr->count > kXrcMaxPageEntries) {
    return Status::Corruption("compressed leaf: count out of range");
  }
  const uint8_t* area = LeafArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kLeafAreaSize, hdr->count, &bh, &nb));
  // Reserve only for an empty vector: a caller appending page after page
  // (a chain read, a whole-tree scan) keeps the vector's geometric growth.
  if (out->empty()) out->reserve(hdr->count);
  for (size_t i = 0; i < nb; ++i) {
    XR_RETURN_IF_ERROR(DecodeLeafBlock(area, kLeafAreaSize, bh[i], out));
  }
  return Status();
}

Status XrcDecodeLeafFrom(const Page* p, Position lo,
                         std::vector<Element>* out) {
  const XrPageHeader* hdr = XrHeader(p);
  if (hdr->format != kXrPageFormatCompressed) {
    return Status::Corruption("XrcDecodeLeafFrom: page is not compressed");
  }
  if (hdr->count == 0) return Status();
  if (hdr->count > kXrcMaxPageEntries) {
    return Status::Corruption("compressed leaf: count out of range");
  }
  const uint8_t* area = LeafArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kLeafAreaSize, hdr->count, &bh, &nb));
  int first = FindBlockLE(bh, nb, lo);
  if (first < 0) first = 0;
  for (size_t i = static_cast<size_t>(first); i < nb; ++i) {
    XR_RETURN_IF_ERROR(DecodeLeafBlock(area, kLeafAreaSize, bh[i], out));
  }
  return Status();
}

namespace {

Result<bool> CompressedLeafFind(const Page* p, Position key, Element* out) {
  const XrPageHeader* hdr = XrHeader(p);
  if (hdr->count == 0) return false;
  const uint8_t* area = LeafArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kLeafAreaSize, hdr->count, &bh, &nb));
  const int bi = FindBlockLE(bh, nb, key);
  if (bi < 0) return false;
  std::vector<Element> block;
  block.reserve(bh[bi].count);
  XR_RETURN_IF_ERROR(DecodeLeafBlock(area, kLeafAreaSize, bh[bi], &block));
  auto it = std::lower_bound(
      block.begin(), block.end(), key,
      [](const Element& e, Position k) { return e.start < k; });
  if (it == block.end() || it->start != key) return false;
  *out = *it;
  return true;
}

Result<bool> CompressedLeafSetFlag(Page* p, Position key, bool in_stab) {
  XrPageHeader* hdr = XrHeader(p);
  if (hdr->count == 0) return false;
  uint8_t* area = LeafArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kLeafAreaSize, hdr->count, &bh, &nb));
  const int bi = FindBlockLE(bh, nb, key);
  if (bi < 0) return false;
  const XrcBlockHeader& h = bh[bi];
  const uint8_t* q = area + h.offset;
  const uint8_t* limit = area + kLeafAreaSize;
  Position start = h.base;
  for (size_t j = 0; j < h.count; ++j) {
    uint32_t delta, width, lf, idv;
    if (j > 0) {
      q = GetVarint32(q, limit, &delta);
      if (!q) return Status::Corruption("compressed leaf: truncated start delta");
      start += delta;
    }
    q = GetVarint32(q, limit, &width);
    if (!q) return Status::Corruption("compressed leaf: truncated width");
    // The InStabList flag is the low bit of the level varint's first byte;
    // flipping it never changes the encoded length.
    uint8_t* flag_byte = area + (q - area);
    q = GetVarint32(q, limit, &lf);
    if (!q) return Status::Corruption("compressed leaf: truncated level");
    q = GetVarint32(q, limit, &idv);
    if (!q) return Status::Corruption("compressed leaf: truncated id");
    if (start == key) {
      *flag_byte = static_cast<uint8_t>((*flag_byte & ~uint8_t{1}) |
                                        (in_stab ? 1 : 0));
      return true;
    }
    if (start > key) return false;
  }
  return false;
}

}  // namespace

size_t XrcEncodeStab(Page* p, const StabEntry* entries, size_t n) {
  StabPageHeader* hdr = StabHeader(p);
  uint8_t* area = StabArea(p);
  if (n > kXrcMaxPageEntries) n = kXrcMaxPageEntries;

  size_t accepted = 0, blocks = 0, payload = 0, in_block = 0;
  StabEntry prev{};
  for (size_t i = 0; i < n; ++i) {
    const StabEntry& se = entries[i];
    const bool new_block = (in_block == 0 || in_block == kXrcBlockEntries);
    size_t bytes = 0;
    if (!new_block) {
      bytes += Varint32Size(se.key - prev.key);
      bytes += Varint32Size(ZigZag32(static_cast<int32_t>(se.s) -
                                     static_cast<int32_t>(prev.s)));
    }
    bytes += Varint32Size(se.e - se.s);
    bytes += new_block
                 ? Varint32Size(se.elem_id)
                 : Varint32Size(ZigZag32(static_cast<int32_t>(se.elem_id) -
                                         static_cast<int32_t>(prev.elem_id)));
    bytes += Varint32Size(se.level);
    const size_t nb = blocks + (new_block ? 1 : 0);
    if (sizeof(XrcAreaHeader) + nb * sizeof(XrcBlockHeader) + payload + bytes >
        kStabAreaSize) {
      break;
    }
    if (new_block) {
      ++blocks;
      in_block = 0;
    }
    ++in_block;
    payload += bytes;
    prev = se;
    ++accepted;
  }

  auto* ah = reinterpret_cast<XrcAreaHeader*>(area);
  ah->num_blocks = static_cast<uint16_t>(blocks);
  ah->pad = 0;
  auto* bh = reinterpret_cast<XrcBlockHeader*>(area + sizeof(XrcAreaHeader));
  uint8_t* out = area + sizeof(XrcAreaHeader) + blocks * sizeof(XrcBlockHeader);
  size_t bi = 0;
  for (size_t i = 0; i < accepted; ++bi) {
    const size_t c = std::min(kXrcBlockEntries, accepted - i);
    XrcBlockHeader& h = bh[bi];
    h.base = entries[i].key;
    h.aux = entries[i].s;
    h.count = static_cast<uint16_t>(c);
    h.offset = static_cast<uint16_t>(out - area);
    for (size_t j = 0; j < c; ++j) {
      const StabEntry& se = entries[i + j];
      if (j > 0) {
        const StabEntry& pv = entries[i + j - 1];
        out = PutVarint32(out, se.key - pv.key);
        out = PutVarint32(out, ZigZag32(static_cast<int32_t>(se.s) -
                                        static_cast<int32_t>(pv.s)));
      }
      out = PutVarint32(out, se.e - se.s);
      out = (j == 0)
                ? PutVarint32(out, se.elem_id)
                : PutVarint32(out, ZigZag32(static_cast<int32_t>(se.elem_id) -
                                            static_cast<int32_t>(
                                                entries[i + j - 1].elem_id)));
      out = PutVarint32(out, se.level);
    }
    i += c;
  }
  std::memset(out, 0, static_cast<size_t>(area + kStabAreaSize - out));
  hdr->count = static_cast<uint32_t>(accepted);
  hdr->format = kXrPageFormatCompressed;
  return accepted;
}

Status XrcDecodeStab(const Page* p, std::vector<StabEntry>* out) {
  const StabPageHeader* hdr = StabHeader(p);
  if (hdr->format != kXrPageFormatCompressed) {
    return Status::Corruption("XrcDecodeStab: page is not compressed");
  }
  if (hdr->count == 0) return Status();
  if (hdr->count > kXrcMaxPageEntries) {
    return Status::Corruption("compressed stab page: count out of range");
  }
  const uint8_t* area = StabArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kStabAreaSize, hdr->count, &bh, &nb));
  // Reserve only for an empty vector: a caller appending page after page
  // (a chain read, a whole-tree scan) keeps the vector's geometric growth.
  if (out->empty()) out->reserve(hdr->count);
  for (size_t i = 0; i < nb; ++i) {
    XR_RETURN_IF_ERROR(DecodeStabBlock(area, kStabAreaSize, bh[i], out));
  }
  return Status();
}

Status XrcDecodeStabForKey(const Page* p, Position key,
                           std::vector<StabEntry>* out,
                           bool* covers_page_end) {
  const StabPageHeader* hdr = StabHeader(p);
  if (hdr->format != kXrPageFormatCompressed) {
    return Status::Corruption("XrcDecodeStabForKey: page is not compressed");
  }
  *covers_page_end = true;
  if (hdr->count == 0) return Status();
  if (hdr->count > kXrcMaxPageEntries) {
    return Status::Corruption("compressed stab page: count out of range");
  }
  const uint8_t* area = StabArea(p);
  const XrcBlockHeader* bh;
  size_t nb;
  XR_RETURN_IF_ERROR(ValidateBlocks(area, kStabAreaSize, hdr->count, &bh, &nb));
  // Candidate blocks: a block b can hold entries of `key`'s run iff
  // base_b <= key and (b is last or base_{b+1} >= key). With ascending
  // bases that is the range [lo_block, hi_block]; one extra block past
  // hi_block (first base > key) supplies a terminator entry so callers can
  // tell "run ended here" from "run may continue on the next page".
  const int hi_block = FindBlockLE(bh, nb, key);
  size_t first, last;
  if (hi_block < 0) {
    first = last = 0;  // every base > key: block 0's head is a terminator
  } else {
    // First block whose base >= key; the block before it may hold the
    // run's head in its tail.
    size_t fge = 0;
    {
      size_t lo = 0, hi = nb;
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (bh[mid].base < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      fge = lo;
    }
    first = (fge > 0) ? fge - 1 : 0;
    last = std::min(static_cast<size_t>(hi_block) + 1, nb - 1);
  }
  for (size_t i = first; i <= last; ++i) {
    XR_RETURN_IF_ERROR(DecodeStabBlock(area, kStabAreaSize, bh[i], out));
  }
  *covers_page_end = (last == nb - 1);
  return Status();
}

namespace {

/// The capacity of a leaf's format, checked against its count: every view,
/// lookup and flag flip goes through here first.
Status CheckLeaf(const Page* p) {
  const XrPageHeader* hdr = XrHeader(p);
  if (hdr->magic != kXrLeafMagic || hdr->is_leaf != 1) {
    return Status::Corruption("xrtree: page " + std::to_string(p->page_id()) +
                              " is not a leaf");
  }
  size_t capacity;
  switch (hdr->format) {
    case kXrPageFormatFixed:
      capacity = kXrLeafMaxEntries;
      break;
    case kXrPageFormatCompressed:
      capacity = kXrcMaxPageEntries;
      break;
    default:
      return Status::Corruption("xrtree: leaf " +
                                std::to_string(p->page_id()) +
                                " has an unknown format");
  }
  if (hdr->count > capacity) {
    return Status::Corruption("xrtree: leaf " + std::to_string(p->page_id()) +
                              " claims " + std::to_string(hdr->count) +
                              " entries, past its format's capacity");
  }
  return Status::Ok();
}

bool StartBefore(const Element& e, Position key) { return e.start < key; }

/// A stab page's magic, and a fixed page's count against its capacity (the
/// decoders check a compressed page's).
Status CheckStab(const Page* p) {
  const StabPageHeader* hdr = StabHeader(p);
  if (hdr->magic != kXrStabMagic) {
    return Status::Corruption("xrtree: page " + std::to_string(p->page_id()) +
                              " is not a stab page");
  }
  if (!StabPageIsCompressed(p) && hdr->count > kStabPageMaxEntries) {
    return Status::Corruption("xrtree: stab page " +
                              std::to_string(p->page_id()) + " claims " +
                              std::to_string(hdr->count) +
                              " entries, past its capacity");
  }
  return Status::Ok();
}

/// The index of a fixed leaf's slot with start == key, or its count.
uint32_t FixedSlotOf(const Page* p, Position key) {
  const Element* slots = XrLeafSlots(p);
  const uint32_t n = XrHeader(p)->count;
  const auto i = static_cast<uint32_t>(
      std::lower_bound(slots, slots + n, key, StartBefore) - slots);
  return i < n && slots[i].start == key ? i : n;
}

}  // namespace

Status XrCheckPage(const Page* p) {
  const XrPageHeader* hdr = XrHeader(p);
  if (hdr->magic == kXrLeafMagic) return CheckLeaf(p);
  if (hdr->magic != kXrInternalMagic || hdr->is_leaf != 0) {
    return Status::Corruption("xrtree: page " + std::to_string(p->page_id()) +
                              " is not a tree node");
  }
  if (hdr->count > kXrInternalMaxEntries) {
    return Status::Corruption("xrtree: internal node " +
                              std::to_string(p->page_id()) + " claims " +
                              std::to_string(hdr->count) +
                              " keys, past its capacity");
  }
  return Status::Ok();
}

Result<XrLeafView> XrLeafRead(const Page* p, std::vector<Element>* scratch,
                              Position from) {
  XR_RETURN_IF_ERROR(CheckLeaf(p));
  if (!XrLeafIsCompressed(p)) {
    return XrLeafView{XrLeafSlots(p), XrHeader(p)->count, true};
  }
  scratch->clear();
  XR_RETURN_IF_ERROR(from == 0 ? XrcDecodeLeaf(p, scratch)
                               : XrcDecodeLeafFrom(p, from, scratch));
  return XrLeafView{scratch->data(), static_cast<uint32_t>(scratch->size()),
                    false};
}

Status XrLeafAppend(const Page* p, std::vector<Element>* out,
                    Position from) {
  XR_RETURN_IF_ERROR(CheckLeaf(p));
  if (!XrLeafIsCompressed(p)) {
    const Element* begin = XrLeafSlots(p);
    const Element* end = begin + XrHeader(p)->count;
    if (from != 0) begin = std::lower_bound(begin, end, from, StartBefore);
    out->insert(out->end(), begin, end);
    return Status::Ok();
  }
  if (from == 0) return XrcDecodeLeaf(p, out);
  // Decode from the block that could hold `from`, then drop the entries
  // below it that lead that block.
  const auto at = static_cast<ptrdiff_t>(out->size());
  XR_RETURN_IF_ERROR(XrcDecodeLeafFrom(p, from, out));
  out->erase(out->begin() + at, std::lower_bound(out->begin() + at,
                                                 out->end(), from,
                                                 StartBefore));
  return Status::Ok();
}

Result<bool> XrLeafFind(const Page* p, Position key, Element* out) {
  XR_RETURN_IF_ERROR(CheckLeaf(p));
  if (XrLeafIsCompressed(p)) return CompressedLeafFind(p, key, out);
  const uint32_t i = FixedSlotOf(p, key);
  if (i == XrHeader(p)->count) return false;
  *out = XrLeafSlots(p)[i];
  return true;
}

Result<bool> XrLeafSetFlag(Page* p, Position key, bool in_stab) {
  XR_RETURN_IF_ERROR(CheckLeaf(p));
  if (XrLeafIsCompressed(p)) return CompressedLeafSetFlag(p, key, in_stab);
  const uint32_t i = FixedSlotOf(p, key);
  if (i == XrHeader(p)->count) return false;
  SetInStabList(&XrLeafSlots(p)[i], in_stab);
  return true;
}

uint16_t XrLeafFormatAfterEdit(const Page* before, uint32_t leaf_capacity) {
  return XrLeafIsCompressed(before) && XrHeader(before)->count > leaf_capacity
             ? kXrPageFormatCompressed
             : kXrPageFormatFixed;
}

Status XrLeafWrite(Page* p, const Element* elems, size_t n, uint16_t format) {
  if (format == kXrPageFormatCompressed) {
    if (XrcEncodeLeaf(p, elems, n) != n) {
      return Status::Corruption("xrtree: " + std::to_string(n) +
                                " entries do not fit a compressed leaf");
    }
    return Status::Ok();
  }
  if (n > kXrLeafMaxEntries) {
    return Status::Corruption("xrtree: " + std::to_string(n) +
                              " entries do not fit a fixed leaf");
  }
  XrPageHeader* hdr = XrHeader(p);
  Element* slots = XrLeafSlots(p);
  std::memmove(slots, elems, n * sizeof(Element));
  // Zero the slack so the fixed image is deterministic for WAL/CRC.
  std::memset(reinterpret_cast<char*>(slots + n), 0,
              kLeafAreaSize - n * sizeof(Element));
  hdr->count = static_cast<uint32_t>(n);
  hdr->format = kXrPageFormatFixed;
  return Status::Ok();
}

Result<XrStabView> XrStabRead(const Page* p, Position key,
                              std::vector<StabEntry>* scratch) {
  XR_RETURN_IF_ERROR(CheckStab(p));
  if (!StabPageIsCompressed(p)) {
    return XrStabView{StabSlots(p), StabHeader(p)->count, true};
  }
  // The run provably ends on this page when the decoded span stopped short
  // of the page end or a larger key follows within it.
  scratch->clear();
  bool covers_page_end;
  XR_RETURN_IF_ERROR(XrcDecodeStabForKey(p, key, scratch, &covers_page_end));
  const bool past_run = !scratch->empty() && scratch->back().key > key;
  return XrStabView{scratch->data(), static_cast<uint32_t>(scratch->size()),
                    covers_page_end && !past_run};
}

Status XrStabAppend(const Page* p, std::vector<StabEntry>* out) {
  XR_RETURN_IF_ERROR(CheckStab(p));
  if (StabPageIsCompressed(p)) return XrcDecodeStab(p, out);
  out->insert(out->end(), StabSlots(p), StabSlots(p) + StabHeader(p)->count);
  return Status::Ok();
}

}  // namespace xrtree
