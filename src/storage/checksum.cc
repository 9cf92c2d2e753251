#include "storage/checksum.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

namespace xrtree {

namespace {

constexpr uint32_t kCrcPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once. Same polynomial,
// same reflection, same result as the byte loop — only faster.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kCrcPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

bool AllZero(const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (data[i] != 0) return false;
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte step reads its words little-endian");
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  crc ^= 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // Only the low word mixes with the running CRC; the high word's four
    // lookups stay off the loop-carried dependency chain.
    uint32_t lo, hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t ComputePageCrc(const char* page, PageId page_id, uint64_t lsn) {
  uint32_t crc = Crc32(page, PageLayout::kDataSize);
  uint16_t version = PageLayout::kFormatVersion;
  crc = Crc32(&version, sizeof(version), crc);
  crc = Crc32(&page_id, sizeof(page_id), crc);
  crc = Crc32(&lsn, sizeof(lsn), crc);
  return crc;
}

void StampPageTrailer(char* page, PageId page_id, uint64_t lsn) {
  PageTrailer t;
  t.crc = ComputePageCrc(page, page_id, lsn);
  t.version = PageLayout::kFormatVersion;
  t.reserved = 0;
  t.lsn = lsn;
  std::memcpy(page + PageLayout::kDataSize, &t, sizeof(t));
}

uint64_t PageTrailerLsn(const char* page) {
  PageTrailer t;
  std::memcpy(&t, page + PageLayout::kDataSize, sizeof(t));
  return t.lsn;
}

Status VerifyPageTrailer(const char* page, PageId page_id) {
  PageTrailer t;
  std::memcpy(&t, page + PageLayout::kDataSize, sizeof(t));
  if (t.crc == 0 && t.version == 0 && t.reserved == 0 && t.lsn == 0) {
    // Unstamped trailer: legal only for a never-written (all-zero) page.
    if (AllZero(page, PageLayout::kDataSize)) return Status::Ok();
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": data without integrity trailer (torn or "
                              "pre-checksum write)");
  }
  if (t.version != PageLayout::kFormatVersion) {
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": unknown format version " +
                              std::to_string(t.version));
  }
  if (t.reserved != 0) {
    // Not covered by the crc, so it must hold its stamped value — otherwise
    // a flipped bit here would be the one undetectable corruption.
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": nonzero reserved trailer field");
  }
  uint32_t expect = ComputePageCrc(page, page_id, t.lsn);
  if (t.crc != expect) {
    return Status::Corruption("page " + std::to_string(page_id) +
                              ": checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace xrtree
