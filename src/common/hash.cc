#include "common/hash.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace nok {

uint64_t Hash64(const Slice& data) {
  // FNV-1a 64-bit.
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint32_t Hash32(const Slice& data) {
  // FNV-1a 32-bit.
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

namespace {

/// Byte-at-a-time lookup table for the reflected Castagnoli polynomial.
struct Crc32cTable {
  uint32_t entries[256];
  constexpr Crc32cTable() : entries() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

constexpr Crc32cTable kCrc32cTable;

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const char* data, size_t n) {
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = kCrc32cTable.entries[(c ^ static_cast<unsigned char>(data[i])) &
                             0xff] ^
        (c >> 8);
  }
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__)

namespace {

/// The SSE4.2 `crc32` instruction computes exactly this polynomial: eight
/// bytes per instruction over the aligned middle, one at a time at the
/// ends.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const char* data, size_t n) {
  uint64_t c = crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n, ++p) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n, ++p) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p);
  }
  return static_cast<uint32_t>(c) ^ 0xffffffffu;
}

// __builtin_cpu_init makes the check safe during static initialization.
const bool kHaveSse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return kHaveSse42 ? Crc32cExtendSse42(crc, data, n)
                    : Crc32cExtendTable(crc, data, n);
}

#else

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return Crc32cExtendTable(crc, data, n);
}

#endif

uint32_t Crc32c(const Slice& data) {
  return Crc32cExtend(0, data.data(), data.size());
}

}  // namespace nok
