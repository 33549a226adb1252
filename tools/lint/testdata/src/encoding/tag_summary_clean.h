// Conforming fixture: a header-only constexpr utility in the encoding
// layer with a same-layer include.  The
// self-test asserts nok_lint reports nothing for this shape (guard name,
// layering, formatting).

#ifndef NOKXML_ENCODING_TAG_SUMMARY_CLEAN_H_
#define NOKXML_ENCODING_TAG_SUMMARY_CLEAN_H_

#include <cstdint>

#include "encoding/tag_dictionary.h"

namespace nok {

inline constexpr uint32_t kFixtureExactBits = 64;

/// Returns a one-bit mask for small ids, a two-bit mask otherwise.
inline constexpr uint64_t FixtureSummaryBits(uint32_t id) {
  if (id == 0) return 0;
  if (id <= kFixtureExactBits) return uint64_t{1} << (id - 1);
  const uint64_t h = id * uint64_t{0x9E3779B97F4A7C15};
  return (uint64_t{1} << (h & 63)) | (uint64_t{1} << ((h >> 6) & 63));
}

}  // namespace nok

#endif  // NOKXML_ENCODING_TAG_SUMMARY_CLEAN_H_
