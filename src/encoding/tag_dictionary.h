// Tag dictionary: the mapping from element names to symbols of the
// alphabet Sigma (Section 2 of the paper).
//
// Every distinct tag name (attribute pseudo-tags "@name" included) gets a
// 15-bit TagId; the succinct string representation stores the TagId, which
// is what makes a "character" of the materialized string 2 bytes wide
// (Section 4.2).  The dictionary also counts tag occurrences, which feeds
// the tag-selectivity heuristic of Section 6.2.

#ifndef NOKXML_ENCODING_TAG_DICTIONARY_H_
#define NOKXML_ENCODING_TAG_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace nok {

/// Symbol of the tag alphabet.  Valid ids are 1..32767; 0 is invalid.
using TagId = uint16_t;

inline constexpr TagId kInvalidTag = 0;
/// Ids must fit in 15 bits so the string store can mark the first byte of
/// an open symbol with the high bit (see string_store.h).
inline constexpr TagId kMaxTagId = 0x7fff;

/// Bidirectional name <-> TagId mapping with occurrence counts.
class TagDictionary {
 public:
  TagDictionary() = default;

  /// Returns the id for name, assigning a fresh one on first sight.
  /// Fails with OutOfRange after 32767 distinct names.
  Result<TagId> Intern(std::string_view name);

  /// The id for name if known.
  std::optional<TagId> Lookup(std::string_view name) const;

  /// The name for a valid id; NOK_CHECK-fails on an unknown id.
  const std::string& Name(TagId id) const;

  /// Number of distinct names (the "tags" column of Table 1).
  size_t size() const { return names_.size(); }

  /// Occurrence bookkeeping for the selectivity heuristic.
  void AddOccurrence(TagId id, uint64_t n = 1);
  /// Decrements the count (used by subtree deletion).
  void SubOccurrence(TagId id, uint64_t n = 1);
  uint64_t OccurrenceCount(TagId id) const;
  /// Total occurrences across all tags (= subject tree node count).
  uint64_t total_occurrences() const { return total_; }

  /// Serialization (one small file per document store).  The blob carries
  /// a "NOKDICT2" header with a CRC-32C of the payload and the store
  /// epoch, so a torn or bit-rotted dictionary file is detected at open.
  std::string Serialize(uint64_t epoch = 0) const;

  /// Verifies the header's CRC; a blob without the header (the retired
  /// headerless format) is Corruption.  *epoch, if non-null, receives the
  /// stored epoch.
  static Result<TagDictionary> Deserialize(const Slice& data,
                                           uint64_t* epoch = nullptr);

 private:
  std::unordered_map<std::string, TagId> ids_;
  std::vector<std::string> names_;    // names_[id - 1]
  std::vector<uint64_t> counts_;      // counts_[id - 1]
  uint64_t total_ = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_TAG_DICTIONARY_H_
