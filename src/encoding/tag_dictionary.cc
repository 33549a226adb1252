#include "encoding/tag_dictionary.h"

#include <cstring>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "storage/pager.h"

namespace nok {

namespace {
// Header: magic (8 bytes) | crc32c(epoch + payload) (4) | epoch (8) |
// payload.  A file without the magic is the retired headerless format.
constexpr char kDictMagic[8] = {'N', 'O', 'K', 'D', 'I', 'C', 'T', '2'};
constexpr size_t kDictHeaderSize = 8 + 4 + 8;
}  // namespace

Result<TagId> TagDictionary::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  if (names_.size() >= kMaxTagId) {
    return Status::OutOfRange("tag alphabet exhausted (32767 names)");
  }
  names_.emplace_back(name);
  counts_.push_back(0);
  TagId id = static_cast<TagId>(names_.size());
  ids_.emplace(std::string(name), id);
  return id;
}

std::optional<TagId> TagDictionary::Lookup(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& TagDictionary::Name(TagId id) const {
  NOK_CHECK(id != kInvalidTag && id <= names_.size());
  return names_[id - 1];
}

void TagDictionary::AddOccurrence(TagId id, uint64_t n) {
  NOK_CHECK(id != kInvalidTag && id <= counts_.size());
  counts_[id - 1] += n;
  total_ += n;
}

void TagDictionary::SubOccurrence(TagId id, uint64_t n) {
  NOK_CHECK(id != kInvalidTag && id <= counts_.size());
  NOK_CHECK(counts_[id - 1] >= n && total_ >= n);
  counts_[id - 1] -= n;
  total_ -= n;
}

uint64_t TagDictionary::OccurrenceCount(TagId id) const {
  if (id == kInvalidTag || id > counts_.size()) return 0;
  return counts_[id - 1];
}

std::string TagDictionary::Serialize(uint64_t epoch) const {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(names_.size()));
  for (size_t i = 0; i < names_.size(); ++i) {
    PutLengthPrefixedSlice(&payload, Slice(names_[i]));
    PutVarint64(&payload, counts_[i]);
  }
  // The CRC covers everything after itself (epoch + payload), so no byte
  // of the record can rot undetected.
  std::string covered;
  PutFixed64(&covered, epoch);
  covered.append(payload);
  std::string out;
  out.append(kDictMagic, sizeof(kDictMagic));
  PutFixed32(&out, Crc32c(Slice(covered)));
  out.append(covered);
  return out;
}

Result<TagDictionary> TagDictionary::Deserialize(const Slice& data,
                                                 uint64_t* epoch) {
  Slice input = data;
  if (input.size() < kDictHeaderSize ||
      memcmp(input.data(), kDictMagic, sizeof(kDictMagic)) != 0) {
    return RetiredFormat("a tag dictionary without a checksummed header");
  }
  const uint32_t stored = DecodeFixed32(input.data() + 8);
  const uint32_t actual = Crc32c(Slice(input.data() + 12, input.size() - 12));
  if (stored != actual) {
    return Status::Corruption(
        "tag dictionary checksum mismatch: stored " + std::to_string(stored) +
        ", computed " + std::to_string(actual));
  }
  if (epoch != nullptr) *epoch = DecodeFixed64(input.data() + 12);
  input.RemovePrefix(kDictHeaderSize);
  TagDictionary dict;
  uint32_t n = 0;
  if (!GetVarint32(&input, &n)) {
    return Status::Corruption("tag dictionary: bad count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    Slice name;
    uint64_t count = 0;
    if (!GetLengthPrefixedSlice(&input, &name) ||
        !GetVarint64(&input, &count)) {
      return Status::Corruption("tag dictionary: truncated entry");
    }
    NOK_ASSIGN_OR_RETURN(TagId id, dict.Intern(name.ToStringView()));
    dict.AddOccurrence(id, count);
  }
  return dict;
}

}  // namespace nok
