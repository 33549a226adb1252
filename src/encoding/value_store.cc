#include "encoding/value_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"

namespace nok {

namespace {
/// Bytes Read fetches with its first read: all of a short record.
constexpr size_t kShortRecordBytes = 256;
}  // namespace

Result<std::unique_ptr<ValueStore>> ValueStore::Open(
    std::unique_ptr<File> file) {
  return std::unique_ptr<ValueStore>(new ValueStore(std::move(file)));
}

Status ValueStore::Append(const Slice& value, uint64_t* offset) {
  const uint64_t h = Hash64(value);
  auto it = dedup_.find(h);
  if (it != dedup_.end()) {
    for (uint64_t candidate : it->second) {
      NOK_ASSIGN_OR_RETURN(auto existing, Read(candidate));
      if (Slice(existing) == value) {
        *offset = candidate;
        return Status::OK();
      }
    }
  }
  std::string record;
  PutVarint32(&record, static_cast<uint32_t>(value.size()));
  record.append(value.data(), value.size());
  PutFixed32(&record, Crc32c(value));
  NOK_RETURN_IF_ERROR(file_->Append(Slice(record), offset));
  dedup_[h].push_back(*offset);
  return Status::OK();
}

Result<std::string> ValueStore::Read(uint64_t offset) const {
  const uint64_t size = file_->Size();
  if (offset >= size) {
    return Status::OutOfRange("value offset past end of data file");
  }
  // One read covers the whole of a short record; a longer one reads its
  // value and CRC again once the header says how long they are.
  char head[kShortRecordBytes];
  const size_t head_len = static_cast<size_t>(
      std::min<uint64_t>(kShortRecordBytes, size - offset));
  Slice got;
  NOK_RETURN_IF_ERROR(file_->ReadAt(offset, head_len, head, &got));
  uint32_t len = 0;
  const char* p = GetVarint32Ptr(got.data(), got.data() + got.size(), &len);
  if (p == nullptr) {
    return Status::Corruption("bad value record header");
  }
  const uint64_t header_len = static_cast<uint64_t>(p - got.data());
  if (offset + header_len + len + 4 > size) {
    return Status::Corruption("value record overruns data file");
  }
  Slice body(p, size_t{len} + 4);  // The value, then its CRC.
  std::string long_body;
  if (header_len + len + 4 > got.size()) {
    long_body.resize(size_t{len} + 4);
    NOK_RETURN_IF_ERROR(file_->ReadAt(offset + header_len, long_body.size(),
                                      long_body.data(), &body));
  }
  const Slice value(body.data(), len);
  const uint32_t stored = DecodeFixed32(body.data() + len);
  const uint32_t actual = Crc32c(value);
  if (stored != actual) {
    return Status::Corruption(
        "checksum mismatch on value record at offset " +
        std::to_string(offset) + ": stored " + std::to_string(stored) +
        ", computed " + std::to_string(actual));
  }
  return std::string(value.data(), value.size());
}

}  // namespace nok
