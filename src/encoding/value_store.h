// Value information storage (Section 4.1, Example 3 of the paper).
//
// Element contents are detached from the structure and stored sequentially
// in a data file as (len, value, crc32c(value)) records; Read verifies the
// CRC, so bit rot and torn record writes surface as Corruption.  Nodes
// with equal values share one record (the paper's "keep only one copy"
// optimization).  The hashed value B+ tree (B+v) and the value column
// (value_column.h) that point into this file are owned by DocumentStore.

#ifndef NOKXML_ENCODING_VALUE_STORE_H_
#define NOKXML_ENCODING_VALUE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"

namespace nok {

/// Append-only data file of (len, value, crc) records.
class ValueStore {
 public:
  /// Opens a value store over a file (empty or previously written).
  /// Takes ownership of the file.
  static Result<std::unique_ptr<ValueStore>> Open(std::unique_ptr<File> file);

  /// Appends value (deduplicated: an identical existing record's offset is
  /// returned instead of writing a new one).  *offset receives the record
  /// position usable with Read().
  Status Append(const Slice& value, uint64_t* offset);

  /// Reads the record at offset and verifies its CRC.  A record of up to
  /// 256 bytes on disk takes one positional read, a longer one two.
  Result<std::string> Read(uint64_t offset) const;

  /// Data file size in bytes.
  uint64_t SizeBytes() const { return file_->Size(); }

  Status Sync() { return file_->Sync(); }

 private:
  explicit ValueStore(std::unique_ptr<File> file) : file_(std::move(file)) {}

  std::unique_ptr<File> file_;
  /// Dedup map: value hash -> offsets of records with that hash (collision
  /// candidates are verified by reading).  Rebuilt lazily: populated from
  /// appends only, so reopening a store loses dedup across sessions —
  /// harmless (only a small size increase on later appends).
  std::unordered_map<uint64_t, std::vector<uint64_t>> dedup_;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_VALUE_STORE_H_
