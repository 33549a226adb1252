// String hashing for the value index (B+v of the paper, Fig. 3).
//
// The paper keys the value B+ tree by a *hash* of the element content so
// that variable-length strings compare as fixed integers; collisions are
// resolved by consulting the data file (Section 4.1).  Hash64 is the hash
// used for that index.

#ifndef NOKXML_COMMON_HASH_H_
#define NOKXML_COMMON_HASH_H_

#include <cstdint>

#include "common/slice.h"

namespace nok {

/// 64-bit FNV-1a over the bytes of data.  Stable across platforms and
/// process runs (it is persisted in index files).
uint64_t Hash64(const Slice& data);

/// 32-bit variant (used for in-memory hash tables only).
uint32_t Hash32(const Slice& data);

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected) over data.  This
/// is the page-trailer checksum of the storage layer: stable across
/// platforms and process runs (it is persisted in every page and value
/// record), and the same function LevelDB/RocksDB use for block integrity.
uint32_t Crc32c(const Slice& data);

/// Incremental form: extends a running CRC-32C with n more bytes.  Seed a
/// fresh computation with crc = 0.  Uses the SSE4.2 `crc32` instruction
/// when the CPU has it, else Crc32cExtendTable.
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

/// The portable byte-at-a-time table loop Crc32cExtend falls back to.
/// Exposed so tests can compare it with the hardware path.
uint32_t Crc32cExtendTable(uint32_t crc, const char* data, size_t n);

}  // namespace nok

#endif  // NOKXML_COMMON_HASH_H_
