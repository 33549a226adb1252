// Sidecar files: derived structures persisted beside a store so that an
// open can load them instead of rebuilding them from the page chain (the
// BP navigation tier's tree.bpx and the path synopsis's synopsis.pds).
//
// Every sidecar is one envelope around an opaque payload, all integers
// little-endian fixed-width:
//
//   +0   magic                                     (8 bytes)
//   +8   format version                            (4 bytes)
//   +12  store epoch the payload was built against (8 bytes)
//   +20  document node count                       (8 bytes)
//   +28  CRC-32C of bytes [12, 28) + the payload   (4 bytes), so a flipped
//        epoch or node-count byte is detected, not just payload damage
//   +32  payload
//
// A sidecar is never edited in place.  ReplaceFileAtomically writes the
// new bytes to `<name>.tmp`, syncs them, renames the temp file over the
// old sidecar and syncs the directory, so an I/O error or a crash leaves
// either the previous sidecar or the new one — never a truncated file.
// A stray temp file is harmless: nothing reads it, and the next replace
// overwrites it.

#ifndef NOKXML_STORAGE_SIDECAR_H_
#define NOKXML_STORAGE_SIDECAR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"

namespace nok {

/// Identity of one kind of sidecar.
struct SidecarFormat {
  uint64_t magic;
  uint32_t version;
  const char* label;  ///< Prefix of every error message ("bp sidecar").
};

/// A sidecar whose envelope checked out.
struct SidecarContents {
  uint64_t epoch = 0;
  uint64_t node_count = 0;
  std::string_view payload;  ///< Views the bytes passed to UnsealSidecar.
};

/// Suffix of the temp file ReplaceFileAtomically writes beside its target.
inline constexpr std::string_view kSidecarTempSuffix = ".tmp";

/// Wraps `payload` in the envelope described above.
std::string SealSidecar(const SidecarFormat& format, uint64_t epoch,
                        uint64_t node_count, std::string_view payload);

/// Checks the envelope of `bytes` (size, magic, version, CRC-32C) and
/// returns its fields; any mismatch is Corruption.
Result<SidecarContents> UnsealSidecar(const SidecarFormat& format,
                                      std::string_view bytes);

/// Reads the whole of `file`.
Result<std::string> ReadWholeFile(const File& file);

/// Replaces dir/name with `bytes`.  `temp` is dir/name + kSidecarTempSuffix,
/// opened by the caller (so wrapped files — fault injection — see every
/// write): it is truncated, written and synced, then renamed over
/// dir/name, and dir is synced to make the rename durable.
Status ReplaceFileAtomically(File* temp, const std::string& dir,
                             const std::string& name, std::string_view bytes);

}  // namespace nok

#endif  // NOKXML_STORAGE_SIDECAR_H_
