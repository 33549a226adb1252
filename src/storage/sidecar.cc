#include "storage/sidecar.h"

#include "common/coding.h"
#include "common/hash.h"
#include "common/slice.h"

namespace nok {
namespace {

constexpr size_t kHeaderSize = 32;
constexpr size_t kStampOffset = 12;  // Epoch + node count, 16 bytes.
constexpr size_t kStampSize = 16;
constexpr size_t kCrcOffset = 28;

Status EnvelopeError(const SidecarFormat& format, const std::string& what) {
  return Status::Corruption(std::string(format.label) + ": " + what);
}

}  // namespace

std::string SealSidecar(const SidecarFormat& format, uint64_t epoch,
                        uint64_t node_count, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  PutFixed64(&out, format.magic);
  PutFixed32(&out, format.version);
  PutFixed64(&out, epoch);
  PutFixed64(&out, node_count);
  uint32_t crc = Crc32c(Slice(out.data() + kStampOffset, kStampSize));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutFixed32(&out, crc);
  out += payload;
  return out;
}

Result<SidecarContents> UnsealSidecar(const SidecarFormat& format,
                                      std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return EnvelopeError(format, "truncated header");
  }
  const char* p = bytes.data();
  if (DecodeFixed64(p) != format.magic) {
    return EnvelopeError(format, "bad magic");
  }
  const uint32_t version = DecodeFixed32(p + 8);
  if (version != format.version) {
    return EnvelopeError(format, "unsupported format version " +
                                     std::to_string(version));
  }
  SidecarContents contents;
  contents.epoch = DecodeFixed64(p + kStampOffset);
  contents.node_count = DecodeFixed64(p + kStampOffset + 8);
  contents.payload = bytes.substr(kHeaderSize);
  uint32_t crc = Crc32c(Slice(p + kStampOffset, kStampSize));
  crc = Crc32cExtend(crc, contents.payload.data(), contents.payload.size());
  if (crc != DecodeFixed32(p + kCrcOffset)) {
    return EnvelopeError(format, "payload checksum mismatch");
  }
  return contents;
}

Result<std::string> ReadWholeFile(const File& file) {
  std::string bytes(static_cast<size_t>(file.Size()), '\0');
  if (bytes.empty()) return bytes;
  Slice unused;
  NOK_RETURN_IF_ERROR(file.ReadAt(0, bytes.size(), bytes.data(), &unused));
  return bytes;
}

Status ReplaceFileAtomically(File* temp, const std::string& dir,
                             const std::string& name,
                             std::string_view bytes) {
  NOK_RETURN_IF_ERROR(temp->Truncate(0));
  NOK_RETURN_IF_ERROR(temp->WriteAt(0, Slice(bytes.data(), bytes.size())));
  NOK_RETURN_IF_ERROR(temp->Sync());
  const std::string path = dir + "/" + name;
  NOK_RETURN_IF_ERROR(
      RenameFile(path + std::string(kSidecarTempSuffix), path));
  return SyncDir(dir);
}

}  // namespace nok
