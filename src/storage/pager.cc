#include "storage/pager.h"

#include <cstring>
#include <string>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"

namespace nok {

Status RetiredFormat(const std::string& what) {
  return Status::Corruption(
      what + " is a retired on-disk format that this version no longer "
             "reads; rebuild the store from its XML with `nokq build`");
}

Pager::Pager(std::unique_ptr<File> file, uint32_t page_size)
    : file_(std::move(file)),
      page_size_(page_size),
      slot_size_(page_size + kPageTrailerSize),
      zero_slot_(slot_size_, '\0') {
  EncodeFixed32(zero_slot_.data() + page_size_,
                Crc32c(Slice(zero_slot_.data(), page_size_)));
}

Result<std::unique_ptr<Pager>> Pager::Open(std::unique_ptr<File> file,
                                           uint32_t page_size) {
  if (page_size == 0) {
    return Status::InvalidArgument("page size must be positive");
  }
  std::unique_ptr<Pager> pager(new Pager(std::move(file), page_size));
  const uint64_t size = pager->file_->Size();
  if (size % pager->slot_size_ != 0) {
    return Status::Corruption(
        "file size " + std::to_string(size) +
        " is not a multiple of the on-disk page size " +
        std::to_string(pager->slot_size_) +
        ": the file is truncated, or holds the unchecksummed pages of a "
        "retired format (rebuild the store from its XML with `nokq "
        "build`)");
  }
  pager->page_count_ = static_cast<PageId>(size / pager->slot_size_);
  return pager;
}

Status Pager::AllocatePage(PageId* id) {
  uint64_t offset = 0;
  NOK_RETURN_IF_ERROR(file_->Append(Slice(zero_slot_), &offset));
  *id = page_count_++;
  NOK_CHECK(offset == static_cast<uint64_t>(*id) * slot_size_);
  return Status::OK();
}

Status Pager::ReadPage(PageId id, char* buf) const {
  if (id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(id) + " >= count " +
                              std::to_string(page_count_));
  }
  // One read for body and trailer; the slot buffer is reused per thread.
  thread_local std::string slot;
  slot.resize(slot_size_);
  Slice got;
  NOK_RETURN_IF_ERROR(file_->ReadAt(static_cast<uint64_t>(id) * slot_size_,
                                    slot_size_, slot.data(), &got));
  const uint32_t stored = DecodeFixed32(got.data() + page_size_);
  const uint32_t actual = Crc32c(Slice(got.data(), page_size_));
  if (stored != actual) {
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(id) + ": stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual));
  }
  memcpy(buf, got.data(), page_size_);
  return Status::OK();
}

Status Pager::WritePage(PageId id, const char* buf) {
  if (id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(id) + " >= count " +
                              std::to_string(page_count_));
  }
  // One contiguous write of body + trailer, so a torn write cannot leave a
  // stale trailer matching a half-new body.
  std::string slot(slot_size_, '\0');
  memcpy(slot.data(), buf, page_size_);
  EncodeFixed32(slot.data() + page_size_, Crc32c(Slice(buf, page_size_)));
  return file_->WriteAt(static_cast<uint64_t>(id) * slot_size_, Slice(slot));
}

}  // namespace nok
