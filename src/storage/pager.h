// Pager: fixed-size-page view over a File.
//
// The pager is deliberately dumb: it allocates pages densely at the end of
// the file and reads/writes whole pages.  Free-space management is the
// business of the structures above it (the B+ tree keeps a free list in its
// meta page; the string store chains pages with next-page pointers).
//
// Each page occupies a slot of page_size + 4 bytes on disk: the page body
// followed by a CRC-32C trailer over the body.  ReadPage reads the whole
// slot with one positional read and verifies the trailer, failing with
// Status::Corruption (naming the page) on a mismatch, so torn writes and
// bit rot surface as clean errors instead of garbage data.
//
// Callers always see page_size-byte buffers; the trailer is invisible
// above the pager.
//
// Thread safety: ReadPage is const and uses positional (pread-style)
// reads, so any number of threads may read concurrently provided no
// thread is calling AllocatePage/WritePage at the same time.  The sharded
// BufferPool relies on exactly this contract for its concurrent read
// path; the stores' read-only open mode guarantees the no-writer side.

#ifndef NOKXML_STORAGE_PAGER_H_
#define NOKXML_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/file.h"
#include "storage/page.h"

namespace nok {

/// Bytes of the per-page CRC-32C trailer.
inline constexpr uint32_t kPageTrailerSize = 4;

/// The Corruption every reader returns for a file in a retired on-disk
/// format (unchecksummed pages, old meta versions, old index entries):
/// `what` names the file and the format it was found in.
Status RetiredFormat(const std::string& what);

/// Fixed-size-page adapter over a File.  Owns the file.
class Pager {
 public:
  /// Opens a pager over file (taking ownership).  Fails with
  /// InvalidArgument if page_size is 0 and with Corruption if the file
  /// size is not a whole number of on-disk page slots (a truncated or
  /// foreign file).
  static Result<std::unique_ptr<Pager>> Open(
      std::unique_ptr<File> file, uint32_t page_size = kDefaultPageSize);

  uint32_t page_size() const { return page_size_; }
  PageId page_count() const { return page_count_; }

  /// Appends a zeroed page; *id receives its page number.
  Status AllocatePage(PageId* id);

  /// Reads page id into buf (page_size() bytes).  The trailer is
  /// verified first; a mismatch is Status::Corruption.
  Status ReadPage(PageId id, char* buf) const;

  /// Writes page id from buf (page_size() bytes) with its trailer.
  Status WritePage(PageId id, const char* buf);

  /// Flushes the underlying file.
  Status Sync() { return file_->Sync(); }

  /// Bytes currently occupied by pages on disk (trailers included).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(page_count_) * slot_size_;
  }

  /// Releases ownership of the underlying file; the pager must not be
  /// used afterwards.  (Used by builders that hand a finished file to a
  /// reader.)
  std::unique_ptr<File> ReleaseFile() { return std::move(file_); }

 private:
  Pager(std::unique_ptr<File> file, uint32_t page_size);

  std::unique_ptr<File> file_;
  uint32_t page_size_;
  uint32_t slot_size_;  ///< On-disk bytes per page (body + trailer).
  std::string zero_slot_;  ///< A zeroed body and its trailer.
  PageId page_count_ = 0;
};

}  // namespace nok

#endif  // NOKXML_STORAGE_PAGER_H_
