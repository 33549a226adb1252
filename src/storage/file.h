// Random-access file abstraction with POSIX and in-memory implementations.
//
// Everything persistent in the library (the succinct tree string, the value
// data file, the B+ tree indexes) sits on top of this interface, so tests
// can run entirely in memory while the real system uses files on disk.

#ifndef NOKXML_STORAGE_FILE_H_
#define NOKXML_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace nok {

/// Random-access byte store.
///
/// Thread safety: ReadAt is positional and const; any number of threads
/// may call it concurrently as long as no thread is mutating the file
/// (WriteAt/Append/Truncate).  The mutating methods are not coordinated —
/// callers serialize writes, or open read-only and never write.
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly n bytes at offset into scratch; *out views scratch.
  /// Fails with IOError on short read.
  virtual Status ReadAt(uint64_t offset, size_t n, char* scratch,
                        Slice* out) const = 0;

  /// Writes data at offset, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, const Slice& data) = 0;

  /// Appends data at the end of the file; *offset receives the position the
  /// data was written at.
  virtual Status Append(const Slice& data, uint64_t* offset) = 0;

  /// Current size in bytes.
  virtual uint64_t Size() const = 0;

  /// Truncates (or extends with zeros) to size bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Flushes buffered data to durable storage.
  virtual Status Sync() = 0;
};

/// Opens (or creates, if create is true) a file on the local filesystem.
Result<std::unique_ptr<File>> OpenPosixFile(const std::string& path,
                                            bool create);

/// Opens an existing file read-only (O_RDONLY).  Every mutating method of
/// the returned File fails with InvalidArgument; Sync is a no-op.  Use for
/// stores served concurrently by many reader threads.
Result<std::unique_ptr<File>> OpenPosixFileReadOnly(
    const std::string& path);

/// Creates an empty in-memory file (for tests and ephemeral stores).
std::unique_ptr<File> NewMemFile();

/// True if a file exists at path.
bool FileExists(const std::string& path);

/// Removes the file at path if it exists (missing file is not an error).
Status RemoveFile(const std::string& path);

/// Creates directory path (and parents).  Existing directory is OK.
Status CreateDirs(const std::string& path);

/// Reads an entire file into *out.
Status ReadFileToString(const std::string& path, std::string* out);

/// Writes data to path, replacing any previous contents.
Status WriteStringToFile(const std::string& path, const Slice& data);

}  // namespace nok

#endif  // NOKXML_STORAGE_FILE_H_
