#include "storage/file.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <vector>

namespace nok {

namespace {

/// Maps a write-path errno to a Status with an actionable message.  Disk
/// exhaustion gets its own wording so operators do not chase it as a bug.
Status WriteErrnoToStatus(const char* op, int err) {
  if (err == ENOSPC) {
    return Status::IOError(std::string(op) +
                           ": no space left on device (ENOSPC); free disk "
                           "space and retry");
  }
#ifdef EDQUOT
  if (err == EDQUOT) {
    return Status::IOError(std::string(op) +
                           ": disk quota exceeded (EDQUOT); raise the "
                           "quota or free space and retry");
  }
#endif
  return Status::IOError(std::string(op) + ": " + strerror(err));
}

/// File backed by a POSIX file descriptor using pread/pwrite.  ReadAt is
/// safe for concurrent callers (pread carries its own offset); the write
/// path is single-threaded by contract.
class PosixFile final : public File {
 public:
  PosixFile(int fd, uint64_t size, bool writable)
      : fd_(fd), size_(size), writable_(writable) {}

  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadAt(uint64_t offset, size_t n, char* scratch,
                Slice* out) const override {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, scratch + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("pread: ") + strerror(errno));
      }
      if (r == 0) {
        return Status::IOError("short read at offset " +
                               std::to_string(offset));
      }
      got += static_cast<size_t>(r);
    }
    *out = Slice(scratch, n);
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    if (!writable_) {
      return Status::InvalidArgument("pwrite: file opened read-only");
    }
    size_t put = 0;
    while (put < data.size()) {
      ssize_t w = ::pwrite(fd_, data.data() + put, data.size() - put,
                           static_cast<off_t>(offset + put));
      if (w < 0) {
        if (errno == EINTR) continue;
        return WriteErrnoToStatus("pwrite", errno);
      }
      put += static_cast<size_t>(w);
    }
    size_ = std::max(size_, offset + data.size());
    return Status::OK();
  }

  Status Append(const Slice& data, uint64_t* offset) override {
    *offset = size_;
    return WriteAt(size_, data);
  }

  uint64_t Size() const override { return size_; }

  Status Truncate(uint64_t size) override {
    if (!writable_) {
      return Status::InvalidArgument("ftruncate: file opened read-only");
    }
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return WriteErrnoToStatus("ftruncate", errno);
    }
    size_ = size;
    return Status::OK();
  }

  Status Sync() override {
    if (!writable_) return Status::OK();  // Nothing can be dirty.
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(std::string("fdatasync: ") + strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
  uint64_t size_;
  bool writable_;
};

/// File held entirely in a std::string; used by tests.
class MemFile final : public File {
 public:
  Status ReadAt(uint64_t offset, size_t n, char* scratch,
                Slice* out) const override {
    if (offset + n > data_.size()) {
      return Status::IOError("mem read past end of file");
    }
    memcpy(scratch, data_.data() + offset, n);
    *out = Slice(scratch, n);
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    if (offset + data.size() > data_.size()) {
      data_.resize(offset + data.size());
    }
    memcpy(data_.data() + offset, data.data(), data.size());
    return Status::OK();
  }

  Status Append(const Slice& data, uint64_t* offset) override {
    *offset = data_.size();
    data_.append(data.data(), data.size());
    return Status::OK();
  }

  uint64_t Size() const override { return data_.size(); }

  Status Truncate(uint64_t size) override {
    data_.resize(size);
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }

 private:
  std::string data_;
};

}  // namespace

Result<std::unique_ptr<File>> OpenPosixFile(const std::string& path,
                                            bool create) {
  // O_CLOEXEC so store fds do not leak into children the process spawns.
  int flags = O_RDWR | O_CLOEXEC;
  if (create) flags |= O_CREAT;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  return std::unique_ptr<File>(
      new PosixFile(fd, static_cast<uint64_t>(st.st_size),
                    /*writable=*/true));
}

Result<std::unique_ptr<File>> OpenPosixFileReadOnly(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  return std::unique_ptr<File>(
      new PosixFile(fd, static_cast<uint64_t>(st.st_size),
                    /*writable=*/false));
}

std::unique_ptr<File> NewMemFile() { return std::make_unique<MemFile>(); }

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + path + ": " + strerror(errno));
  }
  return Status::OK();
}

Status CreateDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("mkdir " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  NOK_ASSIGN_OR_RETURN(auto file, OpenPosixFile(path, /*create=*/false));
  out->resize(file->Size());
  if (out->empty()) return Status::OK();
  Slice unused;
  return file->ReadAt(0, out->size(), out->data(), &unused);
}

Status WriteStringToFile(const std::string& path, const Slice& data) {
  NOK_ASSIGN_OR_RETURN(auto file, OpenPosixFile(path, /*create=*/true));
  NOK_RETURN_IF_ERROR(file->Truncate(0));
  NOK_RETURN_IF_ERROR(file->WriteAt(0, data));
  return file->Sync();
}

}  // namespace nok
