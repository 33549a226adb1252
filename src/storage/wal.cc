#include "storage/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"

namespace nok {

namespace {

// Payload layouts (after the frame header), all little-endian varints:
//   kTxnBegin:     epoch
//   kFileWrite:    len-prefixed name, offset, data (to end of payload)
//   kFileTruncate: len-prefixed name, size
//   kFileReplace:  len-prefixed name, contents (to end of payload)
//   kFileRemove:   len-prefixed name
//   kTxnCommit:    epoch, record_count
//   kCheckpoint:   epoch

bool ValidRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(WalRecordType::kTxnBegin) &&
         type <= static_cast<uint8_t>(WalRecordType::kCheckpoint);
}

std::string EncodePayload(const WalRecord& rec) {
  std::string payload;
  switch (rec.type) {
    case WalRecordType::kTxnBegin:
    case WalRecordType::kCheckpoint:
      PutVarint64(&payload, rec.epoch);
      break;
    case WalRecordType::kTxnCommit:
      PutVarint64(&payload, rec.epoch);
      PutVarint64(&payload, rec.record_count);
      break;
    case WalRecordType::kFileWrite:
      PutLengthPrefixedSlice(&payload, Slice(rec.name));
      PutVarint64(&payload, rec.offset);
      payload.append(rec.data);
      break;
    case WalRecordType::kFileTruncate:
      PutLengthPrefixedSlice(&payload, Slice(rec.name));
      PutVarint64(&payload, rec.size);
      break;
    case WalRecordType::kFileReplace:
      PutLengthPrefixedSlice(&payload, Slice(rec.name));
      payload.append(rec.data);
      break;
    case WalRecordType::kFileRemove:
      PutLengthPrefixedSlice(&payload, Slice(rec.name));
      break;
  }
  return payload;
}

Status DecodePayload(WalRecordType type, Slice payload, WalRecord* rec) {
  rec->type = type;
  switch (type) {
    case WalRecordType::kTxnBegin:
    case WalRecordType::kCheckpoint:
      if (!GetVarint64(&payload, &rec->epoch)) {
        return Status::Corruption("WAL record: bad epoch varint");
      }
      return Status::OK();
    case WalRecordType::kTxnCommit:
      if (!GetVarint64(&payload, &rec->epoch) ||
          !GetVarint64(&payload, &rec->record_count)) {
        return Status::Corruption("WAL commit record: bad varint");
      }
      return Status::OK();
    case WalRecordType::kFileWrite: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name) ||
          !GetVarint64(&payload, &rec->offset)) {
        return Status::Corruption("WAL write record: bad header");
      }
      rec->name.assign(name.data(), name.size());
      rec->data.assign(payload.data(), payload.size());
      return Status::OK();
    }
    case WalRecordType::kFileTruncate: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name) ||
          !GetVarint64(&payload, &rec->size)) {
        return Status::Corruption("WAL truncate record: bad header");
      }
      rec->name.assign(name.data(), name.size());
      return Status::OK();
    }
    case WalRecordType::kFileReplace: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name)) {
        return Status::Corruption("WAL replace record: bad name");
      }
      rec->name.assign(name.data(), name.size());
      rec->data.assign(payload.data(), payload.size());
      return Status::OK();
    }
    case WalRecordType::kFileRemove: {
      Slice name;
      if (!GetLengthPrefixedSlice(&payload, &name)) {
        return Status::Corruption("WAL remove record: bad name");
      }
      rec->name.assign(name.data(), name.size());
      return Status::OK();
    }
  }
  return Status::Corruption("WAL record: unknown type");
}

}  // namespace

void AppendWalFrame(std::string* out, const WalRecord& rec) {
  const std::string payload = EncodePayload(rec);
  // Body = type byte + length + payload; the CRC covers all of it so a
  // corrupted length cannot send the scanner off into garbage.
  std::string body;
  body.push_back(static_cast<char>(rec.type));
  PutFixed32(&body, static_cast<uint32_t>(payload.size()));
  body.append(payload);
  PutFixed32(out, Crc32c(Slice(body)));
  out->append(body);
}

Result<bool> ReadWalFrame(const Slice& buf, size_t* pos, WalRecord* rec) {
  if (*pos == buf.size()) return false;
  if (buf.size() - *pos < kWalFrameHeaderSize) {
    return Status::Corruption("WAL: short frame header");
  }
  const char* p = buf.data() + *pos;
  const uint32_t crc = DecodeFixed32(p);
  const uint8_t type = static_cast<uint8_t>(p[4]);
  const uint32_t len = DecodeFixed32(p + 5);
  if (buf.size() - *pos - kWalFrameHeaderSize < len) {
    return Status::Corruption("WAL: short frame payload");
  }
  if (Crc32c(Slice(p + 4, 5 + len)) != crc) {
    return Status::Corruption("WAL: frame CRC mismatch");
  }
  if (!ValidRecordType(type)) {
    return Status::Corruption("WAL: unknown record type");
  }
  NOK_RETURN_IF_ERROR(DecodePayload(static_cast<WalRecordType>(type),
                                    Slice(p + kWalFrameHeaderSize, len),
                                    rec));
  *pos += kWalFrameHeaderSize + len;
  return true;
}

// --- TxnFile --------------------------------------------------------------

TxnFile::TxnFile(std::string name, std::unique_ptr<File> base,
                 WalWriter* wal)
    : name_(std::move(name)), base_(std::move(base)), wal_(wal) {
  wal_->Register(this);
}

TxnFile::~TxnFile() { wal_->Unregister(this); }

bool TxnFile::InTransaction() const { return wal_->in_transaction(); }

uint64_t TxnFile::VirtualSize() const {
  return dirty_ ? virtual_size_ : base_->Size();
}

uint64_t TxnFile::BaseValidLimit() const {
  const uint64_t base_size = base_->Size();
  if (truncate_floor_.has_value()) {
    return std::min(base_size, *truncate_floor_);
  }
  return base_size;
}

uint64_t TxnFile::Size() const { return VirtualSize(); }

Status TxnFile::Sync() {
  if (InTransaction()) return Status::OK();  // deferred to commit
  return base_->Sync();
}

void TxnFile::OverlayWrite(uint64_t offset, const Slice& data) {
  if (data.empty()) return;
  if (!dirty_) {
    dirty_ = true;
    virtual_size_ = base_->Size();
    truncate_floor_.reset();
  }
  // Write into the range that overlaps or abuts `offset` from the left
  // (or a new one), in place, then absorb every later range the write
  // reaches, so the map stays non-overlapping and coalesced.  Rewriting or
  // appending a page costs O(page), never O(range): a commit that evicts
  // thousands of pages of one index file stays linear.
  auto it = ranges_.upper_bound(offset);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() >= offset) it = prev;
  }
  if (it == ranges_.end() || it->first > offset) {
    it = ranges_.emplace_hint(it, offset, std::string());
  }
  std::string& range = it->second;
  const size_t at = static_cast<size_t>(offset - it->first);
  if (range.size() < at + data.size()) range.resize(at + data.size());
  std::memcpy(range.data() + at, data.data(), data.size());
  const uint64_t range_end = it->first + range.size();
  for (auto next = std::next(it);
       next != ranges_.end() && next->first <= range_end;) {
    const uint64_t next_end = next->first + next->second.size();
    if (next_end > range_end) {
      range.append(next->second, range_end - next->first, std::string::npos);
    }
    next = ranges_.erase(next);
  }
  virtual_size_ = std::max(virtual_size_, offset + data.size());
}

Status TxnFile::ReadAt(uint64_t offset, size_t n, char* scratch,
                       Slice* out) const {
  if (!dirty_) return base_->ReadAt(offset, n, scratch, out);
  if (n == 0) {
    *out = Slice(scratch, 0);
    return Status::OK();
  }
  if (offset + n > virtual_size_) {
    return Status::IOError("short read (txn overlay, file " + name_ + ")");
  }
  // Assemble: overlay ranges win; gaps come from the base below the
  // truncate floor and are zero above it (truncate-extend semantics).
  const uint64_t end = offset + n;
  const uint64_t base_limit = BaseValidLimit();
  std::memset(scratch, 0, n);
  uint64_t cursor = offset;
  auto it = ranges_.upper_bound(offset);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  while (cursor < end) {
    uint64_t gap_end = end;
    if (it != ranges_.end() && it->first < end) {
      gap_end = std::max(cursor, it->first);
    }
    if (gap_end > cursor) {
      // Gap [cursor, gap_end): base bytes up to the valid limit, zeros
      // beyond (already memset).
      const uint64_t base_end = std::min(gap_end, base_limit);
      if (base_end > cursor) {
        Slice chunk;
        NOK_RETURN_IF_ERROR(base_->ReadAt(
            cursor, base_end - cursor, scratch + (cursor - offset),
            &chunk));
        if (chunk.data() != scratch + (cursor - offset)) {
          std::memcpy(scratch + (cursor - offset), chunk.data(),
                      chunk.size());
        }
      }
      cursor = gap_end;
    }
    if (it != ranges_.end() && it->first < end && cursor < end) {
      const uint64_t range_end = it->first + it->second.size();
      const uint64_t copy_start = std::max(cursor, it->first);
      const uint64_t copy_end = std::min(end, range_end);
      std::memcpy(scratch + (copy_start - offset),
                  it->second.data() + (copy_start - it->first),
                  copy_end - copy_start);
      cursor = copy_end;
      ++it;
    }
  }
  *out = Slice(scratch, n);
  return Status::OK();
}

Status TxnFile::WriteAt(uint64_t offset, const Slice& data) {
  if (!InTransaction()) return base_->WriteAt(offset, data);
  OverlayWrite(offset, data);
  return Status::OK();
}

Status TxnFile::Append(const Slice& data, uint64_t* offset) {
  if (!InTransaction()) return base_->Append(data, offset);
  const uint64_t at = VirtualSize();
  OverlayWrite(at, data);
  if (offset != nullptr) *offset = at;
  return Status::OK();
}

Status TxnFile::Truncate(uint64_t size) {
  if (!InTransaction()) return base_->Truncate(size);
  if (!dirty_) {
    dirty_ = true;
    virtual_size_ = base_->Size();
    truncate_floor_.reset();
  }
  // Drop overlay bytes at or past the cut; trim a straddling range.
  auto it = ranges_.lower_bound(size);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    const uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > size) prev->second.resize(size - prev->first);
  }
  ranges_.erase(it, ranges_.end());
  truncate_floor_ =
      std::min(truncate_floor_.value_or(size), size);
  virtual_size_ = size;
  return Status::OK();
}

void TxnFile::EncodeOverlay(std::string* out,
                            uint64_t* record_count) const {
  if (!dirty_) return;
  WalRecord rec;
  const uint64_t base_size = base_->Size();
  uint64_t applied_size = base_size;
  if (truncate_floor_.has_value() && *truncate_floor_ < base_size) {
    rec.type = WalRecordType::kFileTruncate;
    rec.name = name_;
    rec.size = *truncate_floor_;
    AppendWalFrame(out, rec);
    ++*record_count;
    applied_size = *truncate_floor_;
  }
  for (const auto& [offset, data] : ranges_) {
    rec = WalRecord();
    rec.type = WalRecordType::kFileWrite;
    rec.name = name_;
    rec.offset = offset;
    rec.data = data;
    AppendWalFrame(out, rec);
    ++*record_count;
    applied_size = std::max(applied_size, offset + data.size());
  }
  if (applied_size != virtual_size_) {
    // Truncate-extend (or pure shrink with no rewrites) to the final size.
    rec = WalRecord();
    rec.type = WalRecordType::kFileTruncate;
    rec.name = name_;
    rec.size = virtual_size_;
    AppendWalFrame(out, rec);
    ++*record_count;
  }
}

Status TxnFile::ApplyOverlayToBase(
    const std::function<void(const std::string& name, uint64_t offset,
                             std::string preimage)>& retain) {
  if (!dirty_) return Status::OK();
  const uint64_t base_size = base_->Size();
  auto retain_range = [&](uint64_t offset, uint64_t n) -> Status {
    if (!retain || n == 0 || offset >= base_size) return Status::OK();
    const uint64_t end = std::min(offset + n, base_size);
    std::string preimage(end - offset, '\0');
    Slice got;
    NOK_RETURN_IF_ERROR(
        base_->ReadAt(offset, preimage.size(), preimage.data(), &got));
    if (got.data() != preimage.data()) {
      preimage.assign(got.data(), got.size());
    }
    retain(name_, offset, std::move(preimage));
    return Status::OK();
  };
  uint64_t applied_size = base_size;
  if (truncate_floor_.has_value() && *truncate_floor_ < base_size) {
    // The tail being cut off may still be visible to snapshot readers.
    NOK_RETURN_IF_ERROR(
        retain_range(*truncate_floor_, base_size - *truncate_floor_));
    NOK_RETURN_IF_ERROR(base_->Truncate(*truncate_floor_));
    applied_size = *truncate_floor_;
  }
  for (const auto& [offset, data] : ranges_) {
    NOK_RETURN_IF_ERROR(retain_range(offset, data.size()));
    NOK_RETURN_IF_ERROR(base_->WriteAt(offset, Slice(data)));
    applied_size = std::max(applied_size, offset + data.size());
  }
  if (applied_size != virtual_size_) {
    NOK_RETURN_IF_ERROR(base_->Truncate(virtual_size_));
  }
  return Status::OK();
}

void TxnFile::DiscardOverlay() {
  dirty_ = false;
  ranges_.clear();
  virtual_size_ = 0;
  truncate_floor_.reset();
}

// --- WalWriter ------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    std::string dir, std::unique_ptr<File> wal_file,
    WalWriterOptions options) {
  if (wal_file->Size() < kWalHeaderSize) {
    NOK_RETURN_IF_ERROR(wal_file->Truncate(0));
    uint64_t unused;
    NOK_RETURN_IF_ERROR(
        wal_file->Append(Slice(kWalMagic, kWalHeaderSize), &unused));
    NOK_RETURN_IF_ERROR(wal_file->Sync());
  } else {
    char magic[kWalHeaderSize];
    Slice got;
    NOK_RETURN_IF_ERROR(
        wal_file->ReadAt(0, kWalHeaderSize, magic, &got));
    if (std::memcmp(got.data(), kWalMagic, kWalHeaderSize) != 0) {
      return Status::Corruption("WAL file has a bad magic header");
    }
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(std::move(dir), std::move(wal_file), options));
}

WalWriter::~WalWriter() {
  // A TxnFile must never outlive its WalWriter; destroy the wrapped
  // component files first.
  NOK_CHECK(files_.empty());
}

std::unique_ptr<File> WalWriter::Wrap(std::string name,
                                      std::unique_ptr<File> base) {
  return std::make_unique<TxnFile>(std::move(name), std::move(base), this);
}

void WalWriter::Register(TxnFile* file) {
  MutexLock lock(&mu_);
  files_.push_back(file);
}

void WalWriter::Unregister(TxnFile* file) {
  MutexLock lock(&mu_);
  files_.erase(std::remove(files_.begin(), files_.end(), file),
               files_.end());
}

void WalWriter::Begin() {
  MutexLock lock(&mu_);
  in_transaction_ = true;
}

bool WalWriter::in_transaction() const {
  MutexLock lock(&mu_);
  return in_transaction_;
}

void WalWriter::set_retain_hook(RetainHook hook) {
  MutexLock lock(&mu_);
  retain_ = std::move(hook);
}

WalWriter::Stats WalWriter::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void WalWriter::StageReplace(std::string name, std::string contents) {
  MutexLock lock(&mu_);
  StagedOp op;
  op.name = std::move(name);
  op.contents = std::move(contents);
  staged_.push_back(std::move(op));
}

void WalWriter::StageRemove(std::string name) {
  MutexLock lock(&mu_);
  StagedOp op;
  op.name = std::move(name);
  op.remove = true;
  staged_.push_back(std::move(op));
}

Status WalWriter::Abort() {
  MutexLock lock(&mu_);
  for (TxnFile* file : files_) file->DiscardOverlay();
  staged_.clear();
  in_transaction_ = false;
  return Status::OK();
}

Status WalWriter::Commit(uint64_t epoch) {
  // Held for the whole commit, base-file I/O included: the commit path
  // never calls back into WalWriter (TxnFile overlay methods and raw
  // File ops only), and the retain hook takes only mutexes ordered
  // after mu_ (SnapshotTracker, PageVersionStore).
  MutexLock lock(&mu_);
  if (!in_transaction_) return Status::OK();
  // 1. Serialize the whole transaction into one blob: begin, every
  //    overlay and staged op, commit.  One Append + one Sync makes the
  //    durability point a single fsync (group commit).
  std::string blob;
  uint64_t record_count = 0;
  WalRecord rec;
  rec.type = WalRecordType::kTxnBegin;
  rec.epoch = epoch;
  AppendWalFrame(&blob, rec);
  for (const TxnFile* file : files_) {
    file->EncodeOverlay(&blob, &record_count);
  }
  for (const StagedOp& op : staged_) {
    rec = WalRecord();
    rec.name = op.name;
    if (op.remove) {
      rec.type = WalRecordType::kFileRemove;
    } else {
      rec.type = WalRecordType::kFileReplace;
      rec.data = op.contents;
    }
    AppendWalFrame(&blob, rec);
    ++record_count;
  }
  rec = WalRecord();
  rec.type = WalRecordType::kTxnCommit;
  rec.epoch = epoch;
  rec.record_count = record_count;
  AppendWalFrame(&blob, rec);

  uint64_t unused;
  NOK_RETURN_IF_ERROR(wal_->Append(Slice(blob), &unused));
  NOK_RETURN_IF_ERROR(wal_->Sync());
  ++stats_.wal_syncs;
  stats_.bytes_logged += blob.size();
  stats_.records_logged += record_count + 2;

  // 2. The transaction is durable; apply it to the base files.  From here
  //    on a crash is repaired by recovery replay, so errors still leave a
  //    recoverable store.
  std::function<void(const std::string&, uint64_t, std::string)> retain;
  if (retain_) {
    // The lambda runs inside ApplyOverlayToBase below, still under mu_,
    // but captures a copy of the hook rather than reading the guarded
    // retain_ member (a lambda body is analyzed as its own function).
    RetainHook hook = retain_;
    retain = [hook, epoch](const std::string& name, uint64_t offset,
                           std::string preimage) {
      hook(name, offset, std::move(preimage), epoch - 1);
    };
  }
  for (TxnFile* file : files_) {
    NOK_RETURN_IF_ERROR(file->ApplyOverlayToBase(retain));
  }
  for (TxnFile* file : files_) {
    if (file->dirty_) NOK_RETURN_IF_ERROR(file->base_->Sync());
    file->DiscardOverlay();
  }
  for (const StagedOp& op : staged_) {
    const std::string path = dir_ + "/" + op.name;
    if (op.remove) {
      NOK_RETURN_IF_ERROR(RemoveFile(path));
    } else {
      NOK_RETURN_IF_ERROR(WriteStringToFile(path, Slice(op.contents)));
    }
  }
  staged_.clear();
  in_transaction_ = false;
  ++stats_.commits;

  // 3. Mark the transaction applied; recovery skips checkpointed epochs.
  std::string tail;
  rec = WalRecord();
  rec.type = WalRecordType::kCheckpoint;
  rec.epoch = epoch;
  AppendWalFrame(&tail, rec);
  NOK_RETURN_IF_ERROR(wal_->Append(Slice(tail), &unused));
  NOK_RETURN_IF_ERROR(wal_->Sync());
  ++stats_.wal_syncs;

  // 4. Everything before the checkpoint is dead weight; reset a large WAL
  //    back to its header.
  if (wal_->Size() > options_.reset_threshold_bytes) {
    NOK_RETURN_IF_ERROR(wal_->Truncate(kWalHeaderSize));
    NOK_RETURN_IF_ERROR(wal_->Sync());
    ++stats_.resets;
  }
  return Status::OK();
}

}  // namespace nok
