// Write-ahead log under the epoch-stamped multi-file commit.
//
// The document store commits an update by flushing several component files
// (tree, value store, indexes, dictionary) and stamping each with the new
// epoch.  Without a log, a crash in the middle of that sequence leaves the
// components at mixed epochs and the store refuses to open.  The WAL makes
// the whole sequence atomic:
//
//   1. While a transaction is open, every mutation of a wrapped component
//      file is captured in an in-memory overlay (TxnFile); the base files
//      on disk are not touched, so the pre-transaction state stays intact.
//   2. Commit serializes the overlay into typed, CRC-32C-framed records,
//      appends them to the WAL file as one contiguous blob, and fsyncs the
//      WAL.  This single fsync is the durability point (group commit: one
//      fsync covers every update op batched into the transaction).
//   3. Only then is the overlay applied to the base files and each synced;
//      a checkpoint record marks the transaction as fully applied.
//
// A crash before step 2 completes loses at most the uncommitted
// transaction (the base files were never touched); a crash during step 3
// is repaired by recovery (storage/recovery.h), which replays the
// committed records — pure physical redo, idempotent byte rewrites — until
// the base files match the committed state.
//
// Frame format (little-endian):
//
//   [u32 crc32c over type..payload] [u8 type] [u32 payload_len] [payload]
//
// preceded once per file by an 8-byte magic header.  A torn tail (short or
// CRC-invalid frame) ends the scan; everything before it is trusted.
//
// Thread safety: WalWriter's transaction state (overlay registry, staged
// ops, counters) is guarded by an internal mutex, so stats() and
// in_transaction() may be polled from any thread.  The commit protocol
// itself is still single-writer: only one thread may run Begin/
// mutations/Commit at a time (the document store enforces this — it owns
// the writer).  TxnFile is confined to the writer thread; the snapshot
// machinery for concurrent readers lives in storage/page_versions.h.

#ifndef NOKXML_STORAGE_WAL_H_
#define NOKXML_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/file.h"

namespace nok {

class WalWriter;

/// Name of the WAL file inside a store directory.
inline constexpr char kWalFileName[] = "wal.log";

/// 8-byte magic at offset 0 of every WAL file ("NOKWAL1\n").
inline constexpr char kWalMagic[8] = {'N', 'O', 'K', 'W', 'A', 'L', '1',
                                      '\n'};
inline constexpr size_t kWalHeaderSize = sizeof(kWalMagic);

/// Frame header: u32 crc + u8 type + u32 payload length.
inline constexpr size_t kWalFrameHeaderSize = 4 + 1 + 4;

/// Record types.  Values are stable on-disk identifiers; never renumber.
enum class WalRecordType : uint8_t {
  kTxnBegin = 1,      ///< payload: varint target epoch
  kFileWrite = 2,     ///< payload: name, varint offset, data
  kFileTruncate = 3,  ///< payload: name, varint new size
  kFileReplace = 4,   ///< payload: name, whole-file contents
  kFileRemove = 5,    ///< payload: name
  kTxnCommit = 6,     ///< payload: varint epoch, varint record count
  kCheckpoint = 7,    ///< payload: varint epoch (txn fully applied)
};

/// One decoded WAL record.  Only the fields relevant to `type` are set.
struct WalRecord {
  WalRecordType type = WalRecordType::kTxnBegin;
  uint64_t epoch = 0;         ///< kTxnBegin / kTxnCommit / kCheckpoint
  uint64_t record_count = 0;  ///< kTxnCommit: records between begin/commit
  std::string name;           ///< file records: component file name
  uint64_t offset = 0;        ///< kFileWrite
  uint64_t size = 0;          ///< kFileTruncate
  std::string data;           ///< kFileWrite / kFileReplace payload
};

/// Appends the framed encoding of `rec` to *out.
void AppendWalFrame(std::string* out, const WalRecord& rec);

/// Decodes the frame at *pos in buf and advances *pos past it.  Returns
/// true on success, false at a clean end of buffer (*pos == buf.size()),
/// and Corruption for a torn or invalid frame at *pos (the scan must stop
/// and discard from *pos on).
Result<bool> ReadWalFrame(const Slice& buf, size_t* pos, WalRecord* rec);

/// File wrapper that, while its WalWriter has an open transaction, buffers
/// every mutation in an in-memory overlay instead of touching the base
/// file.  Reads merge the overlay over the base so the wrapping is
/// transparent to the store; Sync is deferred to commit.  Outside a
/// transaction all operations pass straight through.
class TxnFile final : public File {
 public:
  /// Takes ownership of base.  The WalWriter must outlive this file; the
  /// file registers itself with the writer and unregisters on destruction.
  TxnFile(std::string name, std::unique_ptr<File> base, WalWriter* wal);
  ~TxnFile() override;

  Status ReadAt(uint64_t offset, size_t n, char* scratch,
                Slice* out) const override;
  Status WriteAt(uint64_t offset, const Slice& data) override;
  Status Append(const Slice& data, uint64_t* offset) override;
  uint64_t Size() const override;
  Status Truncate(uint64_t size) override;
  Status Sync() override;

  const std::string& name() const { return name_; }

 private:
  friend class WalWriter;

  bool InTransaction() const;
  void OverlayWrite(uint64_t offset, const Slice& data);
  /// Size the file will have once the overlay is applied.
  uint64_t VirtualSize() const;
  /// Bytes of the base file still valid under the overlay (below any
  /// pending truncate).
  uint64_t BaseValidLimit() const;

  /// Emits the overlay as WAL records (a minimal truncate/write/truncate
  /// sequence whose replay reproduces VirtualSize() and contents).
  void EncodeOverlay(std::string* out, uint64_t* record_count) const;
  /// Applies the overlay to the base file.  For every base byte range
  /// about to be overwritten or truncated away, calls `retain` (if set)
  /// with the pre-image first, so snapshot readers can keep serving the
  /// old epoch.  Does not sync.
  Status ApplyOverlayToBase(
      const std::function<void(const std::string& name, uint64_t offset,
                               std::string preimage)>& retain);
  void DiscardOverlay();

  std::string name_;
  std::unique_ptr<File> base_;
  WalWriter* wal_;

  /// Overlay state; meaningful only while dirty_ is true.
  bool dirty_ = false;
  std::map<uint64_t, std::string> ranges_;  ///< non-overlapping, coalesced
  uint64_t virtual_size_ = 0;
  std::optional<uint64_t> truncate_floor_;  ///< lowest pending truncate
};

struct WalWriterOptions {
  /// Once a checkpoint lands and the WAL exceeds this many bytes, it is
  /// reset to just the header (everything before the checkpoint is dead).
  uint64_t reset_threshold_bytes = 1 << 20;
};

/// Serializes transactions into the WAL and applies them to the base
/// files.  Single-writer; see file comment for the commit protocol.
class WalWriter {
 public:
  /// Called during commit, before a base byte range is overwritten or
  /// truncated away, with the pre-image bytes (page_versions.h retains
  /// them for snapshot readers).  `valid_through` is the last epoch the
  /// pre-image was current for (the committing epoch minus one).
  using RetainHook =
      std::function<void(const std::string& name, uint64_t offset,
                         std::string preimage, uint64_t valid_through)>;

  struct Stats {
    uint64_t commits = 0;
    uint64_t records_logged = 0;
    uint64_t bytes_logged = 0;
    uint64_t wal_syncs = 0;
    uint64_t resets = 0;
  };

  /// Opens a writer over an existing-or-empty WAL file belonging to the
  /// store at `dir`.  The file must already have been recovered
  /// (storage/recovery.h); an empty file gets the magic header written.
  static Result<std::unique_ptr<WalWriter>> Open(
      std::string dir, std::unique_ptr<File> wal_file,
      WalWriterOptions options = {});

  ~WalWriter();

  /// Wraps a component file for transactional capture.  `name` is the
  /// file's identifier in WAL records (its name inside the store dir).
  std::unique_ptr<File> Wrap(std::string name, std::unique_ptr<File> base);

  /// Opens a transaction; no-op if one is already open.  Mutations of
  /// wrapped files are captured until Commit or Abort.
  void Begin() EXCLUDES(mu_);
  bool in_transaction() const EXCLUDES(mu_);

  /// Stages a whole-file replace (applied at commit; used for the
  /// dictionary, which bypasses File).
  void StageReplace(std::string name, std::string contents) EXCLUDES(mu_);
  /// Stages a file removal (applied at commit).
  void StageRemove(std::string name) EXCLUDES(mu_);

  /// Commits the open transaction as `epoch`: serialize + fsync the WAL
  /// (durability point), apply the overlays and staged ops to the base
  /// files, sync them, and append a checkpoint.  No-op if no transaction
  /// is open.  On error the transaction stays open and the base files may
  /// be half-applied; the caller must treat the handle as poisoned and
  /// reopen the store (recovery replays the durable transaction).
  Status Commit(uint64_t epoch) EXCLUDES(mu_);

  /// Discards the open transaction without touching the WAL or the base
  /// files.  The caller must discard any in-memory state derived from the
  /// aborted mutations (the document store poisons itself and requires a
  /// reopen).
  Status Abort() EXCLUDES(mu_);

  void set_retain_hook(RetainHook hook) EXCLUDES(mu_);

  /// Counter snapshot (by value: the counters move under mu_ and a
  /// reference would be read unguarded by the caller).
  Stats stats() const EXCLUDES(mu_);

 private:
  friend class TxnFile;

  WalWriter(std::string dir, std::unique_ptr<File> wal_file,
            WalWriterOptions options)
      : dir_(std::move(dir)),
        wal_(std::move(wal_file)),
        options_(options) {}

  void Register(TxnFile* file) EXCLUDES(mu_);
  void Unregister(TxnFile* file) EXCLUDES(mu_);

  /// Guards the transaction and commit state.  Held across the whole of
  /// Commit — including base-file I/O and the retain hook, which takes
  /// SnapshotTracker / PageVersionStore mutexes; the lock order is
  /// WalWriter::mu_ before both (DESIGN.md section 12).  Never re-enters:
  /// commit-path callees (TxnFile::EncodeOverlay / ApplyOverlayToBase /
  /// DiscardOverlay, File ops on base_) make no WalWriter calls.
  mutable Mutex mu_;

  std::string dir_;          // NOK008-OK: immutable after construction
  std::unique_ptr<File> wal_ GUARDED_BY(mu_);
  WalWriterOptions options_; // NOK008-OK: immutable after construction
  RetainHook retain_ GUARDED_BY(mu_);

  bool in_transaction_ GUARDED_BY(mu_) = false;
  /// Live wrapped files, registration order.
  std::vector<TxnFile*> files_ GUARDED_BY(mu_);
  /// Staged whole-file ops, in order: replace (has contents) or remove.
  struct StagedOp {
    std::string name;
    bool remove = false;
    std::string contents;
  };
  std::vector<StagedOp> staged_ GUARDED_BY(mu_);

  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace nok

#endif  // NOKXML_STORAGE_WAL_H_
