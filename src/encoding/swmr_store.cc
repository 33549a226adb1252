#include "encoding/swmr_store.h"

#include <utility>
#include <vector>

namespace nok {

namespace {

/// Components whose base bytes the writer mutates in place and snapshot
/// readers therefore need pre-image versioning for.  The dictionary is
/// whole-file replaced and only read at snapshot-open time (the writer is
/// quiescent then), so it needs none.
const char* const kVersionedComponents[] = {
    store_files::kTree, store_files::kValues, store_files::kValIdx,
    store_files::kValueColumn,
};

/// The component name is the path's last segment (OpenComponent builds
/// paths as dir + "/" + name).
std::string ComponentName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Result<std::unique_ptr<SwmrStore>> SwmrStore::Open(const std::string& dir,
                                                   Options options) {
  if (dir.empty()) {
    return Status::InvalidArgument(
        "SwmrStore needs a store directory (snapshots reopen the "
        "component files read-only)");
  }
  std::unique_ptr<SwmrStore> store(new SwmrStore(std::move(options)));
  store->dir_ = dir;

  DocumentStoreOptions writer_options = store->options_.store;
  writer_options.dir = dir;
  writer_options.read_only = false;
  writer_options.wal.enabled = true;
  NOK_ASSIGN_OR_RETURN(store->writer_,
                       DocumentStore::OpenDir(writer_options));

  store->tracker_ = std::make_shared<SnapshotTracker>();
  for (const char* name : kVersionedComponents) {
    auto versions = std::make_shared<PageVersionStore>();
    store->tracker_->Track(versions);
    store->versions_.emplace(name, std::move(versions));
  }

  // Pre-image retention: called by the WAL commit for every base byte
  // range about to change.  With no live snapshot at or below
  // valid_through, the pre-image can never be read — skip it.
  SwmrStore* raw = store.get();
  store->writer_->wal_writer()->set_retain_hook(
      [raw](const std::string& name, uint64_t offset, std::string preimage,
            uint64_t valid_through) {
        if (raw->tracker_->MinActiveEpoch(valid_through + 1) >
            valid_through) {
          return;
        }
        auto it = raw->versions_.find(name);
        if (it == raw->versions_.end()) return;
        it->second->Retain(offset, std::move(preimage), valid_through);
      });

  NOK_RETURN_IF_ERROR(store->PublishSnapshot());
  return store;
}

Result<std::unique_ptr<DocumentStore>> SwmrStore::OpenSnapshotStore(
    uint64_t epoch, std::shared_ptr<const DocumentStore::Derived> derived) {
  DocumentStoreOptions snap = options_.store;
  snap.dir = dir_;
  snap.read_only = true;
  snap.wal = DocumentStoreOptions::WalOptions{};
  // Every component file is served through a SnapshotFile pinned to
  // `epoch`: base bytes with retained pre-images overlaid, so the store
  // keeps seeing exactly this generation while the writer commits later
  // ones in place.
  auto versions = versions_;  // snapshot's own shared_ptr copies
  snap.file_factory =
      [versions, epoch](const std::string& path,
                        bool create) -> Result<std::unique_ptr<File>> {
    if (create) {
      return Status::InvalidArgument(
          "snapshot store tried to create " + path);
    }
    NOK_ASSIGN_OR_RETURN(auto base, OpenPosixFileReadOnly(path));
    auto it = versions.find(ComponentName(path));
    std::shared_ptr<PageVersionStore> store_versions =
        it != versions.end() ? it->second : nullptr;
    return std::unique_ptr<File>(new SnapshotFile(
        std::move(base), std::move(store_versions), epoch));
  };
  return DocumentStore::OpenDir(std::move(snap), std::move(derived));
}

Status SwmrStore::PublishSnapshot() {
  const uint64_t epoch = writer_->epoch();
  // The writer derived this epoch's structures at the end of its open or
  // Flush; the snapshot shares them instead of scanning again.
  NOK_ASSIGN_OR_RETURN(auto derived, writer_->derived());
  NOK_ASSIGN_OR_RETURN(auto snap_store,
                       OpenSnapshotStore(epoch, std::move(derived)));

  // Register before the snapshot becomes reachable, so the retain hook
  // sees it as active from the first moment a reader could hold it.
  tracker_->Register(epoch);
  std::shared_ptr<SnapshotTracker> tracker = tracker_;
  std::shared_ptr<Snapshot> snap(
      new Snapshot(std::move(snap_store), epoch),
      // The deleter owns a tracker reference: a snapshot handed to a
      // reader may drain after the SwmrStore itself is destroyed.
      [tracker](Snapshot* s) {
        const uint64_t e = s->epoch();
        delete s;
        tracker->Release(e);
      });

  {
    MutexLock lock(&mu_);
    current_ = std::move(snap);
    ++snapshots_published_;
  }
  // Now that `epoch` is the current generation, versions only older
  // snapshots could read may already be dead.
  tracker_->AdvanceEpoch(epoch);
  return Status::OK();
}

Status SwmrStore::InsertSubtree(const DeweyId& parent, uint32_t child_index,
                                const std::string& xml_fragment) {
  return writer_->InsertSubtree(parent, child_index, xml_fragment);
}

Status SwmrStore::DeleteSubtree(const DeweyId& node) {
  return writer_->DeleteSubtree(node);
}

Status SwmrStore::Commit() {
  NOK_RETURN_IF_ERROR(writer_->Flush());
  NOK_RETURN_IF_ERROR(PublishSnapshot());
  {
    MutexLock lock(&mu_);
    ++commits_;
  }
  return Status::OK();
}

std::shared_ptr<SwmrStore::Snapshot> SwmrStore::snapshot() const {
  MutexLock lock(&mu_);
  return current_;
}

SwmrStore::Stats SwmrStore::stats() const {
  Stats out;
  {
    MutexLock lock(&mu_);
    out.commits = commits_;
    out.snapshots_published = snapshots_published_;
    out.current_epoch = current_ != nullptr ? current_->epoch() : 0;
  }
  out.retained_entries = tracker_->retained_entries();
  out.retained_bytes = tracker_->retained_bytes();
  out.min_active_epoch = tracker_->MinActiveEpoch(out.current_epoch);
  return out;
}

}  // namespace nok
