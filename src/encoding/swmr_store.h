// Single-writer / multi-reader serving of one store directory.
//
// SwmrStore owns a WAL-mode writer DocumentStore and publishes an
// immutable Snapshot after every commit.  Readers grab the current
// snapshot (a shared_ptr copy under a mutex — never blocked by the
// writer) and query it with their own QueryEngine; the snapshot's
// component files are SnapshotFile wrappers (storage/page_versions.h)
// pinned to the committed epoch, so a reader mid-query keeps seeing
// exactly that epoch while the writer applies later commits in place:
//
//   writer commit of epoch N:
//     1. WAL fsync (durability point; base files untouched so far)
//     2. for every base range about to change, retain the pre-image
//        tagged valid-through N-1     <- what live snapshots keep reading
//     3. apply + sync base files, checkpoint
//     4. open a fresh snapshot of epoch N, adopting the writer's derived
//        structures (BP index, synopsis, value column copy) built at the
//        end of its Flush, and swap it in as current
//   reader holding a snapshot at E < N:
//     base read, then overlay retained versions visible at E — never a
//     torn page, never a mix of epochs
//   reclamation:
//     when the oldest snapshot drains (its shared_ptr count hits zero),
//     every pre-image only it could read is dropped (epoch-based
//     reclamation, SnapshotTracker)
//
// Each reader plans its queries afresh against its snapshot's own path
// synopsis, so a commit needs no plan invalidation.
//
// Thread safety: all writer methods (InsertSubtree/DeleteSubtree/Commit)
// must be called from one thread at a time; snapshot() and stats() are
// safe from any thread.

#ifndef NOKXML_ENCODING_SWMR_STORE_H_
#define NOKXML_ENCODING_SWMR_STORE_H_

#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "encoding/document_store.h"
#include "storage/page_versions.h"

namespace nok {

class SwmrStore {
 public:
  struct Options {
    /// Base knobs for both the writer and the snapshots (page sizes,
    /// pool sizes, ...).  dir/read_only/wal/file_factory are overridden.
    DocumentStoreOptions store;
  };

  /// One committed generation, safe for concurrent readers.  Hold the
  /// shared_ptr for the duration of a query; dropping the last reference
  /// lets the store reclaim the generation's shadow pages.
  class Snapshot {
   public:
    DocumentStore* store() const { return store_.get(); }
    uint64_t epoch() const { return epoch_; }

   private:
    friend class SwmrStore;
    Snapshot(std::unique_ptr<DocumentStore> store, uint64_t epoch)
        : store_(std::move(store)), epoch_(epoch) {}

    std::unique_ptr<DocumentStore> store_;
    uint64_t epoch_;
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t snapshots_published = 0;
    uint64_t retained_entries = 0;  ///< live shadow pre-images
    uint64_t retained_bytes = 0;
    uint64_t min_active_epoch = 0;
    uint64_t current_epoch = 0;
  };

  /// Opens (and if needed recovers) the store directory for
  /// single-writer / multi-reader serving and publishes the initial
  /// snapshot.
  static Result<std::unique_ptr<SwmrStore>> Open(const std::string& dir,
                                                 Options options);
  static Result<std::unique_ptr<SwmrStore>> Open(const std::string& dir) {
    return Open(dir, Options());
  }

  // -- writer side (one thread) -----------------------------------------
  Status InsertSubtree(const DeweyId& parent, uint32_t child_index,
                       const std::string& xml_fragment);
  Status DeleteSubtree(const DeweyId& node);

  /// Commits the captured update batch (WAL fsync, apply, checkpoint)
  /// and publishes a snapshot of the new epoch, which derives nothing of
  /// its own.  Readers already holding the previous snapshot are
  /// unaffected.
  Status Commit();

  /// The writer handle (single-thread use only; e.g. for stats).
  DocumentStore* writer() { return writer_.get(); }
  uint64_t epoch() const { return writer_->epoch(); }

  // -- reader side (any thread) -----------------------------------------
  /// The current committed snapshot.  Never null after Open succeeds.
  std::shared_ptr<Snapshot> snapshot() const EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  explicit SwmrStore(Options options) : options_(std::move(options)) {}

  /// Opens the directory read-only at `epoch`, adopting `derived` (the
  /// writer's structures for that epoch).
  Result<std::unique_ptr<DocumentStore>> OpenSnapshotStore(
      uint64_t epoch, std::shared_ptr<const DocumentStore::Derived> derived);
  Status PublishSnapshot() EXCLUDES(mu_);

  // The members below are written once inside Open() before the store
  // is reachable from any other thread, then only read — no mutex
  // needed (the retain hook and snapshot file factories read them from
  // reader threads).
  Options options_;   // NOK008-OK: immutable after Open()
  std::string dir_;   // NOK008-OK: immutable after Open()
  std::unique_ptr<DocumentStore> writer_;  // NOK008-OK: set in Open();
  // writer methods are single-thread by contract (see file comment).
  std::shared_ptr<SnapshotTracker> tracker_;  // NOK008-OK: immutable
  // after Open(); SnapshotTracker is internally synchronized.
  /// Component name -> shadow-page store consulted by its snapshots.
  /// NOK008-OK: the map is immutable after Open(); the pointed-to
  /// PageVersionStores are internally synchronized.
  std::map<std::string, std::shared_ptr<PageVersionStore>> versions_;

  /// Guards the published snapshot and the commit counters.  Note the
  /// swap in PublishSnapshot can run the previous snapshot's deleter
  /// while holding mu_, which takes SnapshotTracker::mu_ — lock order
  /// SwmrStore::mu_ before SnapshotTracker::mu_ (DESIGN.md section 12).
  mutable Mutex mu_;
  std::shared_ptr<Snapshot> current_ GUARDED_BY(mu_);
  uint64_t commits_ GUARDED_BY(mu_) = 0;
  uint64_t snapshots_published_ GUARDED_BY(mu_) = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_SWMR_STORE_H_
