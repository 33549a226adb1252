// DocumentStore: the complete physical representation of one XML document
// (Figure 3 of the paper).
//
// It bundles:
//   * the succinct tree string (StringStore)          -- |tree| in Table 1
//   * the tag dictionary (name <-> Sigma symbol)
//   * the value data file (ValueStore)
//   * B+v: keyed by (hash(value), value-record offset) -- |B+v|
//   * in place of B+i, the value column (value_column.h): each node's
//     value-record offset by preorder rank, keyless    -- |col|
//   * in place of B+t, the BP index's per-tag rank lists (bp_index.h)
//   * the structures derived from those files (DocumentStore::Derived):
//     the BP index and the path synopsis, from one scan of the page
//     chain, and an in-memory copy of the value column with its inverse
//     (offset -> ranks), from one scan of the column's pages; query
//     evaluation reads values and resolves B+v hits through the copy
//
// No persisted key names a node: B+v names a value record, the column
// addresses nodes by preorder rank, and Dewey IDs and positions are
// derived during navigation, which is what keeps the scheme adaptive to
// updates (Section 4): an insert or delete rewrites only the column pages
// around its rank and the B+v entries of the nodes it adds or removes.  A
// Dewey ID is converted to a physical position by walking
// FIRST-CHILD/FOLLOWING-SIBLING along its components: on the
// balanced-parentheses index (bp_index.h) for queries in either
// navigation mode, and on the paged string itself for the updaters.

#ifndef NOKXML_ENCODING_DOCUMENT_STORE_H_
#define NOKXML_ENCODING_DOCUMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/bp_index.h"
#include "encoding/dewey.h"
#include "encoding/path_synopsis.h"
#include "encoding/string_store.h"
#include "encoding/tag_dictionary.h"
#include "encoding/value_column.h"
#include "encoding/value_store.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace nok {

/// Component file names inside a store directory (shared with the
/// offline verifier).
namespace store_files {
inline constexpr const char* kTree = "tree.nok";
inline constexpr const char* kValues = "values.dat";
inline constexpr const char* kDict = "tags.dict";
inline constexpr const char* kValIdx = "val.idx";
inline constexpr const char* kValueColumn = "values.col";
/// The retired Dewey-ID index (B+i).  A store that has it and no value
/// column is a retired format; next to a column it is ignored.
inline constexpr const char* kIdIdx = "id.idx";
/// Retired files that no store writes: the tag-name (B+t) and rooted
/// tag-path (B+p) indexes, and the BP index and path synopsis sidecars
/// (both structures are derived from the page chain on every open).
/// Open, verify, commits and snapshots ignore a leftover one, or its
/// `.tmp` name, and never modify it.  Kept only because
/// e2ebench/e2e_bench.cc:1037-1039 names them; the next benchmark change
/// deletes them.
inline constexpr const char* kTagIdx = "tag.idx";
inline constexpr const char* kPathIdx = "path.idx";
inline constexpr const char* kBpIndex = "tree.bpx";
inline constexpr const char* kSynopsis = "synopsis.pds";
}  // namespace store_files

/// How tree steps are answered at query time.
enum class NavMode {
  /// The paper's paged string cursor (BufferPool page decodes, (st,lo,hi)
  /// header skips).  The durability story; always available.
  kPaged,
  /// The in-memory balanced-parentheses index (bp_index.h): O(1)
  /// FIRST-CHILD / FOLLOWING-SIBLING / PARENT with zero page traffic.
  /// (Both modes locate Dewey IDs on that index; this mode also takes
  /// every tree step on it.)
  kBp,
};

/// Short name for explain output / CLI flags ("paged" / "bp").
const char* NavModeName(NavMode mode);

/// Build/open knobs.
struct DocumentStoreOptions {
  /// Page size of the tree string store and of the value column.
  uint32_t page_size = kDefaultPageSize;
  /// Page size of the B+ tree indexes (kept independent: experiments often
  /// shrink tree pages, but index entries need room).
  uint32_t index_page_size = kDefaultPageSize;
  /// Page fraction reserved for updates in the tree string's and the
  /// value column's pages (paper Section 4.2).
  double reserve_ratio = 0.2;
  /// Buffer-pool frames for the tree string, and for the value column.
  /// (Each B+ tree gets a fixed 64.)
  size_t pool_frames = 256;
  /// Buffer-pool LRU shards for the tree string (see BufferPool).  More
  /// shards cut mutex contention when many threads query one store.
  size_t pool_shards = 1;
  /// Buffer-pool LRU shards for each B+ tree.
  size_t index_pool_shards = 1;
  /// Open every component read-only (O_RDONLY files, mutating operations
  /// rejected).  Required for serving one store handle to many query
  /// threads concurrently; see DESIGN.md "Concurrency model".  Only
  /// meaningful for OpenDir.
  bool read_only = false;
  /// Toggle for the (st,lo,hi) page-skip optimization (Section 5).
  bool use_header_skip = true;
  /// Navigation tier used by query evaluation (see NavMode).  In either
  /// mode Build, OpenDir and every Flush derive the balanced-parentheses
  /// index, with the path synopsis, from one sequential scan of the page
  /// chain and persist neither: it is the Dewey ID locator of both
  /// modes (see DocumentStore::Derived).
  NavMode nav_mode = NavMode::kPaged;
  /// Directory for the store files; empty = fully in-memory.
  std::string dir;
  /// Hook for wrapping component files (fault injection in tests).  When
  /// set, every component file is opened through this factory; `path` is
  /// the file path (or the bare component name when dir is empty).
  std::function<Result<std::unique_ptr<File>>(const std::string& path,
                                              bool create)>
      file_factory;
  /// Write-ahead log (storage/wal.h).  With the WAL enabled, OpenDir
  /// first runs crash recovery on the directory, then captures every
  /// update in memory until Flush commits the batch: one WAL fsync makes
  /// the whole batch durable before any base file is touched, so a crash
  /// anywhere either replays the batch or restores the pre-update state —
  /// never a half-applied mix.  Requires a non-empty dir and a writable
  /// open; only meaningful for OpenDir.
  struct WalOptions {
    bool enabled = false;
  };
  WalOptions wal;
};

/// Document-level statistics (the columns of Table 1).
struct DocumentStoreStats {
  uint64_t xml_bytes = 0;        ///< Size of the source document.
  uint64_t node_count = 0;       ///< Subject-tree nodes (incl. attributes).
  double avg_depth = 0;          ///< Average leaf depth.
  int max_depth = 0;
  uint64_t distinct_tags = 0;
  uint64_t tree_bytes = 0;       ///< |tree|: the succinct string.
  uint64_t value_index_bytes = 0;///< |B+v|.
  uint64_t column_bytes = 0;     ///< |col|: the value column, B+i's stand-in.
  uint64_t data_bytes = 0;       ///< Value data file.
};

/// One stored document plus its indexes.
///
/// Thread safety: a store opened via OpenDir with Options::read_only set
/// supports concurrent reads (Navigate/StorePosOf/BpPosOf/ValueOf/
/// ValueAtRank/NodesWith*/Estimate*) from any number of threads sharing
/// the one handle: the open builds every derived structure, so readers
/// only read immutable data; each thread runs its own QueryEngine over
/// it.  Mutating operations (InsertSubtree/DeleteSubtree/Flush) then fail
/// with InvalidArgument.  A writable store is single-threaded.
class DocumentStore {
 public:
  using Options = DocumentStoreOptions;

  /// One entry of the value column's inverse.
  struct RankOfOffset {
    uint64_t offset;
    uint64_t rank;
    bool operator==(const RankOfOffset&) const = default;
  };

  /// Everything derived from the on-disk files for one structure, never
  /// persisted: the BP index and the path synopsis, from one VisitSymbols
  /// scan of the page chain (the synopsis trie rides the BpIndex::Build
  /// observer), and the in-memory value column, from one scan of the
  /// column's pages.  Built together by EnsureDerived (at Build, OpenDir
  /// and Flush, and on first access after an unflushed structural
  /// update), immutable once built, and shared read-only: a snapshot
  /// adopts its writer's copy (OpenDir's `adopt`).
  struct Derived {
    std::unique_ptr<const BpIndex> bp;
    /// The BP bit position of each chain page's first symbol, in chain
    /// order (StorePosOf); derived from bp and the page headers.
    std::vector<uint64_t> page_starts;
    std::unique_ptr<const PathSynopsis> synopsis;
    /// Rank -> value-record offset (kNoValue for nodes without a value),
    /// and its inverse sorted by (offset, rank).  Both empty while
    /// column_status holds an error.
    std::vector<uint64_t> offsets;
    std::vector<RankOfOffset> inverse;
    /// The column scan's verdict, naming values.col on failure: what
    /// every value read returns.  A damaged column page fails the value
    /// reads of queries, not the open, so `nokq verify` can still name
    /// the file.
    Status column_status;

    /// The preorder ranks of the nodes whose value record is at
    /// `offset`, ascending, from the inverse.
    std::span<const RankOfOffset> RanksOfOffset(uint64_t offset) const;
  };

  /// Parses xml and builds all stores/indexes in a single SAX pass, then
  /// derives from the files it wrote (as OpenDir does).
  static Result<std::unique_ptr<DocumentStore>> Build(const std::string& xml,
                                                      Options options = {});

  /// Reopens a store previously built with a non-empty dir, deriving by
  /// one scan of the page chain and one of the value column — or, given
  /// `adopt`, taking those structures from a handle on the same
  /// generation (a snapshot adopts its writer's).  An adopted copy is
  /// cross-checked against this open's tree meta and page headers (node
  /// count, page starts) and value column meta; a mismatch fails the open
  /// with Corruption.
  static Result<std::unique_ptr<DocumentStore>> OpenDir(
      Options options, std::shared_ptr<const Derived> adopt = nullptr);

  // -- components -------------------------------------------------------
  StringStore* tree() { return tree_.get(); }
  TagDictionary* tags() { return &tags_; }
  ValueStore* values() { return values_.get(); }
  BTree* value_index() { return value_index_.get(); }
  ValueColumnFile* value_column() { return column_.get(); }
  /// Empty in-memory B+ trees that nothing reads or writes (the retired
  /// B+t, B+i and B+p), so their counters read 0.  Kept only because
  /// e2ebench/e2e_bench.cc:185-186 names them; the next benchmark change
  /// deletes them.
  BTree* id_index() { return id_index_.get(); }
  BTree* tag_index() { return tag_index_.get(); }
  BTree* path_index() { return path_index_.get(); }

  /// Navigation tier this store was opened with.
  NavMode nav_mode() const { return options_.nav_mode; }

  /// The structures derived for the current structure (never null on
  /// OK), rebuilt on demand after an unflushed structural update.
  ///
  /// Thread safety: Build/OpenDir (and Flush) derive eagerly, so
  /// concurrent readers of a read-only store only ever hit the
  /// already-built fast path; on-demand rebuilding only happens on
  /// writable — single-threaded — handles.
  Result<std::shared_ptr<const Derived>> derived();

  /// The balanced-parentheses index of derived() (never null on OK).  The
  /// pointer stays valid until the next structural update.
  Result<const BpIndex*> bp_index();

  /// The paged-string position of the node whose open bit is `bp_pos` in
  /// the current BP index (take it from bp_index()).  A BP bit position
  /// is the node's symbol index in the page chain, so one binary search
  /// over the chain pages' first symbols answers it with no page access.
  StorePos StorePosOf(uint64_t bp_pos) const;

  /// The BP bit position of the node at paged-string position `pos` in the
  /// current BP index: the inverse of StorePosOf, with no page access.
  uint64_t BpPosOf(StorePos pos) const;

  /// The value of the node with preorder rank `rank` in the current BP
  /// index (take ranks from bp_index()), nullopt if it has none: one
  /// lookup in the in-memory column and one data-file read.  When the
  /// column could not be read, every call returns that error instead
  /// (Derived::column_status).
  Result<std::optional<std::string>> ValueAtRank(uint64_t rank);

  /// In-memory bytes of the column copy: 8 per node for rank -> offset,
  /// and 16 per valued node for the offset -> rank inverse.
  uint64_t value_column_bytes() const {
    return tree_->node_count() * sizeof(uint64_t) +
           value_index_->num_entries() * sizeof(RankOfOffset);
  }

  /// The DataGuide-style path synopsis of derived() (path_synopsis.h),
  /// fed to the Planner for per-pattern-node cardinality estimates and
  /// schema-impossible pruning (never null on OK).  The pointer stays
  /// valid until the next structural update.
  Result<const PathSynopsis*> path_synopsis();

  // -- navigation helpers ----------------------------------------------
  /// Physical position by a FIRST-CHILD / FOLLOWING-SIBLING walk on the
  /// paged string, never consulting the indexes.  The updaters use it:
  /// it stays valid while an update batch reshapes the string under a
  /// BP index that no longer describes it.
  Result<StorePos> Navigate(const DeweyId& id);

  /// The node's value (nullopt if it has none, or if no node has that
  /// Dewey ID): the node is located on the BP index and its value read by
  /// rank (ValueAtRank).
  Result<std::optional<std::string>> ValueOf(const DeweyId& id);

  // -- index access ------------------------------------------------------
  // Both probes answer in `derived`, which must be this store's current
  // generation (take it from derived()): each hit comes located, with its
  // Dewey ID and its open-bit position in derived.bp, so a caller that
  // navigates derived.bp starts from the hit without finding it again.

  /// All nodes with the given tag, in document order, from the BP index
  /// in either nav mode (its steps count as bp steps).
  Result<std::vector<LocatedNode>> NodesWithTag(const Derived& derived,
                                                TagId tag);

  /// The nodes whose value record B+v lists under `value`'s hash, in
  /// document order, unverified: the nodes of a value whose hash collides
  /// with `value`'s are among them.  Callers re-check each node's value
  /// (the matcher re-checks the predicate on every candidate).  Each
  /// record offset maps to its nodes' ranks through the in-memory
  /// column's inverse, and the ranks to nodes through the BP index (its
  /// steps count as bp steps).
  Result<std::vector<LocatedNode>> NodesWithValue(const Derived& derived,
                                                  const Slice& value);

  /// Occurrence count of a tag (exact, from the dictionary).
  uint64_t CountTag(TagId tag) const { return tags_.OccurrenceCount(tag); }

  /// Number of nodes with this value, counted up to cap (cheap
  /// selectivity estimate for the Section 6.2 heuristic).
  Result<size_t> EstimateValueCount(const Slice& value, size_t cap);

  // -- updates (Section 4.2; implemented in updater.cc) ------------------
  /// Parses xml_fragment (one element) and inserts it as child number
  /// child_index of the node `parent`.  Structure pages and the value
  /// column's pages around the insertion rank are updated locally, and
  /// B+v entries are added for the new nodes' values; no other node's
  /// entry moves.
  Status InsertSubtree(const DeweyId& parent, uint32_t child_index,
                       const std::string& xml_fragment);

  /// Deletes the subtree rooted at `node` (must not be the root).
  Status DeleteSubtree(const DeweyId& node);

  // -- bookkeeping --------------------------------------------------------
  const DocumentStoreStats& stats() const { return stats_; }
  /// Recomputes component sizes (after updates).
  void RefreshSizeStats();

  /// Commits every component to disk as one new store generation: the
  /// epoch counter is bumped, the value file and the indexes are written
  /// and synced first, then the tree string's meta page — the store-level
  /// commit record — last.  After a crash anywhere inside Flush, OpenDir
  /// either sees the previous consistent generation or reports Corruption
  /// (mismatched epochs); it never silently mixes generations.
  Status Flush();

  /// Current store generation (see Flush).
  uint64_t epoch() const { return epoch_; }

  /// True when this handle commits through the write-ahead log.
  bool wal_enabled() const { return wal_writer_ != nullptr; }
  /// What crash recovery did when this handle opened (WAL mode only).
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  /// WAL commit counters (WAL mode only; empty stats otherwise).
  WalWriter::Stats wal_stats() const {
    return wal_writer_ != nullptr ? wal_writer_->stats()
                                  : WalWriter::Stats();
  }
  /// The writer's WAL (null unless wal_enabled); the snapshot layer hooks
  /// pre-image retention into it.
  WalWriter* wal_writer() { return wal_writer_.get(); }


  /// Clears all buffer pools and I/O counters (cold-start for benchmarks).
  Status DropCaches();

 private:
  DocumentStore() = default;

  Status InitFiles(const Options& options);
  Status SaveDictionary();

  /// B+ tree options for every index, from the store options.
  BTree::Options IndexOptions() const;
  /// Value column options, from the store options.
  ValueColumnFile::Options ColumnOptions() const;

  /// Stamps every component with epoch_ and commits them: the value file,
  /// B+v and the value column (each syncing its data before its own
  /// meta), the dictionary, then the tree string, whose meta page written
  /// last commits the generation.
  Status FlushComponents();

  /// Opens one component file, honoring options_.file_factory and, in
  /// WAL mode, wrapping it for transactional capture.
  Result<std::unique_ptr<File>> OpenComponent(const char* name,
                                              bool create) const;

  /// WAL mode: opens the transaction covering the next update batch.
  /// Rejects a poisoned handle (a previous update failed half-captured).
  Status BeginWalTxn();
  /// WAL mode: called after an update op.  On failure, compares
  /// structure_version_ with `version_before`: an op that failed after
  /// it began mutating (BeginStructuralChange) aborts the transaction and
  /// poisons the handle; a validation failure passes through.
  Status FinishWalOp(Status op_status, uint64_t version_before);

  /// The update-op bodies (updater.cc); the public entry points wrap
  /// them in WAL transaction bookkeeping.
  Status InsertSubtreeImpl(const DeweyId& parent, uint32_t child_index,
                           const std::string& xml_fragment);
  Status DeleteSubtreeImpl(const DeweyId& node);

  friend class TreeUpdater;

  /// Called by the updaters once an op has validated its arguments, just
  /// before it first mutates anything: bumps structure_version_ and drops
  /// derived_, which EnsureDerived rebuilds on first access or at the
  /// next Flush.
  void BeginStructuralChange();

  /// Makes derived_ describe the current structure: when a structural
  /// update dropped it (or none exists yet), builds a fresh Derived.
  /// Nothing else builds one, and nothing persists it.
  Status EnsureDerived();

  /// Installs another handle's Derived after cross-checking it against
  /// this store's tree and value column (see OpenDir).
  Status AdoptDerived(std::shared_ptr<const Derived> derived);

  Options options_;
  /// Declared before the components: members destroy in reverse order,
  /// and every TxnFile handed to a component must unregister from the
  /// writer before the writer dies.
  std::unique_ptr<WalWriter> wal_writer_;
  RecoveryReport recovery_report_;
  /// Set when an update op failed after capturing partial writes: the
  /// transaction was aborted, but the in-memory component state has
  /// diverged from disk, so every further mutation is rejected until the
  /// store is reopened.
  bool wal_poisoned_ = false;
  std::unique_ptr<StringStore> tree_;
  TagDictionary tags_;
  std::unique_ptr<ValueStore> values_;
  std::unique_ptr<BTree> value_index_;
  std::unique_ptr<ValueColumnFile> column_;
  std::unique_ptr<BTree> id_index_;    ///< Empty; see id_index().
  std::unique_ptr<BTree> tag_index_;   ///< Empty; see tag_index().
  std::unique_ptr<BTree> path_index_;  ///< Empty; see path_index().
  DocumentStoreStats stats_;
  uint64_t epoch_ = 0;
  /// Structural updates applied in this process (BeginStructuralChange);
  /// in-memory only.
  uint64_t structure_version_ = 0;
  /// The structures derived for the current structure; null after a
  /// structural update until EnsureDerived runs.
  std::shared_ptr<const Derived> derived_;
};

/// Encoding helpers shared by the builder, the query engine and tests.
///
/// B+v holds one entry per valued node, keyed by (value hash, value-record
/// offset): a record's offset never changes (values.dat is append-only),
/// so no update re-keys an entry.  Nodes with equal values share a record,
/// so their entries share a key; the tree keeps duplicates adjacent, and
/// an update deletes one of them in one O(log n) descent.  The value is
/// empty.  The offset is written as one byte n, then its n significant
/// bytes big-endian, so one hash's entries iterate in offset order.
namespace index_keys {

/// Width of the B+v key prefix (the big-endian value hash).
inline constexpr size_t kValueKeySize = 8;

/// B+v key prefix shared by every node with this value.
std::string ValueKey(const Slice& value);
/// B+v entry key: ValueKey(value) followed by the encoded record offset.
std::string ValueKey(const Slice& value, uint64_t offset);
/// The record offset of a B+v entry, whose value is empty.  The retired
/// entries — a bare kValueKeySize-byte key, a Dewey ID in place of the
/// offset, or a cached node position in the value — are refused with
/// Corruption.
Status ParseValueEntry(const Slice& key, const Slice& value,
                       uint64_t* offset);

}  // namespace index_keys

}  // namespace nok

#endif  // NOKXML_ENCODING_DOCUMENT_STORE_H_
