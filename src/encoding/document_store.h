// DocumentStore: the complete physical representation of one XML document
// (Figure 3 of the paper).
//
// It bundles:
//   * the succinct tree string (StringStore)          -- |tree| in Table 1
//   * the tag dictionary (name <-> Sigma symbol)
//   * the value data file (ValueStore)
//   * B+v: keyed by (hash(value), Dewey ID)           -- |B+v|
//   * B+i: Dewey ID -> value-record offset            -- |B+i|
//   * in place of B+t, the BP index's per-tag rank lists (bp_index.h)
//   * an in-memory column mapping each node's preorder rank to its
//     value-record offset, filled from B+i (whose keys sort in preorder)
//     by one leaf-chain scan on the first value read after the BP index
//     is (re)built; query evaluation reads values through it and never
//     probes B+i
//
// Indexes reference nodes by Dewey ID (never by physical position):
// positions are derived during navigation, which is what keeps the scheme
// adaptive to updates (Section 4).  A Dewey ID is converted to a physical
// position by walking FIRST-CHILD/FOLLOWING-SIBLING along its components:
// on the balanced-parentheses index (bp_index.h) for queries in either
// navigation mode, and on the paged string itself for the updaters.

#ifndef NOKXML_ENCODING_DOCUMENT_STORE_H_
#define NOKXML_ENCODING_DOCUMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/bp_index.h"
#include "encoding/dewey.h"
#include "encoding/path_synopsis.h"
#include "encoding/string_store.h"
#include "encoding/tag_dictionary.h"
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
  /// Page size of the tree string store.
  uint32_t page_size = kDefaultPageSize;
  /// Page size of the B+ tree indexes (kept independent: experiments often
  /// shrink tree pages, but index entries -- Dewey keys -- need room).
  uint32_t index_page_size = kDefaultPageSize;
  /// Page fraction reserved for updates (paper Section 4.2).
  double reserve_ratio = 0.2;
  /// Buffer-pool frames for the tree string.
  size_t pool_frames = 256;
  /// Buffer-pool frames for each B+ tree.
  size_t index_pool_frames = 64;
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
  /// modes.
  NavMode nav_mode = NavMode::kPaged;
  /// Directory for the store files; empty = fully in-memory.
  std::string dir;
  /// Hook for wrapping component files (fault injection in tests).  When
  /// set, every component file is opened through this factory; `path` is
  /// the file path (or the bare component name when dir is empty).
  std::function<Result<std::unique_ptr<File>>(const std::string& path,
                                              bool create)>
      file_factory;
  /// Write-ahead-log knobs (storage/wal.h).  With the WAL enabled,
  /// OpenDir first runs crash recovery on the directory, then captures
  /// every update in memory until Flush commits the batch: one WAL fsync
  /// makes the whole batch durable before any base file is touched, so a
  /// crash anywhere either replays the batch or restores the pre-update
  /// state — never a half-applied mix.  Requires a non-empty dir and a
  /// writable open; only meaningful for OpenDir.
  struct WalOptions {
    bool enabled = false;
    /// Auto-commit (Flush) after this many update operations;
    /// 0 = only an explicit Flush commits.
    uint64_t group_commit_ops = 0;
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
  uint64_t id_index_bytes = 0;   ///< |B+i|.
  uint64_t data_bytes = 0;       ///< Value data file.
};

/// One stored document plus its indexes.
///
/// Thread safety: a store opened via OpenDir with Options::read_only set
/// supports concurrent reads (Navigate/StorePosOf/BpPosOf/ValueOf/
/// ValueAtRank/LoadValueColumn/NodesWith*/Estimate*) from any number of
/// threads sharing the one handle (the first ValueAtRank fills the value
/// column under a lock; later reads take one atomic load); each
/// thread runs its own QueryEngine over it.  Mutating operations
/// (InsertSubtree/DeleteSubtree/Flush) then fail with InvalidArgument.
/// A writable store is single-threaded.
class DocumentStore {
 public:
  using Options = DocumentStoreOptions;

  /// Parses xml and builds all stores/indexes in a single SAX pass, then
  /// derives the BP index and the synopsis by one scan of the page chain
  /// it wrote (as OpenDir does).
  static Result<std::unique_ptr<DocumentStore>> Build(const std::string& xml,
                                                      Options options = {});

  /// Reopens a store previously built with a non-empty dir.
  static Result<std::unique_ptr<DocumentStore>> OpenDir(Options options);

  // -- components -------------------------------------------------------
  StringStore* tree() { return tree_.get(); }
  TagDictionary* tags() { return &tags_; }
  ValueStore* values() { return values_.get(); }
  BTree* value_index() { return value_index_.get(); }
  BTree* id_index() { return id_index_.get(); }
  /// Empty in-memory B+ trees that nothing reads or writes (the retired
  /// B+t and B+p), so their counters read 0.  Kept only because
  /// e2ebench/e2e_bench.cc:185-186 names them; the next benchmark change
  /// deletes them.
  BTree* tag_index() { return tag_index_.get(); }
  BTree* path_index() { return path_index_.get(); }

  /// Navigation tier this store was opened with.
  NavMode nav_mode() const { return options_.nav_mode; }

  /// The balanced-parentheses index for the current structure, rebuilt
  /// on demand after a structural update (never returns null on OK).  The
  /// pointer stays valid until the next structural update.
  ///
  /// Thread safety: the index is derived eagerly by Build/OpenDir (and by
  /// Flush), so concurrent readers of a read-only store only ever hit the
  /// already-built fast path; on-demand rebuilding only happens on
  /// writable — single-threaded — handles.
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
  /// column lookup and one data-file read, no B+i probe.  The first call
  /// after an open or a structural update fills the column (one B+i
  /// scan), so opens and commits that read no value never pay for it.
  /// When B+i cannot fill the column, every call returns that error
  /// instead: a damaged B+i fails the value reads of queries, not the
  /// open, so `nokq verify` can still name the component.
  Result<std::optional<std::string>> ValueAtRank(uint64_t rank);

  /// Fills the value column now, if the current structure's is not
  /// filled yet, and returns the fill's verdict (what every ValueAtRank
  /// then returns).  For callers that want the one B+i scan outside their
  /// first query, e.g. to measure each query's own work.
  Status LoadValueColumn();

  /// In-memory bytes of the rank -> value-offset column once filled (8
  /// per node).
  uint64_t value_column_bytes() const {
    return tree_->node_count() * sizeof(uint64_t);
  }

  /// The DataGuide-style path synopsis for the current structure
  /// (path_synopsis.h), fed to the Planner for per-pattern-node
  /// cardinality estimates and schema-impossible pruning.  Its trie rides
  /// the BP index's scan, so it is rebuilt with that index and at the
  /// same times (never null on OK).  The pointer stays valid until the
  /// next structural update.
  Result<const PathSynopsis*> path_synopsis();

  // -- navigation helpers ----------------------------------------------
  /// Physical position by a FIRST-CHILD / FOLLOWING-SIBLING walk on the
  /// paged string, never consulting the indexes.  The updaters use it:
  /// it stays valid while an update batch reshapes the string under a
  /// BP index that no longer describes it.
  Result<StorePos> Navigate(const DeweyId& id);

  /// The node's value (nullopt if it has none), by a B+i probe.  Query
  /// evaluation reads values by rank instead (ValueAtRank).
  Result<std::optional<std::string>> ValueOf(const DeweyId& id);

  // -- index access ------------------------------------------------------
  /// The Dewey IDs of all nodes with the given tag, in document order, from
  /// the BP index in either nav mode (its steps count as bp steps).
  Result<std::vector<DeweyId>> NodesWithTag(TagId tag);

  /// The Dewey IDs of B+v's entries under `value`'s hash, in document
  /// order, unverified: the nodes of a value whose hash collides with
  /// `value`'s are among them.  Callers re-check each node's value (the
  /// matcher re-checks the predicate on every candidate).
  Result<std::vector<DeweyId>> NodesWithValue(const Slice& value);

  /// Occurrence count of a tag (exact, from the dictionary).
  uint64_t CountTag(TagId tag) const { return tags_.OccurrenceCount(tag); }

  /// Number of nodes with this value, counted up to cap (cheap
  /// selectivity estimate for the Section 6.2 heuristic).
  Result<size_t> EstimateValueCount(const Slice& value, size_t cap);

  // -- updates (Section 4.2; implemented in updater.cc) ------------------
  /// Parses xml_fragment (one element) and inserts it as child number
  /// child_index of the node `parent`.  Structure pages are updated
  /// locally; index entries of the new nodes are added and the Dewey IDs
  /// of shifted following siblings are rewritten.
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

  /// Opens one component file, honoring options_.file_factory and, in
  /// WAL mode, wrapping it for transactional capture.
  Result<std::unique_ptr<File>> OpenComponent(const char* name,
                                              bool create) const;

  /// WAL mode: opens the transaction covering the next update batch.
  /// Rejects a poisoned handle (a previous update failed half-captured).
  Status BeginWalTxn();
  /// WAL mode: called after an update op.  On success, counts the op
  /// toward the group-commit threshold.  On failure, compares
  /// structure_version_ with `version_before`: an op that failed after
  /// it began mutating (BeginStructuralChange) aborts the transaction and
  /// poisons the handle; a validation failure passes through.
  Status FinishWalOp(Status op_status, uint64_t version_before);

  /// The update-op bodies (updater.cc); the public entry points wrap
  /// them in WAL transaction bookkeeping.
  Status InsertSubtreeImpl(const DeweyId& parent, uint32_t child_index,
                           const std::string& xml_fragment);
  Status DeleteSubtreeImpl(const DeweyId& node);

  /// Moves a node's B+i/B+v entries from old_dewey to new_dewey
  /// (sibling-shift maintenance during updates; updater.cc).
  Status RewriteIndexEntries(const DeweyId& old_dewey,
                             const DeweyId& new_dewey);
  /// Drops a node's B+i/B+v entries (subtree deletion; updater.cc).
  Status RemoveIndexEntries(const DeweyId& dewey);

  friend class TreeUpdater;

  /// Called by the updaters once an op has validated its arguments, just
  /// before it first mutates anything: bumps structure_version_ and drops
  /// the structures derived from the old topology (the BP index, the
  /// synopsis and the value column), which are rebuilt lazily or at the
  /// next Flush.
  void BeginStructuralChange();

  /// Makes bp_, bp_page_starts_ and synopsis_ describe the current
  /// structure.  When a structural update dropped them (or none exist
  /// yet), one VisitSymbols scan of the page chain builds the BP index,
  /// and the synopsis trie rides the same scan (the BpIndex::Build
  /// observer).  Nothing else builds either structure, and neither is
  /// persisted.
  Status EnsureDerived();

  /// The rank -> value-offset column of one BP version.  Readers of a
  /// read-only store share it: the first fills it under `mu`, and once
  /// `filled` reads true (acquire) `offsets` and `status` never change.
  struct ValueColumn {
    Mutex mu;
    std::atomic<bool> filled{false};
    /// Empty while `status` holds an error.
    std::vector<uint64_t> offsets;  // NOK008-OK: immutable once filled
    Status status;                  // NOK008-OK: immutable once filled
  };

  /// Fills value_column_ for the current bp_ by one scan of B+i's leaf
  /// chain, unless another thread just did: its keys sort in preorder and
  /// it holds one entry per node, each checked against the preorder Dewey
  /// ID the BP bits give.  A failure is kept in the column's status,
  /// never returned.
  void FillValueColumn();

  Options options_;
  /// Declared before the components: members destroy in reverse order,
  /// and every TxnFile handed to a component must unregister from the
  /// writer before the writer dies.
  std::unique_ptr<WalWriter> wal_writer_;
  RecoveryReport recovery_report_;
  uint64_t wal_ops_pending_ = 0;
  /// Set when an update op failed after capturing partial writes: the
  /// transaction was aborted, but the in-memory component state has
  /// diverged from disk, so every further mutation is rejected until the
  /// store is reopened.
  bool wal_poisoned_ = false;
  std::unique_ptr<StringStore> tree_;
  TagDictionary tags_;
  std::unique_ptr<ValueStore> values_;
  std::unique_ptr<BTree> value_index_;
  std::unique_ptr<BTree> id_index_;
  std::unique_ptr<BTree> tag_index_;   ///< Empty; see tag_index().
  std::unique_ptr<BTree> path_index_;  ///< Empty; see path_index().
  DocumentStoreStats stats_;
  uint64_t epoch_ = 0;
  /// Structural updates applied in this process (BeginStructuralChange);
  /// in-memory only.
  uint64_t structure_version_ = 0;
  /// The structures derived from the page chain by EnsureDerived: all
  /// set, or all dropped by a structural update.  Immutable once built.
  /// Balanced-parentheses navigation tier (bp_index.h).
  std::unique_ptr<BpIndex> bp_;
  /// The BP bit position of each chain page's first symbol, in chain
  /// order (StorePosOf); derived with bp_ from the in-memory page
  /// headers.
  std::vector<uint64_t> bp_page_starts_;
  /// The value-record offset of each node by preorder rank (kNoValue:
  /// the node has none) for the current bp_, filled from B+i by
  /// FillValueColumn on the first value read and replaced by an empty
  /// one at each structural update.
  std::unique_ptr<ValueColumn> value_column_ = std::make_unique<ValueColumn>();
  /// DataGuide-style path synopsis (path_synopsis.h).
  std::unique_ptr<PathSynopsis> synopsis_;
};

/// Encoding helpers shared by the builder, the query engine and tests.
///
/// B+v entries are keyed by (value hash, Dewey ID), so each entry is
/// unique: an update deletes exactly the entry it moves in one O(log n)
/// descent, and one value's entries iterate in document order.  The value
/// is empty.  No entry caches a physical position: stores written before
/// that was dropped carry one, in B+v values and as a leading varint in
/// B+i payloads, and the readers below skip it.
namespace index_keys {

/// Width of the B+v key prefix (the big-endian value hash).
inline constexpr size_t kValueKeySize = 8;

/// B+v key prefix shared by every node with this value.
std::string ValueKey(const Slice& value);
/// B+v entry key: ValueKey(value) followed by dewey.Encode().
std::string ValueKey(const Slice& value, const DeweyId& dewey);
/// The Dewey ID of a B+v entry, whose value is empty.  The retired
/// entries — a bare kValueKeySize-byte key, or a cached node position in
/// the value — are refused with Corruption.
Status ParseNodeRefEntry(const Slice& key, const Slice& value,
                         DeweyId* dewey);
/// B+i value payload: the optional value-record offset, one varint.
std::string IdPayload(bool has_value, uint64_t value_offset);
/// Decodes IdPayload's varint.  A retired payload, which led with a cached
/// node position, is refused with Corruption.
Status ParseIdPayload(const Slice& payload, bool* has_value,
                      uint64_t* value_offset);

}  // namespace index_keys

}  // namespace nok

#endif  // NOKXML_ENCODING_DOCUMENT_STORE_H_
