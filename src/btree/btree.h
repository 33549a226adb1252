// Disk-backed B+ tree with variable-length keys and values.
//
// This is the index substrate of the paper (Section 4.1, Figure 3): the
// hashed-value index B+v and the Dewey-ID index B+i are instances of this
// tree with different key encodings.
//
// Properties:
//   * duplicate keys are allowed and stored contiguously in key order,
//     enumerated with an iterator (the store's own keys are unique: B+v
//     keys append the Dewey ID to the value hash);
//   * keys compare byte-wise, so callers use order-preserving encodings
//     (big-endian integers, Dewey component vectors);
//   * an insert past the last key of the rightmost leaf that does not fit
//     starts a new leaf and leaves the full one as it is (the append split
//     of SQLite and InnoDB), so a sorted run of inserts — how Build loads
//     every index — fills the leaves; any other overflow splits at the
//     byte-wise middle;
//   * deletion removes entries without structural rebalancing — the
//     workload this library targets builds indexes in bulk and rebuilds
//     them after heavy updates (Section 4.1 of the paper makes the same
//     call for the Dewey index);
//   * all page access goes through a BufferPool, so index I/O shows up in
//     the experiment counters.

#ifndef NOKXML_BTREE_BTREE_H_
#define NOKXML_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "btree/node.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {

class BTreeIterator;

/// Tuning knobs for a BTree.
struct BTreeOptions {
  uint32_t page_size = kDefaultPageSize;
  size_t pool_frames = 64;
  /// Number of independent buffer-pool LRU shards (see BufferPool).
  size_t pool_shards = 1;
  /// Open the tree for lookups only: Insert/Delete/Flush are rejected
  /// (Flush quietly no-ops so destruction stays I/O-free), which makes
  /// Get/NewIterator safe to call from many threads at once.
  bool read_only = false;
  /// Fail with Corruption instead of formatting a fresh tree when the file
  /// is empty.  Set when reopening an index that is supposed to exist: an
  /// empty file then means lost data, and silently starting over would
  /// turn a detectable crash scar into a wrong-answers bug.
  bool error_if_empty = false;
};

/// A single B+ tree persisted in one file.
///
/// Thread safety: a tree opened with Options::read_only supports
/// concurrent Get/NewIterator from any number of threads — root_ and
/// num_entries_ are immutable after Open and page access goes through the
/// sharded BufferPool.  A writable tree is single-threaded.
class BTree {
 public:
  using Options = BTreeOptions;

  /// Opens the tree stored in file, or formats a new one if the file is
  /// empty.  Takes ownership of the file.
  static Result<std::unique_ptr<BTree>> Open(std::unique_ptr<File> file,
                                             Options options = {});

  ~BTree();

  /// Inserts (key, value).  Duplicate keys are allowed; entries with equal
  /// keys are adjacent in iteration order.  The combined entry must fit in
  /// a quarter page.
  Status Insert(const Slice& key, const Slice& value);

  /// Returns the value of the first entry with exactly this key.
  Result<std::string> Get(const Slice& key);

  /// Removes the first entry with exactly this key; returns whether an
  /// entry was removed.
  Result<bool> Delete(const Slice& key);

  /// Number of live entries.
  uint64_t num_entries() const { return num_entries_; }

  /// On-disk footprint in bytes (what Table 1 reports as |B+x|).
  uint64_t SizeBytes() const { return pager_->SizeBytes(); }

  /// Commits the tree to disk: data pages are written and synced first,
  /// then the meta page (root + entry count + epoch), then synced again —
  /// so a crash between the two syncs leaves the previous meta pointing at
  /// a fully durable tree.
  Status Flush();

  /// Store-generation counter, persisted in the meta page.  The document
  /// store stamps every component with the same epoch on each commit and
  /// cross-checks them at open to detect torn multi-file updates.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) {
    if (epoch_ != epoch) {
      epoch_ = epoch;
      meta_dirty_ = true;
    }
  }

  /// New iterator over the tree.  The iterator pins one leaf at a time;
  /// at most a handful may be live at once (bounded by pool frames).
  BTreeIterator NewIterator();

  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  friend class BTreeIterator;

  BTree(std::unique_ptr<Pager> pager, Options options);

  Status InitNew();
  Status LoadMeta();
  Status WriteMeta();

  struct Promotion {
    std::string key;
    PageId page;
  };

  /// Recursive insert; returns a separator promotion if the node split.
  Result<std::optional<Promotion>> InsertRec(PageId page, const Slice& key,
                                             const Slice& value);

  /// Descends to the leaf that contains the lower bound of key; returns a
  /// pinned handle.  (Go left on separator equality: with duplicates the
  /// first occurrence can only be in that child or further right via the
  /// sibling chain.)
  Result<PageHandle> DescendToLeaf(const Slice& key);
  Result<PageHandle> LeftmostLeaf();

  Options options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  PageId root_ = kInvalidPage;
  uint64_t num_entries_ = 0;
  uint64_t epoch_ = 0;
  bool meta_dirty_ = false;
};

/// Forward iterator over (key, value) entries in key order.
class BTreeIterator {
 public:
  /// Positions at the first entry; the iterator is invalid if the tree is
  /// empty.
  Status SeekToFirst();

  /// Positions at the first entry with key >= target.
  Status Seek(const Slice& target);

  bool Valid() const { return leaf_.valid() && slot_ < leaf_nkeys_; }

  /// Advances; invalid after the last entry.
  Status Next();

  /// Current key/value; views are valid until the next Seek/Next call.
  Slice key() const;
  Slice value() const;

 private:
  friend class BTree;
  explicit BTreeIterator(BTree* tree) : tree_(tree) {}

  /// Skips empty leaves (left behind by deletes) until a live entry, then
  /// decodes that entry's cell once into key_ and value_.
  Status SettleOnEntry();

  BTree* tree_;
  PageHandle leaf_;
  uint16_t slot_ = 0;
  uint16_t leaf_nkeys_ = 0;
  /// The current entry, decoded when the iterator lands on it.
  Slice key_;
  Slice value_;
};

}  // namespace nok

#endif  // NOKXML_BTREE_BTREE_H_
