// The value column: every node's value-record offset, by preorder rank,
// in a checksummed page chain (the stand-in for the paper's Dewey-keyed
// B+i, Figure 3 and Section 4.1).
//
// A node's preorder rank is implicit in its place in the column, so no
// entry carries a key, and inserting k nodes at rank r moves no other
// node's entry: only the page or pages around r are rewritten (the same
// locality the tree string's pages give structure updates, Section 4.2).
// SXSI (Arroyuelo et al.) addresses text by preorder rank the same way.
//
//   meta page 0   magic, page size, format version, entry count, first
//                 data page, free-list head, epoch
//   data page     | count | used | next |  varint entries ...  | reserve |
//
// An entry is varint(offset + 1), or 0 for a node without a value.  Pages
// are chained like the tree string's, so a split links freshly allocated
// pages after the page it splits, and a page that an erase empties is
// unlinked and recycled through the free list.  Every page goes through a
// Pager, so it carries a CRC-32C trailer.
//
// Each page's first rank is the sum of the counts before it.  The page
// directory (count, used bytes and next pointer per page, chain order and
// first ranks) is derived by Scan, one chain-order pass that also decodes
// every entry; Open reads only the meta page, so an open stays cheap and a
// damaged data page fails the reads that meet it, not the open.
//
// Thread safety: Scan may run only while nothing else touches the column
// (DocumentStore calls it while it derives, at an open or a commit, before
// any reader can reach the store).  A writable column is single-threaded.

#ifndef NOKXML_ENCODING_VALUE_COLUMN_H_
#define NOKXML_ENCODING_VALUE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {

/// Column entry of a node without a value.
inline constexpr uint64_t kNoValue = ~uint64_t{0};

/// On-disk rank -> value-offset column.  Owns its file.
class ValueColumnFile {
 public:
  struct Options {
    uint32_t page_size = kDefaultPageSize;
    /// Fraction of each page body left free at build time and after a
    /// split, so small insertions stay on their page.
    double reserve_ratio = 0.2;
    size_t pool_frames = 64;
    bool read_only = false;
  };

  /// Writes `entries` (kNoValue for nodes without a value) into an empty
  /// file as a fresh column stamped with `epoch`, data pages synced before
  /// the meta page, and opens it.
  static Result<std::unique_ptr<ValueColumnFile>> Create(
      std::unique_ptr<File> file, const std::vector<uint64_t>& entries,
      uint64_t epoch, Options options);

  /// Opens an existing column; reads and checks the meta page only.
  static Result<std::unique_ptr<ValueColumnFile>> Open(
      std::unique_ptr<File> file, Options options);

  ~ValueColumnFile();

  /// Number of entries (the node count of the tree it describes).
  uint64_t size() const { return entries_; }

  /// Every entry in rank order (into *out when non-null), by one
  /// chain-order pass over the data pages that also rebuilds the page
  /// directory.  Fails with Corruption on a damaged page, a bad varint, a
  /// cyclic chain or a total that disagrees with the meta page.
  Status Scan(std::vector<uint64_t>* out);

  /// Inserts `entries` so that the first lands at rank `rank`
  /// (rank <= size()).  Rewrites the page holding `rank`, and splits it
  /// into fresh pages chained after it when the entries do not fit.
  Status Insert(uint64_t rank, const std::vector<uint64_t>& entries);

  /// Removes the `count` entries from rank `rank` on, appending them to
  /// *erased.  Rewrites only the pages they sit on; a page left empty is
  /// unlinked and recycled.
  Status Erase(uint64_t rank, uint64_t count, std::vector<uint64_t>* erased);

  /// Commits the column: data pages written and synced, then the meta
  /// page (when dirty), then synced again.
  Status Flush();

  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) {
    if (epoch_ != epoch) {
      epoch_ = epoch;
      meta_dirty_ = true;
    }
  }

  /// On-disk footprint (Table 1's |B+i| stand-in, see DESIGN.md §4).
  uint64_t SizeBytes() const { return pager_->SizeBytes(); }
  /// Data pages in the chain (valid once the directory is loaded).
  size_t chain_length() const { return chain_.size(); }
  /// Data pages written by the last Insert or Erase (new pages included).
  size_t last_pages_written() const { return last_pages_written_; }

  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  /// In-memory copy of a data page's header.
  struct PageInfo {
    uint16_t count = 0;
    uint16_t used = 0;
    PageId next = kInvalidPage;
  };

  ValueColumnFile(std::unique_ptr<Pager> pager, Options options);

  Status LoadMeta();
  Status WriteMeta();
  uint32_t body_capacity() const;
  uint32_t fill_limit() const;

  /// Decodes data page `page` (bounded by its used bytes) into *out.
  Status DecodePage(PageId page, const char* data,
                    std::vector<uint64_t>* out) const;
  /// Writes `entries` as the whole body of `page` (they must fit).
  Status WritePage(PageId page, const uint64_t* entries, size_t n,
                   PageId next);
  Status AllocatePage(PageId* id);
  Status EnsureDirectory();
  /// Rebuilds chain_ and first_rank_ from pages_ (no I/O).
  Status RebuildChain();
  /// Chain index of the page holding rank (the last page for size()).
  size_t ChainIndexOf(uint64_t rank) const;

  Options options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  uint64_t entries_ = 0;
  uint64_t epoch_ = 0;
  PageId first_page_ = kInvalidPage;
  PageId free_head_ = kInvalidPage;
  bool meta_dirty_ = false;
  /// The page directory, derived by Scan.
  bool directory_loaded_ = false;
  std::vector<PageInfo> pages_;       ///< Indexed by PageId.
  std::vector<PageId> chain_;         ///< Data pages in chain order.
  std::vector<uint64_t> first_rank_;  ///< chain_.size() + 1 prefix sums.
  size_t last_pages_written_ = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_VALUE_COLUMN_H_
