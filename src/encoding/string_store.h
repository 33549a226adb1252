// The succinct physical storage scheme for the subject tree
// (Sections 4.2 and 5 of the paper).
//
// The tree is materialized as a pre-order string: each node contributes an
// "open" symbol carrying its TagId, and a ')' close symbol at the end of
// its subtree — the (a(b)(c)) representation with the redundant open
// parentheses removed.  Open symbols are 2 bytes (high bit of the first
// byte set, 15-bit TagId), close symbols 1 byte (0x00), matching the
// paper's 2-byte Sigma characters and 1-byte ')'.
//
// The string is chopped into fixed-size pages (Figure 5):
//
//   +--------------------------------------------------------------+
//   | st lo hi | used | next_page |  symbols ...  | reserved space |
//   +--------------------------------------------------------------+
//
//   st   level of the last symbol in the *previous* page (0 for the
//        first page), so a page's levels can be decoded in isolation;
//   lo,hi  min/max symbol level occurring in the page — the feather-
//        weight index that lets FOLLOWING-SIBLING skip pages without
//        reading them (Section 5, Example 5);
//   next_page  chain pointer, so update splits can insert pages
//        (Section 4.2);
//   reserved space  a fraction of each page kept empty at build time so
//        small insertions stay local (the paper's load factor r).
//
// Levels follow the paper's convention (the "0123232343432" example in
// Section 5): a running level starts at st; an open symbol increments it,
// a close symbol decrements it, and the symbol's level is the value after
// the step.  The root open symbol has level 1.
//
// All page headers are mirrored in memory (the paper's 21-70 MB for 1 TB
// argument), so skip decisions are free of I/O; page bodies go through a
// BufferPool whose counters the experiments report.
//
// The primitives run on a StringStore::Navigator, a per-caller object
// that keeps the decoded view of the last page it read.  The paper's cost
// is pages read, not calls made: consecutive FIRST-CHILD /
// FOLLOWING-SIBLING calls on one page decode it once and reach the
// BufferPool once.

#ifndef NOKXML_ENCODING_STRING_STORE_H_
#define NOKXML_ENCODING_STRING_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/tag_dictionary.h"
#include "storage/buffer_pool.h"
#include "storage/file.h"
#include "storage/pager.h"

namespace nok {

class TreeUpdater;

/// Position of a symbol: page plus symbol index within the page.
struct StorePos {
  PageId page = kInvalidPage;
  uint16_t idx = 0;

  bool operator==(const StorePos& other) const {
    return page == other.page && idx == other.idx;
  }
};

/// In-memory copy of one page header.
struct StorePageHeader {
  int16_t st = 0;
  int16_t lo = 0;
  int16_t hi = 0;
  uint16_t used = 0;  ///< Symbol bytes in the page body.
  PageId next = kInvalidPage;
};

/// On-page size of a data-page header.
inline constexpr uint32_t kStorePageHeaderSize = 12;

/// (De)serialization of a data-page header at the start of a page buffer.
void EncodeStorePageHeader(char* buf, const StorePageHeader& h);
StorePageHeader DecodeStorePageHeader(const char* buf);

/// Build/open options.
struct StringStoreOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Fraction of each page body reserved for future insertions (the
  /// paper's r; Section 4.2 suggests 20%).
  double reserve_ratio = 0.2;
  size_t pool_frames = 256;
  /// Number of independent buffer-pool LRU shards.  One shard keeps the
  /// classic global LRU; more shards let concurrent reader threads fetch
  /// pages without contending on a single mutex.
  size_t pool_shards = 1;
  /// Open the store for reading only: Flush becomes a no-op and the store
  /// promises never to write, which lets many threads navigate it at
  /// once, each through its own Navigator.
  bool read_only = false;
  /// When false, FOLLOWING-SIBLING and subtree scans read every page in
  /// chain order instead of consulting the (st,lo,hi) headers — the
  /// ablation knob for the Section 5 optimization.
  bool use_header_skip = true;
};

/// Read (and, via TreeUpdater, write) access to one materialized tree.
///
/// Thread safety: a store opened with Options::read_only supports
/// concurrent navigation from any number of threads, each with its own
/// Navigator — headers_/chain_ are immutable after Open, page access goes
/// through the sharded BufferPool, and NavStats counters are atomic.  A
/// writable store is single-threaded.
class StringStore {
 public:
  using Options = StringStoreOptions;

  /// Streaming writer used at document-build time.  Symbols are appended
  /// in document order; pages are laid out sequentially with the reserve
  /// fraction left free.
  class Builder {
   public:
    /// Takes ownership of an empty file.
    Builder(std::unique_ptr<File> file, Options options = {});
    ~Builder();

    /// Appends the open symbol of a node with the given tag.
    Status Open(TagId tag);

    /// Appends a close symbol.  Fails if no element is open.
    Status Close();

    /// Current nesting level (0 outside the root).
    int level() const { return level_; }

    /// Finalizes headers and the meta page (stamped with epoch) and
    /// returns a reader over the same file.  Data pages are synced before
    /// the meta page is written, so the meta is the commit record of the
    /// build.  The builder is unusable afterwards.
    Result<std::unique_ptr<StringStore>> Finish(uint64_t epoch = 0);

   private:
    Status AppendSymbol(const char* bytes, uint32_t n, int new_level);
    Status FlushPage(PageId next);

    Options options_;
    Status init_status_;  ///< First I/O error from construction, if any.
    std::unique_ptr<Pager> pager_;
    std::string page_buf_;
    uint32_t fill_limit_;
    PageId cur_page_ = kInvalidPage;
    int16_t st_ = 0;
    int16_t lo_ = 0;
    int16_t hi_ = 0;
    bool page_has_symbols_ = false;
    uint16_t used_bytes_ = 0;
    int level_ = 0;
    uint64_t node_count_ = 0;
    int max_level_ = 0;
    bool finished_ = false;
  };

  /// Opens an existing store; reads the meta page and mirrors all page
  /// headers into memory.
  static Result<std::unique_ptr<StringStore>> Open(
      std::unique_ptr<File> file, Options options = {});

  ~StringStore();

  /// Commits the store: data pages are written and synced first, then the
  /// meta page (if dirty), then synced again, so the meta never points at
  /// unsynced data.
  Status Flush();

  /// Store-generation counter, persisted in the meta page (see
  /// BTree::epoch for the cross-component torn-update check it feeds).
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) {
    if (epoch_ != epoch) {
      epoch_ = epoch;
      meta_dirty_ = true;
    }
  }

  // -------------------------------------------------------------------
  // Primitive tree operations (Algorithm 2 of the paper) run on a
  // Navigator, declared below the class.

  class Navigator;

  /// Position of the root's open symbol.
  StorePos RootPos() const;

  /// Visits every symbol in document order — one sequential chain scan
  /// through the BufferPool.  `visit(is_open, tag)` receives kInvalidTag
  /// for close symbols.  Feeds BP-index construction (bp_index.h), which
  /// the path synopsis rides.
  Status VisitSymbols(const std::function<void(bool, TagId)>& visit);

  // -------------------------------------------------------------------
  // Positions.

  /// Monotone-in-document-order 64-bit position of a symbol
  /// (chain_index * page_size + symbol index; the paper's p * C + o).
  uint64_t GlobalPos(StorePos pos) const;

  /// Inverse of GlobalPos.
  Result<StorePos> PosForGlobal(uint64_t global) const;

  /// Number of open symbols before `pos` in document order: the preorder
  /// rank of the node whose open symbol is at pos (or, when pos is a close
  /// symbol, of a subtree inserted before it).  The pages before pos's
  /// page are counted from the in-memory headers: a page of o opens and c
  /// closes holds 2o + c bytes and moves the level by o - c, so
  /// 3o = used + (end level - st).  Only pos's own page is read.
  Result<uint64_t> OpensBefore(StorePos pos);

  // -------------------------------------------------------------------
  // Introspection.

  uint64_t node_count() const { return node_count_; }
  int max_level() const { return max_level_; }
  /// Number of data pages in the chain.
  size_t chain_length() const { return chain_.size(); }
  /// PageId of the i-th data page in chain order (i < chain_length()).
  PageId chain_page(size_t i) const { return chain_[i]; }
  /// Chain index of a page (NOK_CHECK-fails for pages outside the chain):
  /// the inverse of chain_page.
  uint64_t ChainSeq(PageId page) const;
  /// On-disk footprint (the |tree| column of Table 1).
  uint64_t SizeBytes() const { return pager_->SizeBytes(); }

  const StorePageHeader& header(PageId page) const;

  /// Navigation-level statistics (complementing BufferPool I/O counters).
  /// Counters are atomic so concurrent readers can bump them; nav_stats()
  /// returns a relaxed snapshot.
  struct NavStats {
    /// Logical page accesses: one per page a primitive call reads,
    /// whether a navigator's held view or the BufferPool serves it.
    /// Each is a pass over the page's symbols, so this is the unit of
    /// the paper's cost argument, `explain` pages and the planner's work
    /// gate; the pool's own fetch counter shows what reached it.
    uint64_t pages_scanned = 0;
    uint64_t pages_skipped = 0;   ///< Pages skipped via (st,lo,hi).
    /// Nothing writes this any more; kept because e2ebench/ reads it.
    uint64_t pages_skipped_by_tag = 0;
    /// Page accesses served without decoding the page: a navigator's
    /// held view, or a BufferPool frame's decoration (a subset of
    /// pages_scanned).
    uint64_t decode_cache_hits = 0;
    /// O(1) BP-index tree steps taken (every tree step in bp mode, and
    /// Dewey ID location in both modes; zero page traffic).
    uint64_t bp_steps = 0;
    /// 64-node tag blocks dismissed by the BP index's SWAR tag scan.
    uint64_t bp_tag_blocks_skipped = 0;
  };
  NavStats nav_stats() const {
    NavStats snap;
    snap.pages_scanned =
        nav_pages_scanned_.load(std::memory_order_relaxed);
    snap.pages_skipped =
        nav_pages_skipped_.load(std::memory_order_relaxed);
    snap.decode_cache_hits =
        nav_decode_cache_hits_.load(std::memory_order_relaxed);
    snap.bp_steps = nav_bp_steps_.load(std::memory_order_relaxed);
    snap.bp_tag_blocks_skipped =
        nav_bp_tag_blocks_.load(std::memory_order_relaxed);
    return snap;
  }
  void ResetNavStats() {
    nav_pages_scanned_.store(0, std::memory_order_relaxed);
    nav_pages_skipped_.store(0, std::memory_order_relaxed);
    nav_decode_cache_hits_.store(0, std::memory_order_relaxed);
    nav_bp_steps_.store(0, std::memory_order_relaxed);
    nav_bp_tag_blocks_.store(0, std::memory_order_relaxed);
  }

  /// BP-index navigation counters.  The index itself is immutable and
  /// counter-free; the cursor layer attributes its work here so a single
  /// NavStats snapshot covers all three navigation tiers.
  void BumpBpSteps(uint64_t n) {
    nav_bp_steps_.fetch_add(n, std::memory_order_relaxed);
  }
  void BumpBpTagBlocksSkipped(uint64_t n) {
    nav_bp_tag_blocks_.fetch_add(n, std::memory_order_relaxed);
  }

  BufferPool* buffer_pool() { return pool_.get(); }
  const Options& options() const { return options_; }

  /// Re-reads all page headers and rebuilds the chain map (used after
  /// updates restructure pages).
  Status ReloadHeaders();

  /// Structure generation: advances whenever a page is rewritten or the
  /// headers are reloaded, so a Navigator can tell its held view is
  /// stale.  Constant on a read-only store.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  friend class TreeUpdater;

  /// Decoded view of one page: per-symbol byte offsets, levels, tags.
  struct PageView {
    std::vector<uint16_t> byte_off;
    std::vector<int16_t> level;
    std::vector<TagId> tag;  ///< kInvalidTag for close symbols.
    size_t size() const { return byte_off.size(); }
  };

  explicit StringStore(Options options) : options_(options) {}

  Status Init(std::unique_ptr<File> file);

  /// One page access through the BufferPool: the page's decoded view,
  /// decoded on first use and cached as the frame's decoration.  Holds
  /// no pin once it returns.
  Result<std::shared_ptr<const PageView>> FetchView(PageId page);

  /// Decodes a page body (symbol offsets, levels from the header's st,
  /// tags).
  Result<std::shared_ptr<void>> DecodePage(PageId page,
                                           const char* data) const;

  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_release);
  }

  /// Rewrites the meta page from the in-memory counters (node count, free
  /// list head).
  Status WriteMetaPage();

  /// Rebuilds chain_/chain_seq_ from the in-memory headers (no I/O).
  Status RebuildChainFromHeaders();

  Options options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<StorePageHeader> headers_;   // Indexed by PageId.
  std::vector<PageId> chain_;              // Chain order.
  std::vector<uint64_t> chain_seq_;        // PageId -> chain index.
  PageId first_data_page_ = kInvalidPage;
  uint64_t node_count_ = 0;
  uint64_t epoch_ = 0;
  int max_level_ = 0;
  PageId free_list_head_ = kInvalidPage;   // Reusable pages after deletes.
  std::atomic<uint64_t> nav_pages_scanned_{0};
  std::atomic<uint64_t> nav_pages_skipped_{0};
  std::atomic<uint64_t> nav_decode_cache_hits_{0};
  std::atomic<uint64_t> nav_bp_steps_{0};
  std::atomic<uint64_t> nav_bp_tag_blocks_{0};
  std::atomic<uint64_t> generation_{0};
  bool meta_dirty_ = false;
};

/// Runs the primitive tree operations (Algorithm 2 of the paper) and
/// keeps the decoded view of the last page it read: a call that stays on
/// that page costs no BufferPool fetch.  It holds no pin, only a
/// shared_ptr to the view, so it can never exhaust a pool shard however
/// many navigators are alive.
///
/// Lifetime: a navigator belongs to one thread and must not outlive its
/// store.  It may be kept across updates: each page access compares the
/// store's generation() with the one its view was read at and drops a
/// stale view, so it never reads a page a TreeUpdater has rewritten
/// since.  Positions taken before an update are still the caller's to
/// revalidate.
///
/// Every page a call reads counts one NavStats::pages_scanned (and one
/// decode_cache_hit when the held view serves it), exactly as if each
/// call fetched its pages itself; pages_scanned() is this navigator's
/// own share of that count.
class StringStore::Navigator {
 public:
  explicit Navigator(StringStore* store) : store_(store) {}

  /// FIRST-CHILD: the next symbol if it is an open one level deeper.
  Result<std::optional<StorePos>> FirstChild(StorePos pos);

  /// FOLLOWING-SIBLING: the next open symbol at the same level before the
  /// parent closes.  Uses the (st,lo,hi) page skip when enabled.
  Result<std::optional<StorePos>> FollowingSibling(StorePos pos);

  /// Tag of the open symbol at pos (Corruption if pos is a close symbol).
  Result<TagId> TagAt(StorePos pos);

  /// Level of the symbol at pos.
  Result<int> LevelAt(StorePos pos);

  /// Global position of the close symbol matching the open symbol at pos.
  /// Together with GlobalPos(pos) this is the interval the paper feeds to
  /// structural joins (Section 5).
  Result<uint64_t> SubtreeEndGlobal(StorePos pos);

  /// Next open symbol in document order strictly after pos (any level);
  /// the sequential-scan starting-point strategy iterates this.
  Result<std::optional<StorePos>> NextOpen(StorePos pos);

  /// Fused NextOpen + TagAt: the next open symbol strictly after pos
  /// whose tag equals `tag` (one forward scan, no per-symbol calls).
  Result<std::optional<StorePos>> NextOpenWithTag(StorePos pos, TagId tag);

  /// NextOpenWithTag bounded by a subtree: the next open symbol strictly
  /// after pos whose tag equals `tag` (any tag when kInvalidTag), or
  /// nullopt once the scan reaches the close of the subtree whose root
  /// open sits at `root_level` (pos must lie inside that subtree).  The
  /// page holding that close is the last one read.
  Result<std::optional<StorePos>> NextOpenInSubtree(StorePos pos, TagId tag,
                                                    int root_level);

  /// Page accesses this navigator made (its share of pages_scanned).
  uint64_t pages_scanned() const { return pages_scanned_; }

 private:
  /// Verdict of the ScanForward predicate for one symbol.
  enum class ScanAction { kContinue, kFound, kStop };

  /// The decoded view of `page`: the held one when it is that page and
  /// still current, else one BufferPool access.
  Result<const PageView*> View(PageId page);

  /// Shared forward scan: starting strictly after pos, visits symbols in
  /// document order and asks pred(level, tag) about each; returns the
  /// kFound position, or nullopt on kStop / end of string.  When header
  /// skipping is enabled, pages whose lo exceeds skip_level are skipped
  /// without materializing (they cannot contain a symbol of interest).
  template <typename Pred>
  Result<std::optional<StorePos>> ScanForward(StorePos pos, int skip_level,
                                              Pred pred);

  StringStore* store_;
  PageId page_ = kInvalidPage;
  std::shared_ptr<const PageView> view_;
  uint64_t generation_ = 0;
  uint64_t pages_scanned_ = 0;
};

}  // namespace nok

#endif  // NOKXML_ENCODING_STRING_STORE_H_
