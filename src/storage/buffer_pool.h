// Buffer pool: a sharded LRU cache of pages with pin/unpin semantics.
//
// All page access in the query path goes through a pool so that the
// experiments can count real page fetches (disk reads) — the quantity
// Proposition 1 of the paper bounds, and the quantity the (st,lo,hi)
// header-skip optimization of Section 5 reduces.
//
// Frames can carry a "decoration": an arbitrary object derived from the
// page contents (the string store caches decoded symbol/level arrays this
// way).  The frame keeps its decoration exactly as long as it holds that
// page; FetchDecoration hands out a shared_ptr, so a reader's copy stays
// valid after the frame is recycled.
//
// The LRU list is intrusive (links in Frame), so a hit or an unpin never
// allocates.
//
// Thread safety: the pool is internally sharded by page id.  Each shard
// owns its own mutex, frame map, LRU list, and Stats, so concurrent
// Fetch/Release traffic on different shards never contends.  Concurrent
// readers are safe as long as the underlying Pager supports concurrent
// ReadPage calls (positional reads; see pager.h).  Concurrent *writers*
// (MarkDirty + eviction write-back) are not coordinated beyond the shard
// lock — the write path remains single-threaded by convention, which the
// read-only open mode of the stores enforces.

#ifndef NOKXML_STORAGE_BUFFER_POOL_H_
#define NOKXML_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"

namespace nok {

class PageHandle;

/// Sharded LRU page cache over one Pager.  Safe for concurrent readers;
/// see the file comment for the exact contract.
class BufferPool {
 public:
  /// I/O counters since construction or the last ResetStats().
  /// Invariant: fetches == hits + misses, and every miss that reaches the
  /// pager successfully becomes exactly one disk_read.
  struct Stats {
    uint64_t fetches = 0;     ///< Fetch() calls (lookups).
    uint64_t hits = 0;        ///< Fetches served from memory.
    uint64_t misses = 0;      ///< Fetches that had to go to the pager.
    uint64_t disk_reads = 0;  ///< Pages read from the pager.
    uint64_t disk_writes = 0; ///< Dirty pages written back.
    uint64_t evictions = 0;   ///< Frames recycled.
  };

  /// Checks a page's bytes as they are read from disk.
  using PageCheck = std::function<Status(PageId, const char* page)>;

  /// pager must outlive the pool; capacity is the total frame count
  /// (>= 1).  shards is the number of independent LRU domains; it is
  /// clamped to [1, capacity] and each shard gets capacity/shards frames
  /// (at least one).  The default of one shard preserves a single global
  /// LRU order, which single-threaded callers and tests rely on.  When
  /// `check` is set, every page read from disk must pass it before it
  /// enters the pool: a failing page is never cached, and the fetch
  /// returns the check's error.
  BufferPool(Pager* pager, size_t capacity, size_t shards = 1,
             PageCheck check = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned handle to page id, reading it from disk on a miss.
  /// Fails if every frame in the page's shard is pinned (capacity
  /// exhausted by live handles).
  Result<PageHandle> Fetch(PageId id);

  /// Builds a page's decoration from its bytes.
  using Decoder =
      std::function<Result<std::shared_ptr<void>>(const char* page)>;

  /// Decoration of page id, read from disk on a miss and built by
  /// `decode` (under the shard lock) when the frame has none yet.  One
  /// shard-lock round trip and no pin (a hit only refreshes the frame's
  /// LRU position), so readers of decorations can never exhaust a shard.
  /// Counts as one fetch in Stats.
  Result<std::shared_ptr<void>> FetchDecoration(PageId id,
                                                const Decoder& decode);

  /// Writes back all dirty frames (pinned or not).
  Status FlushAll();

  /// Drops every unpinned frame (after writing back dirty ones).  Used by
  /// benchmarks to start measurements cold.
  Status DropAll();

  /// Aggregated counters across all shards, taken shard by shard (the
  /// result is a consistent sum of per-shard snapshots, not a single
  /// global instant).
  Stats stats() const;
  void ResetStats();

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  Pager* pager() const { return pager_; }

 private:
  friend class PageHandle;

  struct Shard;

  // Frames are reached through Shard::frames and mutated only with
  // home->mu held (except the atomic dirty flag and the immutable
  // id/data/home set before publication).  The members are not
  // GUARDED_BY-annotated because the guarding mutex is named through
  // the aliasing home pointer, which the analysis cannot relate to a
  // specific Shard instance — the same trade LevelDB makes for
  // LRUHandle.  The shard-level annotations below still cover every
  // path that can reach a Frame.
  struct Frame {
    PageId id = kInvalidPage;
    std::unique_ptr<char[]> data;
    Shard* home = nullptr;
    int pin_count = 0;
    // Written by MarkDirty() without the shard lock; read under it.
    std::atomic<bool> dirty{false};
    std::shared_ptr<void> decoration;
    // Links in the shard's LRU list, which holds exactly the frames
    // with pin_count == 0.
    Frame* lru_prev = nullptr;
    Frame* lru_next = nullptr;
  };

  struct Shard {
    mutable Mutex mu;
    Stats stats GUARDED_BY(mu);
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames
        GUARDED_BY(mu);
    // Intrusive list of the unpinned frames: head = most recently used,
    // tail = eviction victim.
    Frame* lru_head GUARDED_BY(mu) = nullptr;
    Frame* lru_tail GUARDED_BY(mu) = nullptr;
  };

  Shard& ShardFor(PageId id);
  static void LruUnlink(Shard& shard, Frame* frame) REQUIRES(shard.mu);
  static void LruPushFront(Shard& shard, Frame* frame) REQUIRES(shard.mu);
  /// Miss path: reads page id into a fresh frame, evicting first when the
  /// shard is full.  The caller pins the frame or lists it in the LRU.
  Result<Frame*> LoadLocked(Shard& shard, PageId id) REQUIRES(shard.mu);
  Status EvictOneLocked(Shard& shard) REQUIRES(shard.mu);
  Status FlushShardLocked(Shard& shard) REQUIRES(shard.mu);
  void Unpin(Frame* frame);
  void SetDecoration(Frame* frame, std::shared_ptr<void> d);

  Pager* pager_;
  PageCheck check_;
  size_t capacity_;
  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII pin on a buffer-pool frame.  Movable, not copyable.  A handle is
/// owned by one thread; distinct threads holding handles to the same page
/// is fine (the frame stays pinned until the last one releases).
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    return *this;
  }
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  bool valid() const { return frame_ != nullptr; }
  PageId id() const { return frame_->id; }
  const char* data() const { return frame_->data.get(); }

  /// Mutable access; the caller must also MarkDirty() for persistence.
  /// Write path only — never call on a store opened read-only.
  char* mutable_data() { return frame_->data.get(); }
  void MarkDirty() { frame_->dirty.store(true, std::memory_order_release); }

  /// Replaces the page-derived cache object (see FetchDecoration); a
  /// writer that changes the page resets it to nullptr.
  void set_decoration(std::shared_ptr<void> d);

  /// Drops the pin early (also done by the destructor).
  void Release() {
    if (frame_ != nullptr) {
      pool_->Unpin(frame_);
      frame_ = nullptr;
      pool_ = nullptr;
    }
  }

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, BufferPool::Frame* frame)
      : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  BufferPool::Frame* frame_ = nullptr;
};

}  // namespace nok

#endif  // NOKXML_STORAGE_BUFFER_POOL_H_
