#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace nok {

BufferPool::BufferPool(Pager* pager, size_t capacity, size_t shards,
                       PageCheck check)
    : pager_(pager), check_(std::move(check)), capacity_(capacity) {
  NOK_CHECK(capacity_ >= 1);
  const size_t count = std::max<size_t>(1, std::min(shards, capacity));
  shard_capacity_ = std::max<size_t>(1, capacity / count);
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    NOK_LOG(Error) << "BufferPool flush on destruction failed: "
                   << s.ToString();
  }
}

BufferPool::Shard& BufferPool::ShardFor(PageId id) {
  // Fibonacci hashing: consecutive page ids (the common access pattern
  // for sequential scans) spread evenly instead of striping one shard.
  const uint64_t mixed =
      static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ull;
  return *shards_[(mixed >> 32) % shards_.size()];
}

void BufferPool::LruUnlink(Shard& shard, Frame* frame) {
  if (frame->lru_prev != nullptr) {
    frame->lru_prev->lru_next = frame->lru_next;
  } else {
    shard.lru_head = frame->lru_next;
  }
  if (frame->lru_next != nullptr) {
    frame->lru_next->lru_prev = frame->lru_prev;
  } else {
    shard.lru_tail = frame->lru_prev;
  }
  frame->lru_prev = frame->lru_next = nullptr;
}

void BufferPool::LruPushFront(Shard& shard, Frame* frame) {
  frame->lru_prev = nullptr;
  frame->lru_next = shard.lru_head;
  if (shard.lru_head != nullptr) {
    shard.lru_head->lru_prev = frame;
  } else {
    shard.lru_tail = frame;
  }
  shard.lru_head = frame;
}

Result<BufferPool::Frame*> BufferPool::LoadLocked(Shard& shard, PageId id) {
  ++shard.stats.misses;
  if (shard.frames.size() >= shard_capacity_) {
    NOK_RETURN_IF_ERROR(EvictOneLocked(shard));
  }

  // The shard lock is held across the disk read.  Readers of *other*
  // shards proceed in parallel; two readers missing on the same shard
  // serialize, which also guarantees a page is read from disk once, not
  // once per concurrent requester.
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  frame->home = &shard;
  frame->data = std::make_unique<char[]>(pager_->page_size());
  NOK_RETURN_IF_ERROR(pager_->ReadPage(id, frame->data.get()));
  ++shard.stats.disk_reads;
  if (check_) NOK_RETURN_IF_ERROR(check_(id, frame->data.get()));
  Frame* raw = frame.get();
  shard.frames.emplace(id, std::move(frame));
  return raw;
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  ++shard.stats.fetches;
  Frame* frame = nullptr;
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    ++shard.stats.hits;
    frame = it->second.get();
    if (frame->pin_count == 0) LruUnlink(shard, frame);
  } else {
    NOK_ASSIGN_OR_RETURN(frame, LoadLocked(shard, id));
  }
  ++frame->pin_count;
  return PageHandle(this, frame);
}

Result<std::shared_ptr<void>> BufferPool::FetchDecoration(
    PageId id, const Decoder& decode) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  ++shard.stats.fetches;
  Frame* frame = nullptr;
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    ++shard.stats.hits;
    frame = it->second.get();
    // A pinned frame stays out of the list until its last unpin, which
    // makes it most recently used anyway.
    if (frame->pin_count == 0 && shard.lru_head != frame) {
      LruUnlink(shard, frame);
      LruPushFront(shard, frame);
    }
  } else {
    NOK_ASSIGN_OR_RETURN(frame, LoadLocked(shard, id));
    LruPushFront(shard, frame);
  }
  if (frame->decoration == nullptr) {
    NOK_ASSIGN_OR_RETURN(frame->decoration, decode(frame->data.get()));
  }
  return frame->decoration;
}

void BufferPool::Unpin(Frame* frame) {
  Shard& shard = *frame->home;
  MutexLock lock(&shard.mu);
  NOK_CHECK(frame->pin_count > 0);
  if (--frame->pin_count == 0) LruPushFront(shard, frame);
}

void BufferPool::SetDecoration(Frame* frame, std::shared_ptr<void> d) {
  MutexLock lock(&frame->home->mu);
  frame->decoration = std::move(d);
}

Status BufferPool::EvictOneLocked(Shard& shard) {
  Frame* victim = shard.lru_tail;
  if (victim == nullptr) {
    return Status::Internal(
        "buffer pool capacity exhausted: all " +
        std::to_string(shard_capacity_) +
        " frames of the shard are pinned");
  }
  // Write back before unlinking: if the write fails the frame stays dirty
  // and in the LRU list, the pool stays consistent, and the caller sees
  // the error.
  if (victim->dirty.load(std::memory_order_acquire)) {
    NOK_RETURN_IF_ERROR(pager_->WritePage(victim->id, victim->data.get()));
    ++shard.stats.disk_writes;
    victim->dirty.store(false, std::memory_order_release);
  }
  LruUnlink(shard, victim);
  ++shard.stats.evictions;
  shard.frames.erase(victim->id);
  return Status::OK();
}

Status BufferPool::FlushShardLocked(Shard& shard) {
  for (auto& [id, frame] : shard.frames) {
    if (frame->dirty.load(std::memory_order_acquire)) {
      NOK_RETURN_IF_ERROR(pager_->WritePage(id, frame->data.get()));
      ++shard.stats.disk_writes;
      frame->dirty.store(false, std::memory_order_release);
    }
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    NOK_RETURN_IF_ERROR(FlushShardLocked(*shard));
  }
  return Status::OK();
}

Status BufferPool::DropAll() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    NOK_RETURN_IF_ERROR(FlushShardLocked(*shard));
    while (shard->lru_tail != nullptr) {
      Frame* victim = shard->lru_tail;
      LruUnlink(*shard, victim);
      shard->frames.erase(victim->id);
    }
  }
  return Status::OK();
}

BufferPool::Stats BufferPool::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total.fetches += shard->stats.fetches;
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.disk_reads += shard->stats.disk_reads;
    total.disk_writes += shard->stats.disk_writes;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->stats = Stats{};
  }
}

void PageHandle::set_decoration(std::shared_ptr<void> d) {
  pool_->SetDecoration(frame_, std::move(d));
}

}  // namespace nok
