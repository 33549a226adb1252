#include "storage/page_versions.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nok {

// --- PageVersionStore -----------------------------------------------------

void PageVersionStore::Retain(uint64_t offset, std::string preimage,
                              uint64_t valid_through) {
  if (preimage.empty()) return;
  MutexLock lock(&mu_);
  bytes_ += preimage.size();
  auto& chain = by_offset_[offset];
  // Retentions arrive in commit order, so chains stay sorted by
  // valid_through; a same-epoch duplicate (same range dirtied twice in
  // one commit apply) keeps the first pre-image — the later one already
  // reflects this commit's partial writes.
  if (!chain.empty() && chain.back().valid_through == valid_through &&
      chain.back().data.size() >= preimage.size()) {
    bytes_ -= preimage.size();
    return;
  }
  chain.push_back(Version{valid_through, std::move(preimage)});
}

bool PageVersionStore::OverlayForEpoch(uint64_t epoch, uint64_t offset,
                                       char* dst, size_t n) const {
  if (n == 0) return false;
  const uint64_t end = offset + n;
  MutexLock lock(&mu_);
  // Collect every version intersecting [offset, end) that is visible at
  // `epoch`, then apply in descending valid_through order so that, per
  // byte, the *oldest still-visible* version (smallest valid_through >=
  // epoch — the content as of `epoch`) lands last and wins.
  struct Hit {
    uint64_t valid_through;
    uint64_t offset;
    const std::string* data;
  };
  std::vector<Hit> hits;
  for (const auto& [ver_offset, chain] : by_offset_) {
    if (ver_offset >= end) break;
    for (const Version& v : chain) {
      if (v.valid_through < epoch) continue;
      if (ver_offset + v.data.size() <= offset) continue;
      hits.push_back(Hit{v.valid_through, ver_offset, &v.data});
    }
  }
  if (hits.empty()) return false;
  std::stable_sort(hits.begin(), hits.end(),
                   [](const Hit& a, const Hit& b) {
                     return a.valid_through > b.valid_through;
                   });
  for (const Hit& h : hits) {
    const uint64_t copy_start = std::max(offset, h.offset);
    const uint64_t copy_end =
        std::min(end, h.offset + h.data->size());
    std::memcpy(dst + (copy_start - offset),
                h.data->data() + (copy_start - h.offset),
                copy_end - copy_start);
  }
  return true;
}

void PageVersionStore::ReclaimBelow(uint64_t min_epoch) {
  MutexLock lock(&mu_);
  for (auto it = by_offset_.begin(); it != by_offset_.end();) {
    auto& chain = it->second;
    auto keep = chain.begin();
    while (keep != chain.end() && keep->valid_through < min_epoch) {
      bytes_ -= keep->data.size();
      ++keep;
    }
    chain.erase(chain.begin(), keep);
    if (chain.empty()) {
      it = by_offset_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t PageVersionStore::entry_count() const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  for (const auto& [offset, chain] : by_offset_) count += chain.size();
  return count;
}

uint64_t PageVersionStore::byte_count() const {
  MutexLock lock(&mu_);
  return bytes_;
}

// --- SnapshotTracker ------------------------------------------------------

void SnapshotTracker::Track(std::shared_ptr<PageVersionStore> store) {
  MutexLock lock(&mu_);
  stores_.push_back(std::move(store));
}

void SnapshotTracker::Register(uint64_t epoch) {
  MutexLock lock(&mu_);
  latest_epoch_ = std::max(latest_epoch_, epoch);
  ++active_[epoch];
}

void SnapshotTracker::Release(uint64_t epoch) {
  MutexLock lock(&mu_);
  auto it = active_.find(epoch);
  if (it == active_.end()) return;
  if (--it->second == 0) active_.erase(it);
  ReclaimLocked();
}

void SnapshotTracker::AdvanceEpoch(uint64_t epoch) {
  MutexLock lock(&mu_);
  latest_epoch_ = std::max(latest_epoch_, epoch);
  ReclaimLocked();
}

uint64_t SnapshotTracker::MinActiveEpoch(uint64_t fallback) const {
  MutexLock lock(&mu_);
  return active_.empty() ? fallback : active_.begin()->first;
}

void SnapshotTracker::ReclaimLocked() {
  const uint64_t min_epoch =
      active_.empty() ? latest_epoch_ : active_.begin()->first;
  for (const auto& store : stores_) {
    store->ReclaimBelow(min_epoch);
  }
}

uint64_t SnapshotTracker::retained_entries() const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  for (const auto& store : stores_) count += store->entry_count();
  return count;
}

uint64_t SnapshotTracker::retained_bytes() const {
  MutexLock lock(&mu_);
  uint64_t count = 0;
  for (const auto& store : stores_) count += store->byte_count();
  return count;
}

// --- SnapshotFile ---------------------------------------------------------

SnapshotFile::SnapshotFile(std::unique_ptr<File> base,
                           std::shared_ptr<PageVersionStore> versions,
                           uint64_t epoch)
    : base_(std::move(base)),
      versions_(std::move(versions)),
      epoch_(epoch),
      size_at_snapshot_(base_->Size()) {}

Status SnapshotFile::ReadAt(uint64_t offset, size_t n, char* scratch,
                            Slice* out) const {
  if (n == 0) {
    *out = Slice(scratch, 0);
    return Status::OK();
  }
  if (offset + n > size_at_snapshot_) {
    return Status::IOError("short read (snapshot)");
  }
  const uint64_t end = offset + n;
  std::memset(scratch, 0, n);
  // 1. Best-effort base read.  The writer may truncate the base under us
  //    (a legacy-index rewrite); every byte the snapshot still needs beyond
  //    the new size was retained as a pre-image, so a shrink mid-read is
  //    retried shorter and the zeros are patched by the overlay below.
  uint64_t avail_end = std::min<uint64_t>(end, base_->Size());
  while (avail_end > offset) {
    Slice got;
    Status s =
        base_->ReadAt(offset, avail_end - offset, scratch, &got);
    if (s.ok()) {
      if (got.data() != scratch) {
        std::memcpy(scratch, got.data(), got.size());
      }
      break;
    }
    const uint64_t now = std::min<uint64_t>(end, base_->Size());
    if (now >= avail_end) return s;  // a real I/O error, not a shrink
    avail_end = now;
  }
  // 2. Overlay retained pre-images visible at this snapshot's epoch.
  //    The writer retains before writing base bytes, so any range we may
  //    have seen mid-overwrite has a version here that corrects it.
  if (versions_ != nullptr) {
    versions_->OverlayForEpoch(epoch_, offset, scratch, n);
  }
  *out = Slice(scratch, n);
  return Status::OK();
}

Status SnapshotFile::WriteAt(uint64_t, const Slice&) {
  return Status::InvalidArgument("snapshot file is read-only");
}

Status SnapshotFile::Append(const Slice&, uint64_t*) {
  return Status::InvalidArgument("snapshot file is read-only");
}

Status SnapshotFile::Truncate(uint64_t) {
  return Status::InvalidArgument("snapshot file is read-only");
}

}  // namespace nok
