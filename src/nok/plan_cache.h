// Bounded LRU cache of query plans.
//
// Keyed by the canonical pattern string plus every plan-affecting knob
// plus the store generation (epoch + structure version), so a cached
// plan is only replayed against the exact document state it was planned
// for — the updater bumps the structure version on every structural
// edit, which invalidates all earlier entries without any explicit
// flush.
//
// A cache lives inside one QueryEngine (a cheap per-thread object), so
// no locking is needed; bounding it keeps long-lived engines running
// ad-hoc workloads at O(capacity) memory.

#ifndef NOKXML_NOK_PLAN_CACHE_H_
#define NOKXML_NOK_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "nok/planner.h"

namespace nok {

class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// The cached plan for `key` (moved to most-recently-used), or null.
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key);

  /// Inserts (or refreshes) a plan, evicting the least recently used
  /// entry when full.
  void Insert(const std::string& key,
              std::shared_ptr<const QueryPlan> plan);

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

  /// Cache key for one (pattern, options, store state) combination.
  /// `nav_mode` is part of the key: a plan records the navigation tier
  /// it was built for, so stores opened in different modes never share
  /// entries.
  static std::string Key(const std::string& canonical_pattern,
                         const QueryOptions& options, uint64_t epoch,
                         uint64_t structure_version,
                         NavMode nav_mode = NavMode::kPaged);

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const QueryPlan>>;

  size_t capacity_;
  std::list<Entry> entries_;  ///< Most recently used at the front.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

/// Thread-safe plan cache shared by reader threads in the single-writer /
/// multi-reader mode (encoding/swmr_store.h): one mutex around a
/// PlanCache.  Cross-thread invalidation needs no broadcast — the key
/// carries the epoch and structure version of the snapshot the plan was
/// built against, so a commit simply changes every reader's keys and the
/// old generation's entries age out of the LRU.
class SharedPlanCache {
 public:
  explicit SharedPlanCache(size_t capacity = PlanCache::kDefaultCapacity)
      : cache_(capacity) {}

  std::shared_ptr<const QueryPlan> Lookup(const std::string& key)
      EXCLUDES(mu_);
  void Insert(const std::string& key,
              std::shared_ptr<const QueryPlan> plan) EXCLUDES(mu_);
  PlanCache::Stats stats() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  PlanCache cache_ GUARDED_BY(mu_);
};

}  // namespace nok

#endif  // NOKXML_NOK_PLAN_CACHE_H_
