#include "nok/plan_cache.h"

namespace nok {

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  return entries_.front().second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const QueryPlan> plan) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(plan);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  if (capacity_ == 0) return;
  if (entries_.size() >= capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++stats_.evictions;
  }
  entries_.emplace_front(key, std::move(plan));
  index_[key] = entries_.begin();
  ++stats_.insertions;
}

std::string PlanCache::Key(const std::string& canonical_pattern,
                           const QueryOptions& options, uint64_t epoch,
                           uint64_t structure_version, NavMode nav_mode) {
  std::string key = canonical_pattern;
  key += "|s=";
  key += StrategyName(options.strategy);
  key += "|j=";
  key += options.join_mode == JoinMode::kDewey ? "d" : "i";
  key += "|o=";
  key += options.cost_based_join_order ? "1" : "0";
  key += "|y=";  // Planner mode: synopsis estimates on/off.
  key += options.use_synopsis ? "1" : "0";
  key += "|n=";
  key += NavModeName(nav_mode);
  key += "|e=" + std::to_string(epoch);
  key += "|v=" + std::to_string(structure_version);
  return key;
}

std::shared_ptr<const QueryPlan> SharedPlanCache::Lookup(
    const std::string& key) {
  MutexLock lock(&mu_);
  return cache_.Lookup(key);
}

void SharedPlanCache::Insert(const std::string& key,
                             std::shared_ptr<const QueryPlan> plan) {
  MutexLock lock(&mu_);
  cache_.Insert(key, std::move(plan));
}

PlanCache::Stats SharedPlanCache::stats() const {
  MutexLock lock(&mu_);
  return cache_.stats();
}

}  // namespace nok
