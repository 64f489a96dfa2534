#include "sgm/service/plan_cache.h"

#include <utility>

#include "sgm/core/aux_structure.h"

namespace sgm::service {

namespace {

void AppendNumber(std::string* out, uint64_t value) {
  char buffer[24];
  int length = 0;
  do {
    buffer[length++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (length > 0) out->push_back(buffer[--length]);
}

// One cache entry's allocation: the plan and its race record share it, so
// a request holding the plan also keeps the record alive after eviction.
struct PlanSlot {
  std::unique_ptr<const MatchPlan> plan;
  OrderRace race;
};

}  // namespace

PlanCache::PlanCache(const PlanCacheOptions& options) : options_(options) {}

std::string PlanCache::EncodeQuery(const Graph& query) {
  std::string key;
  key.reserve(8 * query.vertex_count() + 12 * query.edge_count() + 16);
  key.push_back('v');
  AppendNumber(&key, query.vertex_count());
  key.push_back('l');
  for (Vertex v = 0; v < query.vertex_count(); ++v) {
    AppendNumber(&key, query.label(v));
    key.push_back(',');
  }
  key.push_back('e');
  // Neighbor lists are sorted (a Graph invariant), so emitting each edge
  // from its smaller endpoint yields a deterministic encoding.
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (Vertex v : query.neighbors(u)) {
      if (v <= u) continue;
      AppendNumber(&key, u);
      key.push_back('-');
      AppendNumber(&key, v);
      key.push_back(',');
    }
  }
  return key;
}

std::string PlanCache::EncodeOptions(const MatchOptions& options) {
  std::string key;
  key += FilterMethodName(options.filter);
  key.push_back('/');
  key += OrderMethodName(options.order);
  key.push_back('/');
  key += LocalCandidateMethodName(options.lc_method);
  key.push_back('/');
  key += AuxEdgeScopeName(options.aux_scope);
  key.push_back('/');
  key += IntersectionMethodName(options.intersection);
  key.push_back('/');
  key.push_back(options.adaptive_order ? 'a' : '-');
  key.push_back(options.postpone_degree_one ? 'p' : '-');
  // The enumeration-only flags (failing sets, VF2++ lookahead) do not shape
  // the plan, but they ride in plan.options and ExecutePlan honors them, so
  // they are part of the key: one cached plan per enumeration behavior.
  key.push_back(options.use_failing_sets ? 'f' : '-');
  key.push_back(options.vf2pp_lookahead ? 'k' : '-');
  key.push_back('/');
  AppendNumber(&key, options.bitmap_max_candidates);
  key.push_back('/');
  AppendNumber(&key, options.filter_options.graphql_refinement_rounds);
  key.push_back(':');
  AppendNumber(&key, options.filter_options.graphql_profile_radius);
  key.push_back(':');
  AppendNumber(&key, options.filter_options.dpiso_refinement_rounds);
  return key;
}

std::shared_ptr<const MatchPlan> PlanCache::Lookup(const std::string& key,
                                                   OrderRace** race) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  if (race != nullptr) *race = it->second->race;
  return it->second->plan;
}

std::shared_ptr<const MatchPlan> PlanCache::Insert(
    const std::string& key, std::unique_ptr<MatchPlan> plan,
    OrderRace** race) {
  auto slot = std::make_shared<PlanSlot>();
  slot->plan = std::move(plan);
  std::shared_ptr<const MatchPlan> shared(slot, slot->plan.get());
  const size_t bytes = shared->MemoryBytes() + sizeof(OrderRace);
  if (race != nullptr) *race = nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Lost a build race: another thread cached this key while we were
    // building. Keep the incumbent (equivalent by construction) so every
    // concurrent caller converges on one shared plan.
    lru_.splice(lru_.begin(), lru_, it->second);
    if (race != nullptr) *race = it->second->race;
    return it->second->plan;
  }
  if (bytes > options_.memory_budget_bytes) {
    ++rejected_;
    return shared;  // usable by the caller, just not retained
  }
  lru_.push_front(Entry{key, shared, &slot->race, bytes});
  index_.emplace(key, lru_.begin());
  memory_bytes_ += bytes;
  if (race != nullptr) *race = &slot->race;
  EvictToFitLocked();
  return shared;
}

void PlanCache::PublishWinningOrder(const std::string& key, OrderRace* race,
                                    std::vector<Vertex> order) {
  std::lock_guard<std::mutex> lock(mutex_);
  race->winning_order = std::move(order);
  auto it = index_.find(key);
  if (it != index_.end() && it->second->race == race) {
    const size_t bytes = race->winning_order.capacity() * sizeof(Vertex);
    it->second->bytes += bytes;
    memory_bytes_ += bytes;
    EvictToFitLocked();
  }
  race->state.store(OrderRace::kWon, std::memory_order_release);
}

void PlanCache::EvictToFitLocked() {
  while (memory_bytes_ > options_.memory_budget_bytes && !lru_.empty()) {
    Entry& victim = lru_.back();
    memory_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  memory_bytes_ = 0;
}

PlanCacheStats PlanCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.rejected = rejected_;
  stats.entries = lru_.size();
  stats.memory_bytes = memory_bytes_;
  return stats;
}

}  // namespace sgm::service
