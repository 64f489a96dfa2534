// Plan cache for the serving layer: retains built MatchPlan objects
// (candidate sets, auxiliary structures with bitmap sidecars, matching
// orders, adaptive weights) keyed on the exact query graph plus the
// structural match options, so a repeated query skips the preprocessing
// phases entirely and replays only the enumeration.
//
// Keys are exact byte encodings, not isomorphism-canonical forms: a plan's
// matching order and candidate sets are expressed in the query's own vertex
// numbering, so two isomorphic but differently numbered queries must NOT
// share a plan — the embeddings they return map different vertex ids.
// Equality is checked on the full key string (the map key), so a hash
// collision can never surface a wrong plan.
//
// Eviction is LRU under a caller-configured memory budget, accounted with
// MatchPlan::MemoryBytes() plus the entry's OrderRace record. All
// operations are thread-safe; returned plans are shared_ptr<const
// MatchPlan>, so an evicted plan stays alive for requests still executing
// it.
#ifndef SGM_SERVICE_PLAN_CACHE_H_
#define SGM_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sgm/plan.h"

namespace sgm::service {

/// Configuration of a PlanCache.
struct PlanCacheOptions {
  /// Memory budget in bytes, accounted with MatchPlan::MemoryBytes().
  /// Plans are evicted least-recently-used until the cache fits. A single
  /// plan larger than the whole budget is never retained (the build still
  /// succeeds; the plan just is not cached). 0 disables caching entirely.
  size_t memory_budget_bytes = 256ull << 20;  // 256 MiB
};

/// Point-in-time counters of a PlanCache, surfaced through
/// MatchService::Stats() and the service section of obs::RunReport.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Inserts dropped because the plan alone exceeds the budget.
  uint64_t rejected = 0;
  size_t entries = 0;
  size_t memory_bytes = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// The order race of one cache entry, kept beside its immutable plan
/// (DESIGN.md §11). MatchService races RI's matching order once against
/// the plan's built order when the entry's enumeration is slow, and every
/// later hit runs the winner.
struct OrderRace {
  enum State : uint8_t {
    kUnraced = 0,
    /// Claimed by one request (one compare-exchange from kUnraced).
    kRacing = 1,
    /// The built order stays: the challenger lost or equalled it.
    kKept = 2,
    /// `winning_order` holds the challenger; published with a release
    /// store of this state, so read it only after an acquire load.
    kWon = 3,
  };
  /// Enumeration time of the plan's built order, written by the miss that
  /// built the plan. 0 until then.
  std::atomic<double> incumbent_ms{0.0};
  std::atomic<uint8_t> state{kUnraced};
  /// Written once, by PlanCache::PublishWinningOrder.
  std::vector<Vertex> winning_order;
};

/// Thread-safe LRU cache of built MatchPlans under a memory budget.
class PlanCache {
 public:
  explicit PlanCache(const PlanCacheOptions& options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Deterministic byte encoding of a query graph (labels + sorted edge
  /// list). Two graphs encode equally iff they are identical vertex-by-
  /// vertex — deliberately not isomorphism-canonical (see file comment).
  static std::string EncodeQuery(const Graph& query);

  /// Fingerprint of every option that shapes a built plan: filter, order,
  /// local-candidate method, aux scope, intersection method, adaptive
  /// ordering, degree-one postponement, bitmap threshold and the filter
  /// tuning knobs. Per-run knobs (max_matches, time limit, collector,
  /// cancel flag, lc cache) are excluded: one plan serves them all.
  static std::string EncodeOptions(const MatchOptions& options);

  /// The full cache key of a (query, options) pair against one version of
  /// the data graph. `graph_epoch` is the DynamicGraph epoch the plan was
  /// built against: a plan depends on data-graph statistics (candidate
  /// sets, ordering costs), so keys from different epochs must never
  /// collide — after an update, old-epoch plans simply age out of the LRU.
  /// Services with an immutable graph pass the default 0.
  static std::string MakeKey(const Graph& query, const MatchOptions& options,
                             uint64_t graph_epoch = 0) {
    return EncodeQuery(query) + '|' + EncodeOptions(options) + "|g" +
           std::to_string(graph_epoch);
  }

  /// Returns the cached plan and promotes it to most-recently-used, or null
  /// on a miss. Counts a hit or a miss. On a hit, a non-null `race`
  /// receives the entry's race record, which lives as long as the returned
  /// plan pointer (they share one allocation).
  std::shared_ptr<const MatchPlan> Lookup(const std::string& key,
                                          OrderRace** race = nullptr);

  /// Inserts a freshly built plan and returns it as a shared pointer. If
  /// another thread inserted the same key first, the incumbent wins and is
  /// returned (both plans are equivalent by construction). Evicts LRU
  /// entries as needed; a plan bigger than the whole budget is returned
  /// uncached. Does not count a hit or a miss. A non-null `race` receives
  /// the returned entry's race record, as Lookup, or null when the plan
  /// was not retained.
  std::shared_ptr<const MatchPlan> Insert(const std::string& key,
                                          std::unique_ptr<MatchPlan> plan,
                                          OrderRace** race = nullptr);

  /// Stores `order` as the winning order of `race` (the record of the
  /// entry under `key`), publishes it with OrderRace::kWon and charges its
  /// bytes to that entry while the entry is still cached. Called once per
  /// record, by the request that claimed its race.
  void PublishWinningOrder(const std::string& key, OrderRace* race,
                           std::vector<Vertex> order);

  /// Drops every entry (in-flight executions keep their shared_ptrs alive).
  void Clear();

  PlanCacheStats Stats() const;

  size_t memory_budget_bytes() const { return options_.memory_budget_bytes; }

 private:
  struct Entry {
    std::string key;
    /// Aliases the allocation that also holds *race.
    std::shared_ptr<const MatchPlan> plan;
    OrderRace* race = nullptr;
    size_t bytes = 0;
  };

  /// Evicts LRU entries until memory_bytes_ fits the budget. Caller holds
  /// mutex_.
  void EvictToFitLocked();

  const PlanCacheOptions options_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t memory_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace sgm::service

#endif  // SGM_SERVICE_PLAN_CACHE_H_
