// Reusable query plans: the preprocessing product of one (query, data,
// options) triple, split off from the per-run enumeration so it can be
// built once and executed many times.
//
// MatchQuery = BuildMatchPlan + ExecutePlan. The split exists for the
// serving workload (service/service.h): on a data graph that answers many
// queries, the filtering, auxiliary-structure and ordering phases — the
// dominant cost on small-to-medium queries — repeat verbatim whenever the
// same query text comes back, so the service's plan cache retains MatchPlan
// objects and replays only the enumeration. The parallel matcher reuses the
// same build path (one preprocessing implementation instead of two).
//
// A built plan is immutable and thread-compatible: concurrent ExecutePlan
// calls on one plan are safe because enumeration only reads it.
#ifndef SGM_PLAN_H_
#define SGM_PLAN_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sgm/core/order/dpiso_order.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/matcher.h"
#include "sgm/shard/sharded_graph.h"

namespace sgm {

/// Everything the enumeration phase needs, prebuilt: candidate sets, the
/// auxiliary candidate-edge index (with bitmap sidecars when the options
/// request them), the matching order, and DP-iso's adaptive weights.
/// Produced by BuildMatchPlan; executed (any number of times, concurrently)
/// by ExecutePlan.
struct MatchPlan {
  MatchPlan() = default;
  /// Not copyable or movable: `aux` holds a pointer to `candidates`, so the
  /// object must stay at one address for its whole life. BuildMatchPlan
  /// returns plans behind unique_ptr for this reason.
  MatchPlan(const MatchPlan&) = delete;
  MatchPlan& operator=(const MatchPlan&) = delete;

  /// The options the plan was built for. Structural fields (filter, order,
  /// lc_method, aux_scope, intersection, adaptive_order, ...) are baked
  /// into the plan; execution knobs (max_matches, time_limit_ms, collector,
  /// cancel_flag) may differ per ExecutePlan call.
  MatchOptions options;

  CandidateSets candidates;
  std::optional<BfsTree> bfs_tree;
  AuxStructure aux;
  /// True when aux was built (options.aux_scope != kNone).
  bool has_aux = false;
  std::vector<Vertex> matching_order;
  /// Valid iff options.adaptive_order.
  DpisoWeights weights;
  /// Some query vertex has an empty candidate set: zero matches, and
  /// aux/order/weights were never built.
  bool empty_candidates = false;

  // ---- Build metrics (the "preprocessing" phases of the paper). ----
  double filter_ms = 0.0;
  double aux_build_ms = 0.0;
  double order_ms = 0.0;
  double average_candidates = 0.0;
  size_t candidate_memory_bytes = 0;
  size_t aux_memory_bytes = 0;
  std::vector<FilterRound> filter_rounds;

  /// Build time of the whole plan (what a plan-cache hit saves).
  double build_ms() const { return filter_ms + aux_build_ms + order_ms; }

  /// Approximate heap footprint of the retained structures — what a plan
  /// cache accounts against its memory budget.
  size_t MemoryBytes() const;
};

/// Runs the preprocessing phases (filtering, auxiliary structure, ordering,
/// adaptive weights) and returns the reusable plan. The query must be
/// connected, with 1 <= |V(q)| <= 64. Honors options.collector for phase
/// trace spans, exactly like MatchQuery.
std::unique_ptr<MatchPlan> BuildMatchPlan(const Graph& query,
                                          const Graph& data,
                                          const MatchOptions& options);

/// True when ExecutePlan may run `plan` under any connected matching order
/// of its query, not only plan.matching_order. Two kinds of plan are tied
/// to their built order: adaptive-order plans, whose DP-iso weights were
/// computed for it, and kPivotIndex plans over a tree-edge aux, where
/// another order can leave a vertex without an indexed backward edge (the
/// enumerator rejects that).
bool PlanAcceptsAnyOrder(const MatchPlan& plan);

/// Runs the enumeration phase of a prebuilt plan. `query` and `data` must
/// be the graphs the plan was built from; `run_options` must agree with
/// plan.options on the structural fields and supplies the per-run knobs
/// (max_matches, time_limit_ms, collector, cancel_flag, use_lc_cache).
///
/// With `include_build_metrics` (the default) the returned MatchResult
/// carries the plan's preprocessing times, so MatchQuery semantics are
/// preserved; a plan-cache hit passes false and reports zero preprocessing
/// time — the run did none.
///
/// `order` is this run's matching order; empty means plan.matching_order.
/// A non-empty order must be a connected matching order of `query`, and the
/// plan must pass PlanAcceptsAnyOrder. The plan itself is never modified:
/// the order drives the enumeration and is reported in
/// MatchResult::matching_order. Counts do not depend on the order, but
/// under max_matches the delivered embeddings may.
MatchResult ExecutePlan(const Graph& query, const Graph& data,
                        const MatchPlan& plan, const MatchOptions& run_options,
                        const MatchCallback& callback = {},
                        bool include_build_metrics = true,
                        std::span<const Vertex> order = {});

// ---------------------------------------------------------------------------
// Sharded execution (DESIGN.md §13): the data graph is split into K vertex
// shards, each the subgraph induced on the vertices it owns
// (shard/sharded_graph.h). One unmodified pipeline pass per shard finds the
// embeddings that lie entirely inside that shard, and one boundary pass over
// the cut region picks up exactly the embeddings spanning two or more
// shards. The union equals the monolithic result bit for bit — counts,
// limit status, and the embedding set — which the differential fuzz oracle
// checks continuously.
// ---------------------------------------------------------------------------

/// Statistics of one sharded pass (a shard-local pass or the boundary
/// pass). `match_count` uses attributed-delivery semantics: the global
/// match budget is shared, so per-pass counts sum to the merged count.
struct ShardPassStats {
  /// Shard index; the boundary pass reports the shard count here.
  uint32_t shard = 0;
  bool boundary = false;
  uint64_t match_count = 0;
  /// Vertices of the pass's graph (the shard, or the cut region).
  uint32_t graph_vertices = 0;
  /// Equals `graph_vertices`: a pass owns its whole graph, shard or cut
  /// region. Kept as its own RunReport key.
  uint32_t owned_vertices = 0;
  size_t candidate_memory_bytes = 0;
  size_t aux_memory_bytes = 0;
  double build_ms = 0.0;
  double enumerate_ms = 0.0;
  /// Wall time of the pass's enumeration on the calling thread (its plan
  /// build, which runs in parallel with the others, excluded).
  double busy_ms = 0.0;
};

/// Shape and per-pass breakdown of one sharded run, reported alongside the
/// merged MatchResult (RunReport's "sharding" section).
struct ShardedRunInfo {
  /// 0 means the run was monolithic (no sharding section applies).
  uint32_t shard_count = 0;
  shard::Partitioner partitioner = shard::Partitioner::kGreedy;
  uint64_t cut_edges = 0;
  uint32_t boundary_vertex_count = 0;
  /// Radius of the cut region (the query's worst edge eccentricity, at
  /// most its diameter); 0 when the boundary pass was skipped
  /// (single-vertex query, K=1, or an empty cut).
  uint32_t boundary_radius = 0;
  uint32_t region_vertices = 0;
  std::vector<ShardPassStats> passes;
};

/// Merged result of a sharded run: `result` carries exactly the monolithic
/// semantics (count, limit status, aggregate search counters); `sharding`
/// breaks it down per pass.
struct ShardedMatchResult {
  MatchResult result;
  ShardedRunInfo sharding;
};

/// The sharded analogue of MatchQuery, against a long-lived ShardedGraph.
/// Builds one plan per nonempty shard plus the boundary plan, in parallel
/// (the collector is not threaded through them), then enumerates the passes
/// one after another on the calling thread: shards 0..K-1, then the
/// boundary pass. All passes share one match budget, one enumeration
/// deadline and `options.cancel_flag`, which is also checked before each
/// pass starts. `callback` receives global data-vertex ids, at most
/// max_matches times, in an order that is the same on every run. The plans
/// are freed on return. Same query contract as BuildMatchPlan.
ShardedMatchResult ShardedMatchQuery(const Graph& query,
                                     const shard::ShardedGraph& sharded,
                                     const MatchOptions& options,
                                     const MatchCallback& callback = {});

}  // namespace sgm

#endif  // SGM_PLAN_H_
