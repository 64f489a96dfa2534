// Sharded execution: ShardedMatchQuery (the sharded half of plan.h).
//
// Exactness scheme (DESIGN.md §13): every embedding of a connected query
// maps to a connected subgraph of the data graph, so an embedding either
// stays entirely inside one shard's owned vertices — found by exactly one
// shard-local pass, which runs the unmodified pipeline on the subgraph
// induced on those vertices — or maps some query edge onto a cut edge. In
// the latter case both endpoints of that edge land on cut-edge endpoints,
// and every other matched vertex lies within min(dist(w,u), dist(w,v))
// hops of one of them (a data-graph path between matched vertices is never
// longer than the query path between their query vertices). Maximizing
// over which edge straddles gives the boundary radius — the query's worst
// edge eccentricity, at most its diameter and often smaller (1 for stars)
// — and the whole embedding, edges included, survives inside the
// vertex-induced cut region of that radius. The boundary pass enumerates
// the region and keeps exactly the embeddings whose vertices span two or
// more shards: found there once, and by no local pass.
#include <algorithm>
#include <memory>
#include <vector>

#include "sgm/plan.h"
#include "sgm/shard/run_tasks.h"
#include "sgm/util/timer.h"

namespace sgm {

namespace {

// Boundary radius of the (connected, <= 64 vertex) query graph: the
// largest, over query edges (u, v), distance from any query vertex to the
// nearer of u and v. A straddling embedding maps some edge onto a cut
// edge, so every matched vertex is within this many hops of a cut-edge
// endpoint. At most the diameter, and strictly smaller for edge-central
// shapes — 1 for a star of any size, where the diameter bound would be 2.
uint32_t QueryBoundaryRadius(const Graph& query) {
  const Vertex n = query.vertex_count();
  // All-pairs distances: BFS per vertex (n <= 64 keeps this trivial).
  std::vector<std::vector<uint32_t>> dist(n);
  std::vector<Vertex> queue;
  for (Vertex root = 0; root < n; ++root) {
    auto& d = dist[root];
    d.assign(n, kInvalidVertex);
    queue.assign(1, root);
    d[root] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const Vertex v = queue[head];
      for (const Vertex w : query.neighbors(v)) {
        if (d[w] == kInvalidVertex) {
          d[w] = d[v] + 1;
          queue.push_back(w);
        }
      }
    }
  }
  uint32_t radius = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : query.neighbors(u)) {
      if (v < u) continue;  // each undirected edge once
      uint32_t ecc = 0;
      for (Vertex w = 0; w < n; ++w) {
        ecc = std::max(ecc, std::min(dist[u][w], dist[v][w]));
      }
      radius = std::max(radius, ecc);
    }
  }
  return radius;
}

// The match budget and the user callback of one sharded run. Passes
// enumerate one after another, so a delivery is either attributed to the
// pass that made it or, once the budget or a veto has stopped the run,
// never made: per-pass counts sum to the merged count.
struct DeliveryGate {
  uint64_t budget = 0;  // 0 = unlimited
  const MatchCallback* user = nullptr;
  uint64_t delivered = 0;
  bool stop = false;

  // Delivered-match semantics of the serial engine: a veto still counts
  // the match that provoked it. Returns false when the run must stop.
  bool Deliver(std::span<const Vertex> global_mapping, uint64_t& pass_count) {
    const bool keep = user == nullptr || (*user)(global_mapping);
    ++delivered;
    ++pass_count;
    stop = !keep || (budget != 0 && delivered >= budget);
    return !stop;
  }
};

// One unit of sharded work: a shard-local pass or the boundary pass.
struct Pass {
  const Graph* graph = nullptr;
  const std::vector<Vertex>* local_to_global = nullptr;
  uint32_t shard = 0;
  bool boundary = false;
  std::unique_ptr<MatchPlan> plan;
};

}  // namespace

ShardedMatchResult ShardedMatchQuery(const Graph& query,
                                     const shard::ShardedGraph& sharded,
                                     const MatchOptions& options,
                                     const MatchCallback& callback) {
  SGM_CHECK_MSG(query.vertex_count() >= 1 &&
                    query.vertex_count() <= kMaxQueryVertices,
                "query size out of supported range");
  ShardedMatchResult sharded_result;
  MatchResult& merged = sharded_result.result;
  ShardedRunInfo& info = sharded_result.sharding;
  const shard::Partition& partition = sharded.partition();
  const uint32_t shard_count = sharded.shard_count();

  info.shard_count = shard_count;
  info.partitioner = partition.method;
  info.cut_edges = partition.cut_edges;
  info.boundary_vertex_count =
      static_cast<uint32_t>(sharded.boundary_vertices().size());

  std::vector<Pass> passes;
  for (uint32_t s = 0; s < shard_count; ++s) {
    const shard::Shard& shard = sharded.shard(s);
    if (shard.graph.vertex_count() == 0) continue;  // nothing owned
    passes.push_back({&shard.graph, &shard.local_to_global, s, false, {}});
  }
  // The boundary pass exists only when an embedding can actually span a
  // cut: several shards, a nonempty cut, and a query with at least two
  // vertices.
  std::shared_ptr<const shard::CutRegion> region;
  if (shard_count > 1 && !sharded.boundary_vertices().empty() &&
      query.vertex_count() > 1) {
    info.boundary_radius = QueryBoundaryRadius(query);
    region = sharded.Region(info.boundary_radius);
    info.region_vertices = region->graph.vertex_count();
    passes.push_back(
        {&region->graph, &region->local_to_global, shard_count, true, {}});
  }

  // Plan builds are independent and the bulk of a request: run them in
  // parallel. Collectors and cancellation are per-run concerns.
  MatchOptions build_options = options;
  build_options.collector = nullptr;
  build_options.cancel_flag = nullptr;
  Timer build_timer;
  shard::RunTasks(static_cast<uint32_t>(passes.size()), [&](uint32_t i) {
    passes[i].plan = BuildMatchPlan(query, *passes[i].graph, build_options);
  });
  const double build_wall_ms = build_timer.ElapsedMillis();

  DeliveryGate gate;
  gate.budget = options.max_matches;
  gate.user = callback ? &callback : nullptr;
  std::vector<Vertex> global_mapping(query.vertex_count());
  info.passes.resize(passes.size());
  const MatchPlan* representative = nullptr;
  Timer enumerate_timer;
  for (size_t i = 0; i < passes.size(); ++i) {
    const Pass& pass = passes[i];
    const MatchPlan& plan = *pass.plan;
    ShardPassStats& stats = info.passes[i];
    stats.shard = pass.shard;
    stats.boundary = pass.boundary;
    stats.graph_vertices = pass.graph->vertex_count();
    stats.owned_vertices = stats.graph_vertices;
    stats.candidate_memory_bytes = plan.candidate_memory_bytes;
    stats.aux_memory_bytes = plan.aux_memory_bytes;
    stats.build_ms = plan.build_ms();
    merged.average_candidates += plan.average_candidates;
    merged.candidate_memory_bytes += plan.candidate_memory_bytes;
    merged.aux_memory_bytes += plan.aux_memory_bytes;
    merged.filter_ms += plan.filter_ms;
    merged.aux_build_ms += plan.aux_build_ms;
    merged.order_ms += plan.order_ms;
    // The boundary plan, else the first shard's, speaks for the run's
    // matching order and filter rounds.
    if (representative == nullptr || pass.boundary) representative = &plan;

    if (options.cancel_flag != nullptr &&
        options.cancel_flag->load(std::memory_order_relaxed)) {
      gate.stop = true;
    }
    if (gate.stop || merged.enumerate.timed_out) continue;

    Timer busy_timer;
    MatchOptions pass_run = options;
    pass_run.collector = nullptr;
    // The gate enforces the shared budget; the boundary pass also sees
    // non-spanning matches, so no pass may self-limit on its raw count.
    pass_run.max_matches = 0;
    if (options.time_limit_ms > 0.0) {
      // All passes share the run's single wall-clock deadline.
      pass_run.time_limit_ms = std::max(
          0.01, options.time_limit_ms - enumerate_timer.ElapsedMillis());
    }
    const std::vector<Vertex>& local_to_global = *pass.local_to_global;
    MatchCallback pass_callback = [&](std::span<const Vertex> mapping) {
      for (size_t q = 0; q < mapping.size(); ++q) {
        global_mapping[q] = local_to_global[mapping[q]];
      }
      if (pass.boundary) {
        // Local passes own the single-shard embeddings; keep only those
        // spanning at least two shards.
        const uint32_t first = partition.assignment[global_mapping[0]];
        const bool spans = std::any_of(
            global_mapping.begin() + 1, global_mapping.end(),
            [&](Vertex v) { return partition.assignment[v] != first; });
        if (!spans) return true;
      }
      return gate.Deliver(global_mapping, stats.match_count);
    };
    const MatchResult pass_result =
        ExecutePlan(query, *pass.graph, plan, pass_run, pass_callback,
                    /*include_build_metrics=*/false);
    stats.enumerate_ms = pass_result.enumeration_ms;
    stats.busy_ms = busy_timer.ElapsedMillis();
    merged.enumerate += pass_result.enumerate;
  }
  merged.enumeration_ms = enumerate_timer.ElapsedMillis();

  // Merged semantics, aligned with the monolithic engine and the fuzz
  // oracle: the delivered count never exceeds the budget, and the limit
  // flag means the budget is what stopped the run.
  merged.match_count = gate.delivered;
  merged.enumerate.match_count = gate.delivered;
  merged.enumerate.reached_match_limit =
      gate.budget != 0 && gate.delivered >= gate.budget;
  if (representative != nullptr) {
    merged.matching_order = representative->matching_order;
    merged.filter_rounds = representative->filter_rounds;
  }
  // Per-phase sums are total work; the preprocessing wall time is what the
  // parallel build actually took.
  merged.preprocessing_ms = build_wall_ms;
  merged.total_ms = merged.preprocessing_ms + merged.enumeration_ms;
  return sharded_result;
}

}  // namespace sgm
