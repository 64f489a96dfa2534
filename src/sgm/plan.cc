#include "sgm/plan.h"

#include <utility>

#include "sgm/obs/collector.h"
#include "sgm/obs/phase_timer.h"
#include "sgm/util/timer.h"

namespace sgm {

size_t MatchPlan::MemoryBytes() const {
  size_t bytes = sizeof(MatchPlan);
  bytes += candidates.MemoryBytes();
  bytes += aux.MemoryBytes();
  bytes += matching_order.capacity() * sizeof(Vertex);
  bytes += weights.MemoryBytes();
  if (bfs_tree.has_value()) {
    bytes += bfs_tree->parent.capacity() * sizeof(Vertex) +
             bfs_tree->order.capacity() * sizeof(Vertex);
  }
  for (const FilterRound& round : filter_rounds) {
    bytes += sizeof(FilterRound) + round.name.capacity();
  }
  return bytes;
}

std::unique_ptr<MatchPlan> BuildMatchPlan(const Graph& query,
                                          const Graph& data,
                                          const MatchOptions& options) {
  SGM_CHECK_MSG(query.vertex_count() >= 1 &&
                    query.vertex_count() <= kMaxQueryVertices,
                "query size out of supported range");

  auto plan_ptr = std::make_unique<MatchPlan>();
  MatchPlan& plan = *plan_ptr;
  plan.options = options;
  obs::TraceBuffer* trace =
      options.collector != nullptr ? options.collector->trace() : nullptr;
  if (trace != nullptr) trace->SetThreadName(0, "pipeline");
  obs::PhaseTimer phase_timer(trace);

  // ---- Filtering (line 1 of Algorithm 1). ----
  phase_timer.Begin(obs::kPhaseFilter);
  FilterResult filtered =
      RunFilter(options.filter, query, data, options.filter_options);
  plan.filter_ms = phase_timer.End();
  plan.average_candidates = filtered.candidates.AverageCount();
  plan.candidate_memory_bytes = filtered.candidates.MemoryBytes();
  plan.filter_rounds = std::move(filtered.rounds);
  plan.candidates = std::move(filtered.candidates);
  plan.bfs_tree = std::move(filtered.bfs_tree);

  if (plan.candidates.AnyEmpty()) {
    // Some query vertex has no candidate: no match exists, and there is
    // nothing to index or order.
    plan.empty_candidates = true;
    return plan_ptr;
  }

  // ---- Auxiliary structure. ----
  phase_timer.Begin(obs::kPhaseAuxBuild);
  switch (options.aux_scope) {
    case AuxEdgeScope::kNone:
      break;
    case AuxEdgeScope::kTreeEdges: {
      SGM_CHECK_MSG(plan.bfs_tree.has_value(),
                    "tree-edge aux scope needs a filter that builds q_t");
      plan.aux = AuxStructure::BuildTreeEdges(query, data, plan.candidates,
                                              plan.bfs_tree->parent);
      plan.has_aux = true;
      break;
    }
    case AuxEdgeScope::kAllEdges: {
      AuxBuildOptions aux_build;
      // The sidecar only pays off where the enumerator can consume it: the
      // set-intersection local candidates with a bitmap-aware kernel.
      aux_build.build_bitmaps =
          options.lc_method == LocalCandidateMethod::kIntersect &&
          (options.intersection == IntersectionMethod::kBitmap ||
           options.intersection == IntersectionMethod::kAuto);
      aux_build.bitmap_max_candidates = options.bitmap_max_candidates;
      plan.aux =
          AuxStructure::BuildAllEdges(query, data, plan.candidates, aux_build);
      plan.has_aux = true;
      break;
    }
  }
  plan.aux_memory_bytes = plan.aux.MemoryBytes();

  // ---- Ordering (line 2 of Algorithm 1). ----
  plan.aux_build_ms = phase_timer.Begin(obs::kPhaseOrder);
  OrderInputs order_inputs;
  order_inputs.candidates = &plan.candidates;
  order_inputs.tree = plan.bfs_tree.has_value() ? &*plan.bfs_tree : nullptr;
  order_inputs.aux = plan.has_aux ? &plan.aux : nullptr;
  plan.matching_order = ComputeOrder(options.order, query, data, order_inputs);
  if (options.postpone_degree_one) {
    plan.matching_order = PostponeDegreeOneVertices(query, plan.matching_order);
  }
  SGM_CHECK(IsValidMatchingOrder(query, plan.matching_order));

  if (options.adaptive_order) {
    SGM_CHECK_MSG(options.aux_scope == AuxEdgeScope::kAllEdges,
                  "adaptive ordering needs an all-edges aux structure");
    plan.weights = DpisoWeights::Build(query, plan.candidates, plan.aux,
                                       plan.matching_order);
  }
  plan.order_ms = phase_timer.End();
  return plan_ptr;
}

bool PlanAcceptsAnyOrder(const MatchPlan& plan) {
  return !plan.options.adaptive_order &&
         !(plan.options.lc_method == LocalCandidateMethod::kPivotIndex &&
           plan.options.aux_scope == AuxEdgeScope::kTreeEdges);
}

MatchResult ExecutePlan(const Graph& query, const Graph& data,
                        const MatchPlan& plan, const MatchOptions& run_options,
                        const MatchCallback& callback,
                        bool include_build_metrics,
                        std::span<const Vertex> order) {
  MatchResult result;
  Timer total_timer;
  if (order.empty()) {
    order = plan.matching_order;
  } else {
    SGM_CHECK_MSG(PlanAcceptsAnyOrder(plan) &&
                      IsValidMatchingOrder(query, order),
                  "a run order must be a connected order the plan accepts");
  }

  // Structural facts of the plan are part of every result built from it.
  result.average_candidates = plan.average_candidates;
  result.candidate_memory_bytes = plan.candidate_memory_bytes;
  result.aux_memory_bytes = plan.aux_memory_bytes;
  result.filter_rounds = plan.filter_rounds;
  result.matching_order.assign(order.begin(), order.end());
  if (include_build_metrics) {
    result.filter_ms = plan.filter_ms;
    result.aux_build_ms = plan.aux_build_ms;
    result.order_ms = plan.order_ms;
  }
  result.preprocessing_ms =
      result.filter_ms + result.aux_build_ms + result.order_ms;

  if (plan.empty_candidates) {
    result.total_ms = total_timer.ElapsedMillis() +
                      (include_build_metrics ? plan.build_ms() : 0.0);
    return result;
  }

  obs::TraceBuffer* trace = run_options.collector != nullptr
                                ? run_options.collector->trace()
                                : nullptr;
  if (trace != nullptr) trace->SetThreadName(0, "pipeline");

  // ---- Enumeration (line 3 of Algorithm 1). ----
  EnumerateOptions enumerate_options;
  enumerate_options.lc_method = plan.options.lc_method;
  enumerate_options.use_failing_sets = plan.options.use_failing_sets;
  enumerate_options.adaptive_order = plan.options.adaptive_order;
  enumerate_options.vf2pp_lookahead = plan.options.vf2pp_lookahead;
  enumerate_options.restrict_neighbor_scan_to_candidates =
      plan.options.filter != FilterMethod::kLDF;
  enumerate_options.max_matches = run_options.max_matches;
  enumerate_options.time_limit_ms = run_options.time_limit_ms;
  enumerate_options.intersection = plan.options.intersection;
  enumerate_options.use_lc_cache = run_options.use_lc_cache;
  enumerate_options.cancel_flag = run_options.cancel_flag;
  if (run_options.collector != nullptr &&
      run_options.collector->depth_profile_enabled()) {
    enumerate_options.depth_profile = &result.depth_profile;
  }
  if (run_options.debug_skip_last_root_candidate) {
    // Emulated off-by-one: enumerate roots [0, count-1) instead of
    // [0, count). See MatchOptions::debug_skip_last_root_candidate.
    const uint32_t root_count = plan.candidates.Count(order[0]);
    enumerate_options.root_slice_end = root_count > 0 ? root_count - 1 : 0;
  }

  {
    obs::TraceSpan span(trace, obs::kPhaseEnumeration, "phase");
    result.enumerate =
        Enumerate(query, data, plan.candidates,
                  plan.has_aux ? &plan.aux : nullptr, order,
                  enumerate_options,
                  plan.options.adaptive_order ? &plan.weights : nullptr,
                  callback);
    span.AddArg("recursion_calls",
                static_cast<double>(result.enumerate.recursion_calls));
    span.AddArg("matches", static_cast<double>(result.enumerate.match_count));
  }
  result.match_count = result.enumerate.match_count;
  result.enumeration_ms = result.enumerate.enumeration_ms;
  result.total_ms = total_timer.ElapsedMillis() +
                    (include_build_metrics ? plan.build_ms() : 0.0);
  return result;
}

}  // namespace sgm
