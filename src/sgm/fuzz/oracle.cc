#include "sgm/fuzz/oracle.h"

#include <algorithm>
#include <set>
#include <string>

#include "sgm/core/brute_force.h"
#include "sgm/core/order/order.h"
#include "sgm/core/spectrum.h"
#include "sgm/dynamic/continuous.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/parallel/parallel_matcher.h"
#include "sgm/plan.h"
#include "sgm/service/service.h"
#include "sgm/util/prng.h"

namespace sgm::fuzz {

const char* VerdictKindName(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::kAgree:
      return "agree";
    case VerdictKind::kRejected:
      return "rejected";
    case VerdictKind::kCountMismatch:
      return "count-mismatch";
    case VerdictKind::kEmbeddingMismatch:
      return "embedding-mismatch";
    case VerdictKind::kLimitStatusMismatch:
      return "limit-status-mismatch";
    case VerdictKind::kDynamicMismatch:
      return "dynamic-mismatch";
  }
  return "unknown";
}

bool ParseVerdictKind(const std::string& name, VerdictKind* out) {
  for (const VerdictKind kind :
       {VerdictKind::kAgree, VerdictKind::kRejected,
        VerdictKind::kCountMismatch, VerdictKind::kEmbeddingMismatch,
        VerdictKind::kLimitStatusMismatch, VerdictKind::kDynamicMismatch}) {
    if (name == VerdictKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

// A callback appending every match to `embeddings` when `collect`, else
// none (counting only).
MatchCallback CollectIf(bool collect,
                        std::vector<std::vector<Vertex>>* embeddings) {
  if (!collect) return {};
  return [embeddings](std::span<const Vertex> mapping) {
    embeddings->emplace_back(mapping.begin(), mapping.end());
    return true;
  };
}

ConfigOutcome OutcomeOf(std::string name, const MatchResult& result) {
  ConfigOutcome outcome;
  outcome.name = std::move(name);
  outcome.match_count = result.match_count;
  outcome.timed_out = result.enumerate.timed_out;
  outcome.reached_limit = result.enumerate.reached_match_limit;
  outcome.total_ms = result.total_ms;
  return outcome;
}

// Runs one configuration, optionally collecting the embeddings. The
// parallel path serializes the callback internally, so collection is safe
// in both modes.
ConfigOutcome RunConfig(const FuzzCase& fuzz_case, const ConfigSpec& config,
                        uint64_t budget, bool collect,
                        std::vector<std::vector<Vertex>>* embeddings) {
  const MatchOptions options = config.ToMatchOptions(
      fuzz_case.query.vertex_count(), budget, fuzz_case.time_limit_ms);
  const MatchCallback callback = CollectIf(collect, embeddings);
  MatchResult result;
  if (config.service) {
    // Served path: submit the same query twice against one MatchService so
    // the checked run executes a plan-cache hit — the differential oracle
    // covers the cached-plan code path, not just a fresh build.
    service::ServiceOptions service_options;
    service_options.worker_count = 1;
    service::MatchService service(fuzz_case.data, service_options);
    service::MatchRequest warm;
    warm.query = fuzz_case.query;
    warm.options = options;
    service.Match(std::move(warm));
    service::MatchRequest request;
    request.query = fuzz_case.query;
    request.options = options;
    request.collect_embeddings = collect;
    service::MatchResponse response = service.Match(std::move(request));
    result = std::move(response.engine);
    if (collect) *embeddings = std::move(response.embeddings);
  } else if (config.threads > 1) {
    result = ParallelMatchQuery(fuzz_case.query, fuzz_case.data, options,
                                config.threads, callback)
                 .result;
  } else {
    result = MatchQuery(fuzz_case.query, fuzz_case.data, options, callback);
  }
  return OutcomeOf(config.Name(), result);
}

// Property 4 (see file comment of oracle.h): replays the case's update
// stream through the continuous matcher, folding every delta record into
// the embedding set seeded by brute force on the initial graph, then
// compares against a cold brute-force rematch of the final graph. Writes
// the verdict into `oracle` only when it still reads kAgree.
void RunDynamicCheck(const FuzzCase& fuzz_case, const OracleOptions& options,
                     OracleResult* oracle) {
  // Seed the exact initial embedding set; oversized cases skip the check
  // (the maintained set must be exact for the diff to mean anything).
  std::vector<std::vector<Vertex>> initial = BruteForceMatches(
      fuzz_case.query, fuzz_case.data, options.dynamic_cap + 1);
  if (initial.size() > options.dynamic_cap) return;
  std::set<std::vector<Vertex>> matches(initial.begin(), initial.end());

  dynamic::DynamicGraph graph(fuzz_case.data);
  dynamic::ContinuousMatcher matcher(&graph);
  std::string error;
  const uint64_t query_id = matcher.Register(fuzz_case.query, &error);
  const auto report = [oracle](VerdictKind kind, const std::string& detail) {
    if (oracle->kind == VerdictKind::kAgree) {
      oracle->kind = kind;
      oracle->detail = detail;
    }
  };
  if (query_id == 0) {
    // E.g. a hand-written case whose query uses labels outside the data
    // graph's vocabulary: outside the dynamic layer's contract.
    report(VerdictKind::kRejected, "continuous query rejected: " + error);
    return;
  }

  for (size_t b = 0; b < fuzz_case.updates.batches.size(); ++b) {
    const auto result = matcher.ApplyBatch(fuzz_case.updates.batches[b], &error);
    if (!result.has_value()) {
      // The stream does not replay against this graph (minimization can
      // shrink the graph out from under it): outside the contract.
      report(VerdictKind::kRejected,
             "update batch " + std::to_string(b) + " invalid: " + error);
      return;
    }
    ++oracle->dynamic_batches;
    for (const dynamic::MatchDelta& delta : result->deltas) {
      oracle->dynamic_additions += delta.additions;
      oracle->dynamic_retractions += delta.retractions;
      for (const dynamic::DeltaRecord& record : delta.records) {
        if (record.addition) {
          if (!matches.insert(record.embedding).second) {
            report(VerdictKind::kDynamicMismatch,
                   "batch " + std::to_string(b) +
                       " re-added an embedding already present");
            return;
          }
        } else if (matches.erase(record.embedding) == 0) {
          report(VerdictKind::kDynamicMismatch,
                 "batch " + std::to_string(b) +
                     " retracted an embedding never reported");
          return;
        }
      }
    }
  }

  // Cold full rematch of the final graph must reproduce the maintained set.
  const Graph final_graph = graph.Snapshot();
  std::vector<std::vector<Vertex>> rematch = BruteForceMatches(
      fuzz_case.query, final_graph, matches.size() + 2);
  if (rematch.size() != matches.size() ||
      !std::equal(rematch.begin(), rematch.end(), matches.begin())) {
    report(VerdictKind::kDynamicMismatch,
           "incremental set holds " + std::to_string(matches.size()) +
               " embeddings after " +
               std::to_string(fuzz_case.updates.batches.size()) +
               " batches, cold rematch finds " +
               std::to_string(rematch.size()));
  }
}

}  // namespace

OracleResult RunOracle(const FuzzCase& fuzz_case,
                       const OracleOptions& options) {
  OracleResult oracle;

  // ---- Contract validation: reject cleanly instead of tripping the
  // engine's internal invariant checks. ----
  if (fuzz_case.query.vertex_count() == 0) {
    oracle.kind = VerdictKind::kRejected;
    oracle.detail = "query has no vertices";
    return oracle;
  }
  if (fuzz_case.query.vertex_count() > kMaxQueryVertices) {
    oracle.kind = VerdictKind::kRejected;
    oracle.detail = "query exceeds " + std::to_string(kMaxQueryVertices) +
                    " vertices";
    return oracle;
  }
  if (!IsConnected(fuzz_case.query)) {
    oracle.kind = VerdictKind::kRejected;
    oracle.detail = "query is disconnected";
    return oracle;
  }
  if (fuzz_case.configs.empty()) {
    oracle.kind = VerdictKind::kRejected;
    oracle.detail = "no configurations to check";
    return oracle;
  }

  // ---- Brute-force reference. ----
  const uint64_t budget = fuzz_case.max_matches > 0 ? fuzz_case.max_matches
                                                    : options.count_cap;
  const uint64_t reference = BruteForceCount(fuzz_case.query, fuzz_case.data,
                                             budget);
  oracle.reference_count = reference;
  const bool budget_hit = reference >= budget;

  // Embedding sets are only comparable when the budget never interferes:
  // every engine then delivers the complete set.
  const bool compare_embeddings =
      !budget_hit && reference <= options.embedding_cap;
  std::vector<std::vector<Vertex>> reference_embeddings;
  if (compare_embeddings) {
    reference_embeddings =
        BruteForceMatches(fuzz_case.query, fuzz_case.data, budget);
    std::sort(reference_embeddings.begin(), reference_embeddings.end());
  }

  // ---- Compare one outcome against the reference; the first
  // disagreement sets the verdict. ----
  const auto check = [&](const ConfigOutcome& outcome,
                         std::vector<std::vector<Vertex>>& embeddings) {
    oracle.outcomes.push_back(outcome);
    if (oracle.kind != VerdictKind::kAgree) return;  // Keep running all.

    if (outcome.match_count != reference) {
      oracle.kind = VerdictKind::kCountMismatch;
      oracle.detail = outcome.name + " found " +
                      std::to_string(outcome.match_count) +
                      " matches, reference found " + std::to_string(reference);
      return;
    }
    if (outcome.timed_out && fuzz_case.time_limit_ms <= 0.0) {
      oracle.kind = VerdictKind::kLimitStatusMismatch;
      oracle.detail = outcome.name + " reported a timeout with no time limit";
      return;
    }
    // When the true count is strictly below the budget, no engine may
    // claim it was cut off by it. (At reference == budget the flag depends
    // on whether the engine attempted a further extension, so it is not
    // comparable across engines.)
    if (!budget_hit && outcome.reached_limit) {
      oracle.kind = VerdictKind::kLimitStatusMismatch;
      oracle.detail = outcome.name + " claimed the match budget (" +
                      std::to_string(budget) + ") was hit at " +
                      std::to_string(outcome.match_count) + " matches";
      return;
    }
    if (compare_embeddings) {
      std::sort(embeddings.begin(), embeddings.end());
      if (embeddings != reference_embeddings) {
        oracle.kind = VerdictKind::kEmbeddingMismatch;
        oracle.detail = outcome.name +
                        " delivered a different embedding set than the"
                        " reference (equal counts: " +
                        std::to_string(outcome.match_count) + ")";
      }
    }
  };

  // ---- Run and compare every configuration. ----
  for (const ConfigSpec& config : fuzz_case.configs) {
    std::vector<std::vector<Vertex>> embeddings;
    check(RunConfig(fuzz_case, config, budget, compare_embeddings, &embeddings),
          embeddings);
  }

  // ---- Order runs: the first configuration whose plan accepts any order,
  // built once, under RI's order and one random connected order. ----
  for (const ConfigSpec& config : fuzz_case.configs) {
    const MatchOptions options = config.ToMatchOptions(
        fuzz_case.query.vertex_count(), budget, fuzz_case.time_limit_ms);
    const auto plan = BuildMatchPlan(fuzz_case.query, fuzz_case.data, options);
    if (!PlanAcceptsAnyOrder(*plan)) continue;
    Prng prng(fuzz_case.seed);
    const std::pair<const char*, std::vector<Vertex>> orders[] = {
        {"/order-ri", RiOrder(fuzz_case.query)},
        {"/order-random", RandomConnectedOrder(fuzz_case.query, &prng)}};
    for (const auto& [suffix, order] : orders) {
      std::vector<std::vector<Vertex>> embeddings;
      const MatchResult result = ExecutePlan(
          fuzz_case.query, fuzz_case.data, *plan, options,
          CollectIf(compare_embeddings, &embeddings),
          /*include_build_metrics=*/true, order);
      check(OutcomeOf(config.Name() + suffix, result), embeddings);
    }
    break;
  }

  // ---- Dynamic dimension: incremental replay vs cold rematch. Skipped
  // when a static disagreement was already found (first verdict wins). ----
  if (!fuzz_case.updates.batches.empty() &&
      oracle.kind == VerdictKind::kAgree) {
    RunDynamicCheck(fuzz_case, options, &oracle);
  }
  return oracle;
}

}  // namespace sgm::fuzz
