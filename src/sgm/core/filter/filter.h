// Filtering methods: generation and pruning of candidate vertex sets
// (Section 3.1 of the paper).
//
// Every method produces complete candidate sets (Definition 2.2): a data
// vertex participating in any match is never pruned. The methods differ in
// pruning power and cost:
//
//   kLDF     label-and-degree baseline (all algorithms start from it)
//   kNLF     LDF + neighbor label frequency
//   kGraphQL local profile pruning + global pseudo-isomorphism refinement
//   kCFL     BFS-tree top-down generation + bottom-up refinement
//   kCECI    BFS-tree forward construction + reverse refinement
//   kDPiso   LDF + k alternating refinement passes over the BFS order
//   kSteady  fixpoint of Filtering Rule 3.1 (the STEADY baseline of Fig. 8)
#ifndef SGM_CORE_FILTER_FILTER_H_
#define SGM_CORE_FILTER_FILTER_H_

#include <optional>
#include <string>
#include <vector>

#include "sgm/core/candidate_sets.h"
#include "sgm/graph/graph.h"
#include "sgm/graph/graph_utils.h"

namespace sgm {

/// Identifies a candidate filtering method.
enum class FilterMethod : uint8_t {
  kLDF = 0,
  kNLF = 1,
  kGraphQL = 2,
  kCFL = 3,
  kCECI = 4,
  kDPiso = 5,
  kSteady = 6,
};

/// Returns a short name ("LDF", "GQL", "CFL", ...), matching the paper's
/// abbreviations.
const char* FilterMethodName(FilterMethod method);

/// Tuning knobs for the filtering methods.
struct FilterOptions {
  /// Global-refinement rounds of GraphQL's pseudo subgraph isomorphism
  /// check (the user-specified k of Section 3.1.1).
  uint32_t graphql_refinement_rounds = 2;
  /// Radius r of GraphQL's neighborhood profile (labels of all vertices
  /// within r hops). The paper analyzes r = 1; r = 2 prunes harder at a
  /// quadratic per-vertex cost.
  uint32_t graphql_profile_radius = 1;
  /// Refinement passes of DP-iso (the original paper sets k = 3).
  uint32_t dpiso_refinement_rounds = 3;
};

/// One pruning step of a filtering method, recorded for observability: how
/// many candidates survived the step (sum of |C(u)| over all query
/// vertices) and how long it took. The sequence of rounds is what Figure 8
/// of the paper plots per method, and what RunReport carries per run.
struct FilterRound {
  std::string name;
  /// Sum of |C(u)| after this round.
  uint64_t total_candidates = 0;
  double ms = 0.0;
};

/// Output of a filtering method. The BFS tree is populated by the methods
/// that build one (CFL, CECI, DP-iso) so that downstream components (CFL's
/// path-based ordering, tree-edge aux structures) can reuse it. `rounds`
/// records the per-round pruning trajectory; RunFilter guarantees at least
/// one terminal round for methods without internal instrumentation.
struct FilterResult {
  CandidateSets candidates;
  std::optional<BfsTree> bfs_tree;
  std::vector<FilterRound> rounds;
};

/// Runs the selected filtering method. The query must be connected.
FilterResult RunFilter(FilterMethod method, const Graph& query,
                       const Graph& data,
                       const FilterOptions& options = FilterOptions{});

// ---- Individual methods (callable directly; RunFilter dispatches). ----

/// Label-and-degree filter: C(u) = {v | L(v)=L(u), d(v) >= d(u)}.
CandidateSets BuildLdfCandidates(const Graph& query, const Graph& data);

/// LDF + neighbor-label-frequency filter.
CandidateSets BuildNlfCandidates(const Graph& query, const Graph& data);

/// GraphQL's filter; the query may have at most kMaxQueryVertices vertices
/// (the refinement keeps one query bit per data vertex).
FilterResult RunGraphQlFilter(const Graph& query, const Graph& data,
                              const FilterOptions& options);
FilterResult RunCflFilter(const Graph& query, const Graph& data);
FilterResult RunCeciFilter(const Graph& query, const Graph& data);
FilterResult RunDpisoFilter(const Graph& query, const Graph& data,
                            const FilterOptions& options);
FilterResult RunSteadyFilter(const Graph& query, const Graph& data);

// ---- Shared predicates and helpers used across filter implementations. ----

/// LDF predicate for a single (query vertex, data vertex) pair.
bool PassesLdf(const Graph& query, const Graph& data, Vertex u, Vertex v);

/// NLF predicate: every neighbor label of u appears at least as often
/// around v. Implies nothing about LDF; callers typically check both.
bool PassesNlf(const Graph& query, const Graph& data, Vertex u, Vertex v);

/// In-place application of Filtering Rule 3.1: removes from *candidates_u
/// every vertex with no neighbor in candidates_constraint. `scratch` must be
/// a byte array of size data.vertex_count(), all zero on entry; it is
/// restored to all-zero before returning. Returns true when anything was
/// pruned.
bool PruneByNeighborConstraint(const Graph& data,
                               std::vector<Vertex>* candidates_u,
                               std::span<const Vertex> candidates_constraint,
                               std::vector<uint8_t>* scratch);

/// Root selection shared by CECI and DP-iso:
/// argmin_u |C_seed(u)| / d(u) where C_seed is produced by `seed_candidates`.
Vertex SelectRootMinCandidatesOverDegree(const Graph& query,
                                         const CandidateSets& seed);

}  // namespace sgm

#endif  // SGM_CORE_FILTER_FILTER_H_
