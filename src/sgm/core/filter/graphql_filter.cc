// GraphQL's candidate generation (Section 3.1.1 of the paper):
//
//  1. Local pruning — the profile of u (lexicographically sorted labels of u
//     and its neighbors within distance r = 1) must be a sub-sequence of the
//     profile of v. With sorted profiles this is equivalent to a per-label
//     count dominance test. At r = 1 it is exactly NLF: u and v carry the
//     same label, so only the neighbor labels need comparing. Larger radii
//     additionally compare BFS label counts.
//  2. Global refinement — the pseudo subgraph isomorphism test: for
//     v ∈ C(u), build the bipartite graph B between N(u) and N(v) with an
//     edge (u', v') whenever v' ∈ C(u'), and require a semi-perfect matching
//     (all of N(u) matched). Repeated for a user-specified number of rounds.
#include "sgm/core/filter/filter.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "sgm/util/timer.h"

namespace sgm {

namespace {

// Kuhn's augmenting-path algorithm deciding whether a bipartite graph has a
// matching covering every left vertex. The graph is given in CSR form: the
// right neighbors of left i are right[offsets[i], offsets[i + 1]). Visit
// marks are epoch-stamped, so no per-left reset touches the right side.
class SemiPerfectMatcher {
 public:
  bool Covers(std::span<const uint32_t> offsets,
              std::span<const uint32_t> right, uint32_t right_size) {
    right_match_.assign(right_size, kUnmatched);
    if (visit_.size() < right_size) visit_.resize(right_size, 0);
    for (uint32_t left = 0; left + 1 < offsets.size(); ++left) {
      if (++epoch_ == 0) {  // wrapped: stale stamps could alias
        std::fill(visit_.begin(), visit_.end(), 0);
        epoch_ = 1;
      }
      if (!TryAugment(offsets, right, left)) return false;
    }
    return true;
  }

 private:
  static constexpr uint32_t kUnmatched = 0xffffffffu;

  bool TryAugment(std::span<const uint32_t> offsets,
                  std::span<const uint32_t> right, uint32_t left) {
    for (uint32_t e = offsets[left]; e < offsets[left + 1]; ++e) {
      const uint32_t r = right[e];
      if (visit_[r] == epoch_) continue;
      visit_[r] = epoch_;
      if (right_match_[r] == kUnmatched ||
          TryAugment(offsets, right, right_match_[r])) {
        right_match_[r] = left;
        return true;
      }
    }
    return false;
  }

  std::vector<uint32_t> right_match_;
  std::vector<uint32_t> visit_;
  uint32_t epoch_ = 0;
};

// Builds the CSR bipartite graph between left = N(u) and the useful data
// neighbors of a candidate: right r is adjacent to left left_of[u'] for
// every query vertex u' whose bit is set in right_masks[r].
void BuildBipartite(std::span<const uint64_t> right_masks,
                    std::span<const uint32_t> left_of, uint32_t left_size,
                    std::vector<uint32_t>* offsets,
                    std::vector<uint32_t>* right) {
  offsets->assign(left_size + 1, 0);
  for (const uint64_t bits : right_masks) {
    for (uint64_t b = bits; b != 0; b &= b - 1) {
      ++(*offsets)[left_of[std::countr_zero(b)] + 1];
    }
  }
  for (uint32_t i = 0; i < left_size; ++i) (*offsets)[i + 1] += (*offsets)[i];
  right->resize(offsets->back());
  std::array<uint32_t, kMaxQueryVertices> cursor{};
  std::copy(offsets->begin(), offsets->end() - 1, cursor.begin());
  for (uint32_t r = 0; r < right_masks.size(); ++r) {
    for (uint64_t b = right_masks[r]; b != 0; b &= b - 1) {
      (*right)[cursor[left_of[std::countr_zero(b)]]++] = r;
    }
  }
}

// Generic radius-r profile: label counts of the distinct vertices within
// distance <= radius of `center` (excluding the center; its own label
// cancels against the other side's under LDF). Stamp-based BFS, O(edges
// explored) per call.
class ProfileCollector {
 public:
  explicit ProfileCollector(const Graph& graph)
      : graph_(graph), stamp_(graph.vertex_count(), 0) {}

  // Returns counts indexed by label in a small sorted vector.
  std::vector<std::pair<Label, uint32_t>> Collect(Vertex center,
                                                  uint32_t radius) {
    ++epoch_;
    counts_.clear();
    frontier_ = {center};
    stamp_[center] = epoch_;
    for (uint32_t hop = 0; hop < radius; ++hop) {
      next_.clear();
      for (const Vertex v : frontier_) {
        for (const Vertex w : graph_.neighbors(v)) {
          if (stamp_[w] == epoch_) continue;
          stamp_[w] = epoch_;
          next_.push_back(w);
          AddLabel(graph_.label(w));
        }
      }
      frontier_.swap(next_);
    }
    std::sort(counts_.begin(), counts_.end());
    return counts_;
  }

 private:
  void AddLabel(Label label) {
    for (auto& [l, c] : counts_) {
      if (l == label) {
        ++c;
        return;
      }
    }
    counts_.emplace_back(label, 1);
  }

  const Graph& graph_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<Vertex> frontier_;
  std::vector<Vertex> next_;
  std::vector<std::pair<Label, uint32_t>> counts_;
};

// Sub-multiset test over sorted (label, count) vectors.
bool CountsDominated(const std::vector<std::pair<Label, uint32_t>>& needed,
                     const std::vector<std::pair<Label, uint32_t>>& have) {
  size_t j = 0;
  for (const auto& [label, count] : needed) {
    while (j < have.size() && have[j].first < label) ++j;
    if (j == have.size() || have[j].first != label || have[j].second < count) {
      return false;
    }
  }
  return true;
}

}  // namespace

FilterResult RunGraphQlFilter(const Graph& query, const Graph& data,
                              const FilterOptions& options) {
  // Step 1: local pruning. Radius 1 is exactly NLF; larger radii
  // additionally require profile dominance at every hop count up to the
  // radius (each check is individually complete, so the conjunction is too,
  // and radius r strictly refines radius r-1).
  SGM_CHECK(options.graphql_profile_radius >= 1);
  SGM_CHECK_MSG(query.vertex_count() <= kMaxQueryVertices,
                "GraphQL refinement keeps one query bit per data vertex");
  Timer round_timer;
  std::vector<FilterRound> rounds;
  CandidateSets candidates = BuildNlfCandidates(query, data);
  if (options.graphql_profile_radius >= 2) {
    ProfileCollector query_profiles(query);
    ProfileCollector data_profiles(data);
    std::vector<std::vector<std::pair<Label, uint32_t>>> needed_per_radius;
    for (Vertex u = 0; u < query.vertex_count(); ++u) {
      needed_per_radius.clear();
      for (uint32_t r = 2; r <= options.graphql_profile_radius; ++r) {
        needed_per_radius.push_back(query_profiles.Collect(u, r));
      }
      std::erase_if(candidates.mutable_candidates(u), [&](Vertex v) {
        for (uint32_t r = 2; r <= options.graphql_profile_radius; ++r) {
          if (!CountsDominated(needed_per_radius[r - 2],
                               data_profiles.Collect(v, r))) {
            return true;
          }
        }
        return false;
      });
    }
  }

  rounds.push_back({"local-pruning", candidates.TotalCount(),
                    round_timer.ElapsedMillis()});

  // Step 2: global refinement. query_mask[w] has bit u' set iff w ∈ C(u'),
  // and is updated as candidates are pruned, so one word answers
  // "w ∈ C(u')" for every query vertex at once.
  std::vector<uint64_t> query_mask(data.vertex_count(), 0);
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex v : candidates.candidates(u)) query_mask[v] |= 1ULL << u;
  }

  // The bipartite graph of one candidate, reused across candidates: the
  // query-neighbor bits of each useful data neighbor (a prefix of
  // right_masks), and the CSR arrays the matcher reads.
  SemiPerfectMatcher matcher;
  std::vector<uint64_t> right_masks;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> right;
  std::array<uint32_t, kMaxQueryVertices> left_of{};
  for (uint32_t round = 0; round < options.graphql_refinement_rounds; ++round) {
    round_timer.Reset();
    bool changed = false;
    for (Vertex u = 0; u < query.vertex_count(); ++u) {
      auto& set = candidates.mutable_candidates(u);
      const auto query_nbrs = query.neighbors(u);
      const auto left_size = static_cast<uint32_t>(query_nbrs.size());
      uint64_t needed = 0;
      for (uint32_t i = 0; i < left_size; ++i) {
        needed |= 1ULL << query_nbrs[i];
        left_of[query_nbrs[i]] = i;
      }
      size_t out = 0;
      for (const Vertex v : set) {
        // One pass over N(v): the OR of the neighbors' query bits rejects v
        // when some neighbor of u has no candidate adjacent to v, and the
        // nonzero masks are the right side of the bipartite graph.
        const auto data_nbrs = data.neighbors(v);
        if (right_masks.size() < data_nbrs.size()) {
          right_masks.resize(data_nbrs.size());
        }
        uint64_t seen = 0;
        uint32_t right_size = 0;
        for (const Vertex w : data_nbrs) {
          const uint64_t bits = query_mask[w] & needed;
          seen |= bits;
          right_masks[right_size] = bits;
          right_size += bits != 0 ? 1 : 0;
        }
        bool feasible = seen == needed;
        // With one query neighbor the test above is the whole matching;
        // fewer useful data neighbors than query neighbors fails Hall's
        // condition outright.
        if (feasible && left_size >= 2) {
          feasible = right_size >= left_size;
          if (feasible) {
            BuildBipartite({right_masks.data(), right_size}, left_of,
                           left_size, &offsets, &right);
            feasible = matcher.Covers(offsets, right, right_size);
          }
        }
        if (feasible) {
          set[out++] = v;
        } else {
          query_mask[v] &= ~(1ULL << u);
          changed = true;
        }
      }
      set.resize(out);
    }
    rounds.push_back({"refine-" + std::to_string(round + 1),
                      candidates.TotalCount(), round_timer.ElapsedMillis()});
    if (!changed) break;
  }

  return {std::move(candidates), std::nullopt, std::move(rounds)};
}

}  // namespace sgm
