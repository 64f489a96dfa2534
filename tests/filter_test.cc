#include "sgm/core/filter/filter.h"

#include <gtest/gtest.h>

#include <vector>

#include "sgm/graph/generators.h"
#include "sgm/graph/query_generator.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

std::vector<Vertex> AsVector(std::span<const Vertex> span) {
  return {span.begin(), span.end()};
}

TEST(LdfFilterTest, LabelAndDegreeSemantics) {
  // Query vertex: label 0, degree 2.
  const Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  // Data: v0 label 0 degree 2 (ok), v3 label 0 degree 1 (too small),
  // v4 label 1 (wrong label).
  const Graph data =
      MakeGraph({0, 1, 1, 0, 1}, {{0, 1}, {0, 2}, {3, 1}});
  const CandidateSets ldf = BuildLdfCandidates(query, data);
  EXPECT_EQ(AsVector(ldf.candidates(0)), (std::vector<Vertex>{0}));
}

TEST(LdfFilterTest, LabelAbsentFromDataGivesEmptySet) {
  const Graph query = MakeGraph({5, 5, 5}, {{0, 1}, {1, 2}});
  const Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  const CandidateSets ldf = BuildLdfCandidates(query, data);
  EXPECT_TRUE(ldf.AnyEmpty());
}

TEST(NlfFilterTest, NeighborLabelCountsMatter) {
  // u0 (label 0) has two label-1 neighbors.
  const Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  // v0: two label-1 neighbors (passes). v3: one label-1 and one label-2
  // neighbor (fails NLF despite matching degree).
  const Graph data = MakeGraph({0, 1, 1, 0, 1, 2},
                               {{0, 1}, {0, 2}, {3, 4}, {3, 5}});
  const CandidateSets nlf = BuildNlfCandidates(query, data);
  EXPECT_EQ(AsVector(nlf.candidates(0)), (std::vector<Vertex>{0}));
  const CandidateSets ldf = BuildLdfCandidates(query, data);
  EXPECT_EQ(ldf.Count(0), 2u);  // LDF alone keeps both
}

TEST(FilterTest, NlfSubsetOfLdf) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const CandidateSets ldf = BuildLdfCandidates(query, data);
  const CandidateSets nlf = BuildNlfCandidates(query, data);
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex v : nlf.candidates(u)) {
      EXPECT_TRUE(ldf.Contains(u, v));
    }
  }
}

TEST(FilterTest, AdvancedFiltersSubsetOfNlf) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const CandidateSets nlf = BuildNlfCandidates(query, data);
  for (const FilterMethod method :
       {FilterMethod::kCFL, FilterMethod::kCECI, FilterMethod::kDPiso,
        FilterMethod::kSteady}) {
    const FilterResult result = RunFilter(method, query, data);
    for (Vertex u = 0; u < query.vertex_count(); ++u) {
      for (const Vertex v : result.candidates.candidates(u)) {
        EXPECT_TRUE(nlf.Contains(u, v))
            << FilterMethodName(method) << " kept non-NLF candidate " << v;
      }
    }
  }
}

TEST(FilterTest, SteadyIsAtLeastAsTightAsBoundedRefinements) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const FilterResult steady = RunFilter(FilterMethod::kSteady, query, data);
  for (const FilterMethod method :
       {FilterMethod::kCFL, FilterMethod::kCECI, FilterMethod::kDPiso}) {
    const FilterResult result = RunFilter(method, query, data);
    EXPECT_LE(steady.candidates.TotalCount(), result.candidates.TotalCount())
        << FilterMethodName(method);
  }
}

TEST(FilterTest, TreeBuildingFiltersReportTree) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  for (const FilterMethod method :
       {FilterMethod::kCFL, FilterMethod::kCECI, FilterMethod::kDPiso}) {
    const FilterResult result = RunFilter(method, query, data);
    ASSERT_TRUE(result.bfs_tree.has_value()) << FilterMethodName(method);
    EXPECT_EQ(result.bfs_tree->order.size(), query.vertex_count());
  }
  const FilterResult gql = RunFilter(FilterMethod::kGraphQL, query, data);
  EXPECT_FALSE(gql.bfs_tree.has_value());
}

TEST(FilterTest, CandidateSetsAreSorted) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  for (const FilterMethod method :
       {FilterMethod::kLDF, FilterMethod::kNLF, FilterMethod::kGraphQL,
        FilterMethod::kCFL, FilterMethod::kCECI, FilterMethod::kDPiso,
        FilterMethod::kSteady}) {
    const FilterResult result = RunFilter(method, query, data);
    for (Vertex u = 0; u < query.vertex_count(); ++u) {
      const auto cands = result.candidates.candidates(u);
      EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()))
          << FilterMethodName(method);
    }
  }
}

TEST(FilterTest, PruneByNeighborConstraint) {
  const Graph data = PaperData();
  std::vector<uint8_t> scratch(data.vertex_count(), 0);
  // Candidates {v2, v4, v6}; constraint set {v1, v3, v5}: v6 has no neighbor
  // there.
  std::vector<Vertex> candidates = {2, 4, 6};
  const std::vector<Vertex> constraint = {1, 3, 5};
  EXPECT_TRUE(
      PruneByNeighborConstraint(data, &candidates, constraint, &scratch));
  EXPECT_EQ(candidates, (std::vector<Vertex>{2, 4}));
  // Second application changes nothing.
  EXPECT_FALSE(
      PruneByNeighborConstraint(data, &candidates, constraint, &scratch));
  // Scratch is restored to all-zero.
  for (const uint8_t flag : scratch) EXPECT_EQ(flag, 0);
}

TEST(FilterTest, GraphQlRefinementRoundsAreConfigurable) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  FilterOptions one_round;
  one_round.graphql_refinement_rounds = 1;
  FilterOptions zero_rounds;
  zero_rounds.graphql_refinement_rounds = 0;
  const FilterResult local_only =
      RunFilter(FilterMethod::kGraphQL, query, data, zero_rounds);
  const FilterResult refined =
      RunFilter(FilterMethod::kGraphQL, query, data, one_round);
  EXPECT_GE(local_only.candidates.TotalCount(),
            refined.candidates.TotalCount());
}

TEST(FilterTest, GraphQlRoundTotalsArePinned) {
  // Per-round sums of |C(u)| (local pruning, then each refinement round) of
  // 30 extracted queries of 4-12 vertices at radius 1 and 2. Recorded with
  // the original member-array refinement; any faster implementation must
  // reproduce them exactly.
  const std::vector<std::vector<std::vector<uint64_t>>> expected = {
      {{563, 554, 554}, {563, 554, 554}},
      {{674, 635, 634}, {674, 635, 634}},
      {{838, 785, 780}, {838, 785, 780}},
      {{892, 841, 834}, {892, 841, 834}},
      {{965, 927, 924}, {965, 927, 924}},
      {{1273, 1187, 1185}, {1272, 1187, 1185}},
      {{1385, 1292, 1284}, {1385, 1292, 1284}},
      {{1362, 1251, 1245}, {1362, 1251, 1245}},
      {{1248, 956, 913}, {1245, 956, 913}},
      {{549, 531, 531}, {549, 531, 531}},
      {{703, 672, 672}, {703, 672, 672}},
      {{803, 760, 758}, {802, 760, 758}},
      {{823, 693, 685}, {821, 693, 685}},
      {{1031, 926, 910}, {1027, 926, 910}},
      {{1105, 976, 967}, {1103, 976, 967}},
      {{1127, 983, 973}, {1126, 982, 973}},
      {{1272, 1185, 1178}, {1271, 1185, 1178}},
      {{1444, 1317, 1301}, {1442, 1317, 1301}},
      {{587, 569, 569}, {587, 569, 569}},
      {{716, 680, 677}, {715, 680, 677}},
      {{773, 737, 734}, {773, 737, 734}},
      {{805, 705, 683}, {804, 705, 683}},
      {{966, 880, 871}, {965, 880, 871}},
      {{978, 802, 778}, {978, 802, 778}},
      {{1354, 1294, 1292}, {1353, 1294, 1292}},
      {{1266, 1045, 1024}, {1265, 1045, 1024}},
      {{1494, 1359, 1351}, {1491, 1359, 1351}},
      {{579, 540, 540}, {575, 540, 540}},
      {{734, 677, 677}, {733, 677, 677}},
      {{777, 737, 737}, {777, 737, 737}},
  };
  Prng prng(1515);
  const Graph data = GenerateRmat(1500, 9000, 6, &prng);
  for (uint32_t i = 0; i < expected.size(); ++i) {
    const auto query = ExtractQuery(data, 4 + i % 9, QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value()) << "query " << i;
    for (uint32_t radius : {1u, 2u}) {
      FilterOptions options;
      options.graphql_profile_radius = radius;
      const FilterResult result =
          RunFilter(FilterMethod::kGraphQL, *query, data, options);
      std::vector<uint64_t> totals;
      for (const FilterRound& round : result.rounds) {
        totals.push_back(round.total_candidates);
      }
      EXPECT_EQ(totals, expected[i][radius - 1])
          << "query " << i << " radius " << radius;
    }
  }
}

TEST(FilterTest, GraphQlPrunesWhenNeighborsShareOneCandidate) {
  // u0 (B) has two A-neighbors u1 and u2, each also adjacent to a C leaf.
  // v0 (B) has two A-neighbors, but v2 has degree 1 and is a candidate of
  // neither u1 nor u2; v1 is a candidate of both. Every neighbor of u0 thus
  // has a candidate next to v0, yet u1 and u2 cannot both be matched:
  // there is no semi-perfect matching and v0 must go.
  const Graph query = MakeGraph({1, 0, 0, 2, 2},
                                {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const Graph data = MakeGraph({1, 0, 0, 2}, {{0, 1}, {0, 2}, {1, 3}});
  FilterOptions local_only;
  local_only.graphql_refinement_rounds = 0;
  const FilterResult local =
      RunFilter(FilterMethod::kGraphQL, query, data, local_only);
  EXPECT_EQ(AsVector(local.candidates.candidates(0)),
            (std::vector<Vertex>{0}));
  EXPECT_EQ(AsVector(local.candidates.candidates(1)),
            (std::vector<Vertex>{1}));
  EXPECT_EQ(AsVector(local.candidates.candidates(2)),
            (std::vector<Vertex>{1}));
  const FilterResult refined = RunFilter(FilterMethod::kGraphQL, query, data);
  EXPECT_TRUE(refined.candidates.candidates(0).empty());
}

TEST(FilterTest, MethodNames) {
  EXPECT_STREQ(FilterMethodName(FilterMethod::kLDF), "LDF");
  EXPECT_STREQ(FilterMethodName(FilterMethod::kGraphQL), "GQL");
  EXPECT_STREQ(FilterMethodName(FilterMethod::kSteady), "STEADY");
}

}  // namespace
}  // namespace sgm
