#include "sgm/core/aux_structure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "sgm/core/filter/filter.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/set_intersection.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

class AuxStructureTest : public ::testing::Test {
 protected:
  AuxStructureTest()
      : query_(PaperQuery()),
        data_(PaperData()),
        candidates_(BuildNlfCandidates(query_, data_)) {}

  Graph query_;
  Graph data_;
  CandidateSets candidates_;
};

TEST_F(AuxStructureTest, AllEdgesIndexesBothDirections) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  for (Vertex u = 0; u < query_.vertex_count(); ++u) {
    for (const Vertex w : query_.neighbors(u)) {
      EXPECT_TRUE(aux.HasIndex(u, w));
      EXPECT_TRUE(aux.HasIndex(w, u));
    }
  }
  EXPECT_FALSE(aux.HasIndex(0, 3));  // u0-u3 is not a query edge
}

TEST_F(AuxStructureTest, ListsAreNeighborsWithinCandidates) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  for (Vertex u = 0; u < query_.vertex_count(); ++u) {
    for (const Vertex w : query_.neighbors(u)) {
      const auto from_cands = candidates_.candidates(u);
      for (uint32_t ci = 0; ci < from_cands.size(); ++ci) {
        const Vertex v = from_cands[ci];
        const auto list = aux.NeighborsByIndex(u, ci, w);
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
        for (const Vertex x : list) {
          EXPECT_TRUE(data_.HasEdge(v, x));
          EXPECT_TRUE(candidates_.Contains(w, x));
        }
        // Completeness of the list: every candidate neighbor appears.
        for (const Vertex x : candidates_.candidates(w)) {
          if (data_.HasEdge(v, x)) {
            EXPECT_TRUE(std::binary_search(list.begin(), list.end(), x));
          }
        }
      }
    }
  }
}

TEST_F(AuxStructureTest, NeighborsOfVertexMatchesByIndex) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  const auto cands = candidates_.candidates(1);
  ASSERT_FALSE(cands.empty());
  const Vertex v = cands[0];
  const auto by_vertex = aux.NeighborsOfVertex(1, v, 0);
  const auto by_index = aux.NeighborsByIndex(1, 0, 0);
  ASSERT_EQ(by_vertex.size(), by_index.size());
  EXPECT_TRUE(std::equal(by_vertex.begin(), by_vertex.end(),
                         by_index.begin()));
}

TEST_F(AuxStructureTest, TreeEdgesScope) {
  // BFS tree of the paper query rooted at u0: parents u1<-u0, u2<-u0,
  // u3<-u1.
  const std::vector<Vertex> parent = {kInvalidVertex, 0, 0, 1};
  const AuxStructure aux =
      AuxStructure::BuildTreeEdges(query_, data_, candidates_, parent);
  EXPECT_TRUE(aux.HasIndex(0, 1));
  EXPECT_TRUE(aux.HasIndex(1, 0));
  EXPECT_TRUE(aux.HasIndex(1, 3));
  EXPECT_FALSE(aux.HasIndex(1, 2));  // non-tree edge not indexed
  EXPECT_FALSE(aux.HasIndex(2, 3));
}

TEST_F(AuxStructureTest, CandidateEdgeCountAndMemory) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  EXPECT_GT(aux.CandidateEdgeCount(), 0u);
  EXPECT_GT(aux.MemoryBytes(), 0u);
}

TEST_F(AuxStructureTest, PaperExampleAdjacency) {
  // Example 3.2: given v4 in C(u1), A_{u3}^{u1}(v4) = {v12} after NLF
  // filtering (the paper's {v10, v12} refers to the pre-refinement CFL
  // structure; with NLF candidates v4's only C(u3)-neighbor is v12).
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  const auto list = aux.NeighborsOfVertex(1, 4, 3);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], 12u);
}

// Rows seen by the property test on each side of the galloping guard.
struct RowSides {
  uint64_t walked = 0;
  uint64_t galloped = 0;
};

// Checks every indexed directed pair of `aux` against the definition: row r
// of (u -> u') equals N(v) ∩ C(u') for the r-th candidate v of C(u), and a
// bitmap row, where present, decodes to exactly that list.
void ExpectRowsAreIntersections(const Graph& query, const Graph& data,
                                const CandidateSets& candidates,
                                const AuxStructure& aux, RowSides* sides) {
  std::vector<Vertex> expected;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex w : query.neighbors(u)) {
      if (!aux.HasIndex(u, w)) continue;
      const auto from_cands = candidates.candidates(u);
      const auto to_cands = candidates.candidates(w);
      for (uint32_t ci = 0; ci < from_cands.size(); ++ci) {
        const auto nbrs = data.neighbors(from_cands[ci]);
        expected.clear();
        std::set_intersection(nbrs.begin(), nbrs.end(), to_cands.begin(),
                              to_cands.end(), std::back_inserter(expected));
        const auto list = aux.NeighborsByIndex(u, ci, w);
        ASSERT_TRUE(std::equal(list.begin(), list.end(), expected.begin(),
                               expected.end()))
            << "row " << ci << " of (" << u << " -> " << w << ")";
        if (!to_cands.empty() &&
            nbrs.size() / to_cands.size() >= kGallopingRatio) {
          ++sides->galloped;
        } else {
          ++sides->walked;
        }
        if (!aux.HasBitmap(u, w)) continue;
        const auto row = aux.BitmapByIndex(u, ci, w);
        std::vector<Vertex> decoded;
        for (uint32_t i = 0; i < to_cands.size(); ++i) {
          if ((row[i >> 6] >> (i & 63)) & 1) decoded.push_back(to_cands[i]);
        }
        ASSERT_EQ(decoded, expected)
            << "bitmap row " << ci << " of (" << u << " -> " << w << ")";
      }
    }
  }
}

// Seeded RMAT graphs with extracted queries, NLF and GraphQL candidates,
// both edge scopes, and the bitmap sidecar off and around its word
// boundary. Power-law hubs against the small candidate sets of many labels
// put rows on both sides of the galloping guard.
TEST(AuxStructurePropertyTest, RowsEqualNeighborhoodIntersections) {
  Prng prng(4242);
  RowSides sides;
  uint64_t bitmap_pairs = 0;
  for (int round = 0; round < 6; ++round) {
    const Graph data = GenerateRmat(2048, 16000, 16 + 4 * round, &prng);
    for (int q = 0; q < 4; ++q) {
      const auto query = ExtractQuery(
          data, 4 + static_cast<uint32_t>(prng.NextBounded(6)),
          q % 2 == 0 ? QueryDensity::kAny : QueryDensity::kDense, &prng);
      if (!query.has_value()) continue;
      const BfsTree tree = BuildBfsTree(*query, 0);
      for (const FilterMethod method :
           {FilterMethod::kNLF, FilterMethod::kGraphQL}) {
        const CandidateSets candidates =
            RunFilter(method, *query, data).candidates;
        for (const uint32_t max_candidates : {0u, 63u, 64u, 65u}) {
          AuxBuildOptions build;
          build.build_bitmaps = max_candidates > 0;
          build.bitmap_max_candidates = max_candidates;
          const AuxStructure all =
              AuxStructure::BuildAllEdges(*query, data, candidates, build);
          ExpectRowsAreIntersections(*query, data, candidates, all, &sides);
          const AuxStructure tree_edges = AuxStructure::BuildTreeEdges(
              *query, data, candidates, tree.parent, build);
          ExpectRowsAreIntersections(*query, data, candidates, tree_edges,
                                     &sides);
          for (Vertex u = 0; u < query->vertex_count(); ++u) {
            for (const Vertex w : query->neighbors(u)) {
              bitmap_pairs += all.HasBitmap(u, w) ? 1 : 0;
            }
          }
        }
      }
    }
  }
  // The instances must exercise both row kinds and the sidecar.
  EXPECT_GT(sides.walked, 0u);
  EXPECT_GT(sides.galloped, 0u);
  EXPECT_GT(bitmap_pairs, 0u);
}

TEST(AuxStructurePropertyTest, EmptyTargetCandidatesGiveEmptyRows) {
  // Path query u0 - u1 with C(u1) = {} against a star whose center is the
  // only candidate of u0.
  const Graph query = MakeGraph({0, 1}, {{0, 1}});
  const Graph data = MakeGraph({0, 1, 1, 1}, {{0, 1}, {0, 2}, {0, 3}});
  CandidateSets candidates(2);
  candidates.mutable_candidates(0) = {0};
  AuxBuildOptions build;
  build.build_bitmaps = true;
  const std::vector<std::pair<Vertex, Vertex>> edges = {{0, 1}};
  const AuxStructure aux(query, data, candidates, edges, build);
  ASSERT_TRUE(aux.HasIndex(0, 1));
  EXPECT_TRUE(aux.NeighborsByIndex(0, 0, 1).empty());
  EXPECT_FALSE(aux.HasBitmap(0, 1));
  EXPECT_EQ(aux.CandidateEdgeCount(), 0u);
}

}  // namespace
}  // namespace sgm
