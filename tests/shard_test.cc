// Sharded-execution tests (DESIGN.md §13): partitioner invariants, shard
// graph construction, and — most importantly — the exactness property the
// whole subsystem is built around: for every K and partitioner, the sharded
// run delivers exactly the monolithic count and embedding set. The
// straddling-query tests pin the boundary pass specifically: instances
// whose only embeddings cross the cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sgm/core/brute_force.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/query_generator.h"
#include "sgm/plan.h"
#include "sgm/shard/partition.h"
#include "sgm/shard/sharded_graph.h"
#include "sgm/util/prng.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

constexpr uint32_t kShardCounts[] = {1, 2, 7};
constexpr shard::Partitioner kPartitioners[] = {shard::Partitioner::kHash,
                                                shard::Partitioner::kGreedy};

std::vector<std::vector<Vertex>> CollectSharded(
    const Graph& query, const shard::ShardedGraph& sharded,
    const MatchOptions& options) {
  std::vector<std::vector<Vertex>> matches;
  ShardedMatchQuery(query, sharded, options,
                    [&matches](std::span<const Vertex> mapping) {
                      matches.emplace_back(mapping.begin(), mapping.end());
                      return true;
                    });
  std::sort(matches.begin(), matches.end());
  return matches;
}

// Two dense communities with disjoint label alphabets ({0,1} vs {2,3})
// joined by a few 1-2 cross edges. Any embedding of a query containing a
// 1-2 edge must map it onto a cross edge — with the greedy partitioner at
// K=2 these are exactly the cut edges, so every match exercises the
// boundary pass.
Graph MakeTwoCommunityData(uint32_t side = 24, uint32_t cross = 3) {
  std::vector<Label> labels;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (uint32_t i = 0; i < side; ++i) labels.push_back(i % 2);        // A
  for (uint32_t i = 0; i < side; ++i) labels.push_back(2 + i % 2);    // B
  auto connect_blob = [&](uint32_t base) {
    for (uint32_t i = 0; i < side; ++i) {
      edges.push_back({base + i, base + (i + 1) % side});
      edges.push_back({base + i, base + (i + 5) % side});
      edges.push_back({base + i, base + (i + 9) % side});
    }
  };
  connect_blob(0);
  connect_blob(side);
  for (uint32_t c = 0; c < cross; ++c) {
    // label-1 vertex in A to label-2 vertex in B
    edges.push_back({2 * (c * 3 % (side / 2)) + 1, side + 2 * (c * 5 % (side / 2))});
  }
  return MakeGraph(labels, edges);
}

TEST(ShardPartitionTest, NamesRoundTrip) {
  for (const shard::Partitioner p : kPartitioners) {
    EXPECT_EQ(shard::ParsePartitioner(shard::PartitionerName(p)), p);
  }
  EXPECT_FALSE(shard::ParsePartitioner("metis").has_value());
}

TEST(ShardPartitionTest, AssignmentCompleteAndDeterministic) {
  Prng prng(7);
  const Graph data = GenerateErdosRenyi(200, 600, 4, &prng);
  for (const shard::Partitioner method : kPartitioners) {
    for (const uint32_t k : kShardCounts) {
      const shard::Partition a = shard::Partition::Build(data, k, method);
      const shard::Partition b = shard::Partition::Build(data, k, method);
      EXPECT_EQ(a.assignment, b.assignment) << "partitioning must be stable";
      ASSERT_EQ(a.assignment.size(), data.vertex_count());
      uint32_t total = 0;
      for (const uint32_t size : a.shard_sizes) total += size;
      EXPECT_EQ(total, data.vertex_count());
      for (const uint32_t s : a.assignment) EXPECT_LT(s, k);
      // Cut summary consistent with the assignment.
      uint64_t cut = 0;
      for (Vertex v = 0; v < data.vertex_count(); ++v) {
        for (const Vertex w : data.neighbors(v)) {
          if (w > v && a.assignment[v] != a.assignment[w]) ++cut;
        }
      }
      EXPECT_EQ(cut, a.cut_edges);
      if (k == 1) {
        EXPECT_EQ(a.cut_edges, 0u);
      }
    }
  }
}

TEST(ShardPartitionTest, MoreShardsThanVertices) {
  const Graph data = MakeGraph({0, 0, 1}, {{0, 1}, {1, 2}});
  const shard::Partition partition =
      shard::Partition::Build(data, 7, shard::Partitioner::kHash);
  EXPECT_EQ(partition.shard_count, 7u);
  uint32_t nonempty = 0;
  for (const uint32_t size : partition.shard_sizes) nonempty += size > 0;
  EXPECT_LE(nonempty, 3u);
  const shard::ShardedGraph sharded(data, 7, shard::Partitioner::kHash);
  const MatchOptions options = MatchOptions::Recommended(2);
  const Graph query = MakeGraph({0, 0}, {{0, 1}});
  EXPECT_EQ(ShardedMatchQuery(query, sharded, options).result.match_count,
            MatchQuery(query, data, options).match_count);
}

TEST(ShardPartitionTest, GreedySeparatesCommunities) {
  const Graph data = MakeTwoCommunityData();
  const shard::Partition partition =
      shard::Partition::Build(data, 2, shard::Partitioner::kGreedy);
  // The two blobs have 3*side internal edges each and only 3 cross edges;
  // a sane greedy edge-cut keeps the blobs intact.
  EXPECT_LE(partition.cut_edges, 6u);
  const uint32_t side = data.vertex_count() / 2;
  const uint32_t first = partition.assignment[0];
  for (uint32_t v = side; v < data.vertex_count(); ++v) {
    EXPECT_NE(partition.assignment[v], first)
        << "community B vertex co-located with community A";
  }
}

TEST(ShardedGraphTest, ShardInvariants) {
  Prng prng(11);
  const Graph data = GenerateErdosRenyi(150, 450, 3, &prng);
  const shard::ShardedGraph sharded(data, 3, shard::Partitioner::kGreedy);
  const shard::Partition& partition = sharded.partition();
  std::vector<uint32_t> owners(data.vertex_count(), 0);
  for (uint32_t s = 0; s < sharded.shard_count(); ++s) {
    const shard::Shard& shard = sharded.shard(s);
    ASSERT_EQ(shard.local_to_global.size(), shard.graph.vertex_count());
    EXPECT_TRUE(std::is_sorted(shard.local_to_global.begin(),
                               shard.local_to_global.end()));
    for (uint32_t i = 0; i < shard.graph.vertex_count(); ++i) {
      const Vertex global = shard.local_to_global[i];
      EXPECT_EQ(partition.assignment[global], s);
      EXPECT_EQ(shard.graph.label(i), data.label(global));
      ++owners[global];
      // Induced on the owned vertices: an edge is in the shard iff it is
      // in the data graph.
      for (uint32_t j = 0; j < shard.graph.vertex_count(); ++j) {
        EXPECT_EQ(shard.graph.HasEdge(i, j),
                  data.HasEdge(global, shard.local_to_global[j]))
            << "shard " << s << " local edge " << i << "-" << j;
      }
    }
  }
  for (Vertex v = 0; v < data.vertex_count(); ++v) {
    EXPECT_EQ(owners[v], 1u) << "vertex " << v << " must be owned once";
  }
}

TEST(ShardedGraphTest, RegionContainsCutBallAndIsCached) {
  const Graph data = MakeTwoCommunityData();
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kGreedy);
  ASSERT_FALSE(sharded.boundary_vertices().empty());
  const auto region1 = sharded.Region(1);
  ASSERT_NE(region1, nullptr);
  EXPECT_EQ(sharded.Region(1).get(), region1.get()) << "per-radius cache";
  const auto region2 = sharded.Region(2);
  EXPECT_GE(region2->graph.vertex_count(), region1->graph.vertex_count());
  // Every boundary vertex is in the region, and the region subgraph is
  // vertex-induced: edges between region vertices are preserved.
  for (const Vertex b : sharded.boundary_vertices()) {
    EXPECT_TRUE(std::binary_search(region1->local_to_global.begin(),
                                   region1->local_to_global.end(), b));
  }
  for (uint32_t i = 0; i < region1->graph.vertex_count(); ++i) {
    for (const Vertex j : region1->graph.neighbors(i)) {
      EXPECT_TRUE(data.HasEdge(region1->local_to_global[i],
                               region1->local_to_global[j]));
    }
  }
}

TEST(ShardedGraphTest, SingleShardHasNoBoundary) {
  const Graph data = PaperData();
  const shard::ShardedGraph sharded(data, 1, shard::Partitioner::kHash);
  EXPECT_TRUE(sharded.boundary_vertices().empty());
  EXPECT_EQ(sharded.Region(2), nullptr);
  EXPECT_EQ(sharded.shard(0).graph.vertex_count(), data.vertex_count());
}

// The headline property: embeddings that exist only across the cut are
// found, exactly once, by the boundary pass — for a path and a cycle
// straddling the two communities, under every K and both partitioners.
TEST(ShardExecTest, StraddlingPathExactness) {
  const Graph data = MakeTwoCommunityData();
  // Path 0-1-2-3: the 1-2 edge only exists across the communities.
  const Graph query = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  const auto expected = BruteForceMatches(query, data);
  ASSERT_FALSE(expected.empty()) << "instance must have matches";
  MatchOptions options = MatchOptions::Recommended(query.vertex_count());
  options.max_matches = 0;
  for (const shard::Partitioner method : kPartitioners) {
    for (const uint32_t k : kShardCounts) {
      const shard::ShardedGraph sharded(data, k, method);
      const ShardedMatchResult result =
          ShardedMatchQuery(query, sharded, options);
      EXPECT_EQ(result.result.match_count, expected.size())
          << "K=" << k << " partitioner=" << shard::PartitionerName(method);
      EXPECT_EQ(CollectSharded(query, sharded, options), expected);
      if (k == 2 && method == shard::Partitioner::kGreedy) {
        // All matches straddle the greedy cut: the boundary pass must have
        // delivered every one of them.
        uint64_t boundary_matches = 0;
        for (const ShardPassStats& pass : result.sharding.passes) {
          if (pass.boundary) boundary_matches += pass.match_count;
        }
        EXPECT_EQ(boundary_matches, expected.size());
      }
    }
  }
}

TEST(ShardExecTest, StraddlingCycleExactness) {
  // Two communities plus a K2,2 of cross edges between label-1 vertices of
  // A and label-2 vertices of B: the alternating 4-cycle query below embeds
  // only on those four cross edges, so every match uses the cut four times.
  std::vector<Label> labels;
  std::vector<std::pair<Vertex, Vertex>> edges;
  const uint32_t side = 24;
  for (uint32_t i = 0; i < side; ++i) labels.push_back(i % 2);
  for (uint32_t i = 0; i < side; ++i) labels.push_back(2 + i % 2);
  for (uint32_t base : {0u, side}) {
    for (uint32_t i = 0; i < side; ++i) {
      edges.push_back({base + i, base + (i + 1) % side});
      edges.push_back({base + i, base + (i + 5) % side});
    }
  }
  for (const Vertex a : {1u, 3u}) {
    for (const Vertex b : {side, side + 2}) edges.push_back({a, b});
  }
  const Graph data = MakeGraph(labels, edges);
  const Graph query =
      MakeGraph({1, 2, 1, 2}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto expected = BruteForceMatches(query, data);
  // One 4-cycle image; the labeled C4 has 4 label-preserving automorphisms.
  ASSERT_EQ(expected.size(), 4u);
  MatchOptions options = MatchOptions::Optimized(Algorithm::kDPiso);
  options.max_matches = 0;
  for (const shard::Partitioner method : kPartitioners) {
    for (const uint32_t k : kShardCounts) {
      const shard::ShardedGraph sharded(data, k, method);
      EXPECT_EQ(CollectSharded(query, sharded, options), expected)
          << "K=" << k << " partitioner=" << shard::PartitionerName(method);
    }
  }
}

TEST(ShardExecTest, RandomGraphEquivalenceAcrossPresets) {
  Prng prng(23);
  const Graph data = GenerateErdosRenyi(120, 420, 3, &prng);
  const MatchOptions presets[] = {
      MatchOptions::Recommended(4),
      MatchOptions::Classic(Algorithm::kQuickSI),
      MatchOptions::Classic(Algorithm::kCFL),
      MatchOptions::Optimized(Algorithm::kDPiso),
  };
  for (const uint32_t size : {3u, 5u}) {
    const auto query =
        ExtractQuery(data, size, QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value());
    for (MatchOptions options : presets) {
      options.max_matches = 0;
      std::vector<std::vector<Vertex>> reference;
      MatchQuery(*query, data, options,
                 [&reference](std::span<const Vertex> mapping) {
                   reference.emplace_back(mapping.begin(), mapping.end());
                   return true;
                 });
      std::sort(reference.begin(), reference.end());
      for (const shard::Partitioner method : kPartitioners) {
        for (const uint32_t k : kShardCounts) {
          const shard::ShardedGraph sharded(data, k, method);
          EXPECT_EQ(CollectSharded(*query, sharded, options), reference)
              << "K=" << k << " partitioner="
              << shard::PartitionerName(method) << " size=" << size;
        }
      }
    }
  }
}

TEST(ShardExecTest, SingleVertexQuery) {
  const Graph data = PaperData();
  const Graph query = MakeGraph({testing::kLabelD}, {});
  MatchOptions options = MatchOptions::Recommended(1);
  for (const uint32_t k : kShardCounts) {
    const shard::ShardedGraph sharded(data, k, shard::Partitioner::kHash);
    const ShardedMatchResult result =
        ShardedMatchQuery(query, sharded, options);
    EXPECT_EQ(result.result.match_count, 4u);  // v8, v10, v11, v12
    EXPECT_EQ(result.sharding.boundary_radius, 0u)
        << "no boundary pass for single-vertex queries";
  }
}

TEST(ShardExecTest, SharedBudgetAcrossPasses) {
  const Graph data = MakeTwoCommunityData();
  const Graph query = MakeGraph({0, 1}, {{0, 1}});  // many in-community matches
  const uint64_t total =
      MatchQuery(query, data, MatchOptions::Recommended(2)).match_count;
  ASSERT_GT(total, 10u);
  MatchOptions options = MatchOptions::Recommended(2);
  options.max_matches = 7;
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kGreedy);
  const ShardedMatchResult result = ShardedMatchQuery(query, sharded, options);
  EXPECT_EQ(result.result.match_count, 7u);
  EXPECT_TRUE(result.result.enumerate.reached_match_limit);
  uint64_t attributed = 0;
  for (const ShardPassStats& pass : result.sharding.passes) {
    attributed += pass.match_count;
  }
  EXPECT_EQ(attributed, 7u) << "per-pass counts must sum to the budget";
}

TEST(ShardExecTest, BudgetNotReachedFlagStaysClear) {
  const Graph data = PaperData();
  const Graph query = PaperQuery();
  MatchOptions options = MatchOptions::Recommended(query.vertex_count());
  options.max_matches = 100;
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kHash);
  const ShardedMatchResult result = ShardedMatchQuery(query, sharded, options);
  EXPECT_EQ(result.result.match_count, 2u);  // Figure 1 has two matches
  EXPECT_FALSE(result.result.enumerate.reached_match_limit);
  EXPECT_FALSE(result.result.enumerate.timed_out);
}

TEST(ShardExecTest, CallbackVetoStopsEveryPass) {
  const Graph data = MakeTwoCommunityData();
  const Graph query = MakeGraph({0, 1}, {{0, 1}});
  MatchOptions options = MatchOptions::Recommended(2);
  options.max_matches = 0;
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kGreedy);
  std::atomic<uint64_t> seen{0};
  const ShardedMatchResult result = ShardedMatchQuery(
      query, sharded, options, [&seen](std::span<const Vertex>) {
        return seen.fetch_add(1) + 1 < 3;  // veto the third delivery
      });
  // Delivered-match semantics: the vetoed third match is still counted.
  EXPECT_EQ(result.result.match_count, 3u);
  EXPECT_EQ(seen.load(), 3u);
}

TEST(ShardExecTest, CancelFlagAbortsShardedRun) {
  const Graph data = MakeTwoCommunityData();
  const Graph query = MakeGraph({0, 1}, {{0, 1}});
  MatchOptions options = MatchOptions::Recommended(2);
  options.max_matches = 0;
  std::atomic<bool> cancel{true};  // pre-cancelled: nothing may be delivered
  options.cancel_flag = &cancel;
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kGreedy);
  const ShardedMatchResult result = ShardedMatchQuery(query, sharded, options);
  EXPECT_FALSE(result.result.enumerate.timed_out);
  EXPECT_EQ(result.result.match_count, 0u)
      << "a pre-set cancel flag must abort before any delivery";
}

TEST(ShardExecTest, MatchQueryDispatchesOnShardsOption) {
  const Graph data = MakeTwoCommunityData();
  const Graph query = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  MatchOptions options = MatchOptions::Recommended(query.vertex_count());
  options.max_matches = 0;
  const uint64_t reference = MatchQuery(query, data, options).match_count;
  options.shards = 4;
  options.shard_partitioner = shard::Partitioner::kGreedy;
  EXPECT_EQ(MatchQuery(query, data, options).match_count, reference);
}

// Aux structures of shard-local passes must shrink with K: that is the
// memory story of sharding (per-shard aux <= 1/2 of the monolithic aux at
// K=4; checked at benchmark scale in bench_fig18_large_graph, structurally
// here).
TEST(ShardExecTest, PerShardAuxShrinks) {
  Prng prng(41);
  const Graph data = GenerateErdosRenyi(400, 1600, 2, &prng);
  const auto query = ExtractQuery(data, 4, QueryDensity::kAny, &prng);
  ASSERT_TRUE(query.has_value());
  MatchOptions options = MatchOptions::Recommended(4);
  const auto mono = BuildMatchPlan(*query, data, options);
  ASSERT_GT(mono->aux_memory_bytes, 0u);
  const shard::ShardedGraph sharded(data, 4, shard::Partitioner::kHash);
  const ShardedMatchResult result = ShardedMatchQuery(*query, sharded, options);
  size_t max_shard_aux = 0;
  uint32_t local_passes = 0;
  for (const ShardPassStats& pass : result.sharding.passes) {
    if (pass.boundary) continue;
    ++local_passes;
    EXPECT_EQ(pass.owned_vertices, pass.graph_vertices);
    max_shard_aux = std::max(max_shard_aux, pass.aux_memory_bytes);
  }
  EXPECT_EQ(local_passes, 4u);
  EXPECT_LT(max_shard_aux, mono->aux_memory_bytes / 2)
      << "shard-local aux must be well below the monolithic aux";
}

// Passes enumerate one after another in a fixed order, so even a budgeted
// run — where the budget decides which embeddings are delivered at all —
// hands the callback the same sequence every time.
TEST(ShardExecTest, BudgetedDeliveriesAreDeterministic) {
  const Graph data = MakeTwoCommunityData();
  const Graph query = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  MatchOptions options = MatchOptions::Recommended(query.vertex_count());
  const uint64_t total = MatchQuery(query, data, options).match_count;
  options.max_matches = total / 2;
  ASSERT_GT(options.max_matches, 10u);
  const shard::ShardedGraph sharded(data, 4, shard::Partitioner::kHash);
  std::vector<std::vector<Vertex>> runs[2];
  for (auto& run : runs) {
    const ShardedMatchResult result = ShardedMatchQuery(
        query, sharded, options, [&run](std::span<const Vertex> mapping) {
          run.emplace_back(mapping.begin(), mapping.end());
          return true;
        });
    EXPECT_EQ(result.result.match_count, options.max_matches);
    EXPECT_TRUE(result.result.enumerate.reached_match_limit);
    uint32_t delivering_passes = 0;
    for (const ShardPassStats& pass : result.sharding.passes) {
      delivering_passes += pass.match_count > 0;
    }
    EXPECT_GE(delivering_passes, 2u) << "the budget must span passes";
  }
  EXPECT_EQ(runs[0].size(), options.max_matches);
  EXPECT_EQ(runs[0], runs[1]);
}

// The caller's cancel flag reaches the running pass directly: set from
// another thread after the first delivery, it stops a count that would
// otherwise run for minutes.
TEST(ShardExecTest, CancelFlagStopsRunningShardedCount) {
  // Unlabeled K24: every path-6 image is a match, 24!/18! ~ 9.7e7 of them.
  constexpr uint32_t kN = 24;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < kN; ++u) {
    for (Vertex v = u + 1; v < kN; ++v) edges.push_back({u, v});
  }
  const Graph data = MakeGraph(std::vector<Label>(kN, 0), edges);
  const Graph query = MakeGraph(std::vector<Label>(6, 0),
                                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const uint64_t total = 24ull * 23 * 22 * 21 * 20 * 19;
  MatchOptions options = MatchOptions::Recommended(query.vertex_count());
  options.max_matches = 0;
  std::atomic<bool> cancel{false};
  options.cancel_flag = &cancel;
  const shard::ShardedGraph sharded(data, 2, shard::Partitioner::kHash);
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) std::this_thread::yield();
    cancel.store(true);
  });
  const ShardedMatchResult result = ShardedMatchQuery(
      query, sharded, options, [&started](std::span<const Vertex>) {
        started.store(true, std::memory_order_relaxed);
        return true;
      });
  canceller.join();
  EXPECT_GT(result.result.match_count, 0u);
  EXPECT_LT(result.result.match_count, total);
  EXPECT_FALSE(result.result.enumerate.timed_out);
  EXPECT_FALSE(result.result.enumerate.reached_match_limit);
}

}  // namespace
}  // namespace sgm
