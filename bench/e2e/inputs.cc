#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sgm/graph/generators.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/timer.h"

namespace sgm::e2e {
namespace {

// Independent PRNG streams per input part, so e.g. the update stream does
// not shift when the query generator consumes a different number of draws.
enum Stream : uint64_t {
  kGraphStream = 1,
  kPoolStream,
  kSequenceStream,
  kUpdateStream,
  kContinuousStream,
};

// The data graphs, query pools and continuous queries are fixed datasets,
// as the paper's are: they come from this seed whatever --seed says. The
// run's seed draws the traffic over them (request order and popularity,
// update batches), so runs with different seeds stay comparable while no
// two of them replay the same request stream.
constexpr uint64_t kDatasetSeed = 2020;

Prng StreamPrng(uint64_t seed, Stream stream) {
  return Prng(seed ^ (static_cast<uint64_t>(stream) * 0x9e3779b97f4a7c15ULL));
}

uint32_t Scaled(double base, double scale, uint32_t floor) {
  return std::max(floor, static_cast<uint32_t>(std::lround(base * scale)));
}

// One batch per kRequestsPerBatch requests: enough for 192 000 requests,
// two windows (untraced + traced) of 60 s each at 1600 req/s, about the
// seed commit's rate. The writer stops when they run out.
constexpr uint32_t kUpdateBatches = 6000;

// A query of `size` vertices in `density`, falling back to any density and
// then to smaller sizes, so tiny (smoke-scale) graphs still fill the pool.
Graph ExtractOrFallback(const Graph& data, uint32_t size, QueryDensity density,
                        Prng* prng) {
  for (uint32_t s = size; s >= 3; --s) {
    if (auto q = ExtractQuery(data, s, density, prng, 200)) return *q;
    if (auto q = ExtractQuery(data, s, QueryDensity::kAny, prng, 200)) {
      return *q;
    }
  }
  SGM_CHECK_MSG(false, "data graph too small to extract a query");
  return Graph();
}

// Community-structured graph: `blocks` Erdős–Rényi blocks joined by a few
// cross edges, the shape a greedy edge-cut partitioner recovers. Built as in
// bench_fig18's sharded section, whose helpers are private to that binary.
Graph MakeCommunityGraph(uint32_t vertices, uint32_t blocks,
                         uint32_t intra_edges, uint32_t cross_edges,
                         uint32_t labels, Prng* prng) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < vertices; ++v) {
    builder.AddVertex(static_cast<Label>(prng->NextBounded(labels)));
  }
  const uint32_t block = vertices / blocks;
  for (uint32_t added = 0; added < intra_edges;) {
    const Vertex base = static_cast<Vertex>(prng->NextBounded(blocks)) * block;
    const auto u = static_cast<Vertex>(base + prng->NextBounded(block));
    const auto v = static_cast<Vertex>(base + prng->NextBounded(block));
    if (builder.AddEdge(u, v)) ++added;
  }
  for (uint32_t added = 0; added < cross_edges;) {
    const auto c1 = static_cast<uint32_t>(prng->NextBounded(blocks));
    const auto c2 = static_cast<uint32_t>(prng->NextBounded(blocks));
    if (c1 == c2) continue;
    const auto u = static_cast<Vertex>(c1 * block + prng->NextBounded(block));
    const auto v = static_cast<Vertex>(c2 * block + prng->NextBounded(block));
    if (builder.AddEdge(u, v)) ++added;
  }
  return builder.Build();
}

// Ego-net query: a center of degree >= 5 plus five of its neighbors,
// induced. Every query edge touches the center, so the sharded boundary
// pass stays small.
std::vector<Graph> MakeEgoQueries(const Graph& data, uint32_t count,
                                  Prng* prng) {
  std::vector<Graph> queries;
  while (queries.size() < count) {
    const auto center =
        static_cast<Vertex>(prng->NextBounded(data.vertex_count()));
    const auto neighbors = data.neighbors(center);
    if (neighbors.size() < 5) continue;
    std::vector<Vertex> picked = {center};
    while (picked.size() < 6) {
      const Vertex v = neighbors[prng->NextBounded(neighbors.size())];
      if (std::find(picked.begin(), picked.end(), v) == picked.end()) {
        picked.push_back(v);
      }
    }
    std::sort(picked.begin(), picked.end());
    queries.push_back(InducedSubgraph(data, picked));
  }
  return queries;
}

// Uniform traffic as shuffled rounds: every query once per round of n, in
// a seeded order. Unlike independent draws, any window of the sequence
// holds each query in the same proportion whatever the seed, so a
// time-bounded window does the same mix of cheap and expensive queries.
std::vector<uint32_t> ShuffledRounds(uint32_t n, uint32_t length,
                                     Prng* prng) {
  std::vector<uint32_t> sequence;
  std::vector<uint32_t> round(n);
  while (sequence.size() < length) {
    for (uint32_t i = 0; i < n; ++i) round[i] = i;
    for (uint32_t i = n; i > 1; --i) {
      std::swap(round[i - 1], round[prng->NextBounded(i)]);
    }
    sequence.insert(sequence.end(), round.begin(), round.end());
  }
  sequence.resize(length);
  return sequence;
}

struct Fnv {
  uint64_t hash = 0xcbf29ce484222325ULL;
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  void Add(const Graph& graph) {
    Add(graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
      Add(graph.label(v));
      Add(graph.degree(v));
      for (const Vertex w : graph.neighbors(v)) Add(w);
    }
  }
};

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBuildHeavy:
      return "build-heavy";
    case Workload::kEnumHeavy:
      return "enum-heavy";
    case Workload::kUpdateMix:
      return "update-mix";
    case Workload::kShardK4:
      return "shard-k4";
  }
  return "unknown";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w : {Workload::kBuildHeavy, Workload::kEnumHeavy,
                           Workload::kUpdateMix, Workload::kShardK4}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

MatchOptions Inputs::OptionsFor(const Graph& query) const {
  MatchOptions options;
  switch (workload) {
    case Workload::kBuildHeavy:
    case Workload::kUpdateMix:
      options.max_matches = 1000;
      break;
    case Workload::kEnumHeavy:
      options = MatchOptions::Recommended(query.vertex_count());
      options.max_matches = 100000;
      break;
    case Workload::kShardK4:
      options = MatchOptions::Optimized(Algorithm::kGraphQL);
      options.use_failing_sets = true;
      options.max_matches = 100000;
      break;
  }
  return options;
}

dynamic::UpdateStream MakeUpdateStream(const Graph& data, uint32_t batches,
                                       Prng* prng) {
  dynamic::StreamGenOptions gen;
  gen.batches = batches;
  gen.max_ops_per_batch = kMaxOpsPerBatch;
  gen.add_edge_weight = 0.5;
  gen.remove_edge_weight = 0.5;
  gen.add_vertex_weight = 0.0;
  gen.remove_vertex_weight = 0.0;
  return dynamic::GenerateUpdateStream(data, gen, prng);
}

Inputs MakeInputs(Workload workload, uint64_t seed, double scale,
                  SetupTimes* times) {
  Inputs in;
  in.workload = workload;
  in.service.worker_count = kWorkers;
  Prng graph_prng = StreamPrng(kDatasetSeed, kGraphStream);
  Prng pool_prng = StreamPrng(kDatasetSeed, kPoolStream);
  Prng sequence_prng = StreamPrng(seed, kSequenceStream);

  Timer graph_timer;
  switch (workload) {
    case Workload::kBuildHeavy:
    case Workload::kUpdateMix:
      in.data = GenerateRmat(Scaled(20000, scale, 64), Scaled(60000, scale, 192),
                             12, &graph_prng);
      break;
    case Workload::kEnumHeavy:
      in.data = GenerateRmat(Scaled(39635, scale, 64),
                             Scaled(131233, scale, 212), 5, &graph_prng);
      break;
    case Workload::kShardK4:
      in.data = MakeCommunityGraph(Scaled(30000, scale, 240), 8,
                                   Scaled(120000, scale, 960), 24, 4,
                                   &graph_prng);
      break;
  }
  if (times != nullptr) times->graph_s = graph_timer.ElapsedSeconds();

  Timer query_timer;
  switch (workload) {
    case Workload::kBuildHeavy:
    case Workload::kUpdateMix: {
      // Sizes 6/8/10/12 crossed with dense/sparse/any, round-robin.
      constexpr uint32_t kSizes[] = {6, 8, 10, 12};
      constexpr QueryDensity kDensities[] = {
          QueryDensity::kDense, QueryDensity::kSparse, QueryDensity::kAny};
      const uint32_t pool_size = Scaled(2000, scale, 24);
      for (uint32_t i = 0; i < pool_size; ++i) {
        in.pool.push_back(ExtractOrFallback(in.data, kSizes[i % 4],
                                            kDensities[(i / 4) % 3],
                                            &pool_prng));
      }
      const uint32_t length =
          Scaled(workload == Workload::kBuildHeavy ? 80000 : 40000, scale, 200);
      // Which query is popular is part of the dataset; the seed draws the
      // requests.
      Prng rank_prng = StreamPrng(kDatasetSeed, kSequenceStream);
      in.sequence = ZipfSequence(pool_size, length, 1.0, &rank_prng,
                                 &sequence_prng);
      in.warmup = length / 10;
      // The plan working set (~74 MB at full scale) is far larger than the
      // cache, so misses and evictions continue in steady state.
      in.service.plan_cache_budget_bytes =
          static_cast<size_t>(std::max(1.0, scale * (8ull << 20)));
      break;
    }
    case Workload::kEnumHeavy: {
      const uint32_t per_size = Scaled(12, scale, 2);
      for (const uint32_t size : {16u, 24u}) {
        for (uint32_t i = 0; i < per_size; ++i) {
          in.pool.push_back(ExtractOrFallback(in.data, size,
                                              QueryDensity::kDense,
                                              &pool_prng));
        }
      }
      in.sequence = ShuffledRounds(static_cast<uint32_t>(in.pool.size()),
                                   Scaled(3000, scale, 100), &sequence_prng);
      in.warmup_pool_pass = true;
      in.service.plan_cache_budget_bytes = 256ull << 20;
      break;
    }
    case Workload::kShardK4: {
      in.pool = MakeEgoQueries(in.data, Scaled(32, scale, 4), &pool_prng);
      in.sequence = ShuffledRounds(static_cast<uint32_t>(in.pool.size()),
                                   Scaled(2500, scale, 100), &sequence_prng);
      in.warmup_pool_pass = true;
      in.service.shards = 4;
      in.service.shard_partitioner = shard::Partitioner::kGreedy;
      break;
    }
  }

  if (workload == Workload::kUpdateMix) {
    Prng update_prng = StreamPrng(seed, kUpdateStream);
    in.updates = MakeUpdateStream(in.data, kUpdateBatches, &update_prng);
    Prng continuous_prng = StreamPrng(kDatasetSeed, kContinuousStream);
    for (int i = 0; i < 4; ++i) {
      in.continuous.push_back(ExtractOrFallback(in.data, 6, QueryDensity::kDense,
                                                &continuous_prng));
    }
  }
  if (times != nullptr) times->queries_s = query_timer.ElapsedSeconds();
  return in;
}

uint64_t Fingerprint(const Inputs& inputs) {
  Fnv fnv;
  fnv.Add(static_cast<uint64_t>(inputs.workload));
  fnv.Add(inputs.data);
  fnv.Add(inputs.pool.size());
  for (const Graph& query : inputs.pool) fnv.Add(query);
  fnv.Add(inputs.sequence.size());
  for (const uint32_t index : inputs.sequence) fnv.Add(index);
  fnv.Add(inputs.warmup);
  for (const dynamic::UpdateBatch& batch : inputs.updates.batches) {
    fnv.Add(batch.ops.size());
    for (const dynamic::UpdateOp& op : batch.ops) {
      fnv.Add(static_cast<uint64_t>(op.kind));
      fnv.Add(op.u);
      fnv.Add(op.v);
      fnv.Add(op.label);
    }
  }
  for (const Graph& query : inputs.continuous) fnv.Add(query);
  return fnv.hash;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::vector<uint32_t> ZipfSequence(uint32_t n, uint32_t length, double s,
                                   Prng* rank_prng, Prng* draw_prng) {
  // Rank r (0-based) has weight 1/(r+1)^s; draws invert the CDF.
  std::vector<double> cdf(n);
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  // Fisher–Yates: which pool entry holds rank r.
  std::vector<uint32_t> by_rank(n);
  for (uint32_t i = 0; i < n; ++i) by_rank[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rank_prng->NextBounded(i)]);
  }
  std::vector<uint32_t> sequence(length);
  for (uint32_t& index : sequence) {
    const double u = draw_prng->NextDouble() * total;
    const auto rank = static_cast<uint32_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    index = by_rank[std::min(rank, n - 1)];
  }
  return sequence;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

uint64_t SamplesBeyond(uint64_t n, uint32_t percent) {
  // Samples at ranks above ceil(n * percent / 100), in integers so that
  // n = 1000 at p99 gives exactly 10.
  const uint64_t at_or_below = (n * percent + 99) / 100;
  return n - std::min(n, at_or_below);
}

}  // namespace sgm::e2e
