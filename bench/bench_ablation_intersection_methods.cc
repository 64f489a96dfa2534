// Ablation: microbenchmark of the set-intersection kernels (merge,
// galloping, hybrid, QFilter, and the bitmap word kernels of DESIGN.md §10)
// over synthetic sorted arrays with controlled cardinality skew and
// selectivity — the design space behind the Section 3.3.2 analysis and
// recommendation 3. Uses google-benchmark.
//
// kBitmap/kAuto on raw sorted arrays measure the dispatch fallback (they
// delegate to hybrid — bitmap operands only exist inside the aux
// structure); the BM_Bitmap* benches measure the word kernels themselves
// against the sorted-array kernels at matched density. BM_AuxBuildAllEdges
// times the construction those rows come from: the all-edges auxiliary
// structure over GraphQL candidates, with and without the bitmap sidecar.
#include <benchmark/benchmark.h>

#include <vector>

#include "sgm/core/aux_structure.h"
#include "sgm/core/filter/filter.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/bitmap_intersection.h"
#include "sgm/util/prng.h"
#include "sgm/util/set_intersection.h"

namespace sgm {
namespace {

std::vector<Vertex> MakeSortedSet(Prng* prng, size_t size, Vertex universe) {
  std::vector<Vertex> values;
  values.reserve(size * 2);
  while (values.size() < size) {
    const size_t missing = size - values.size();
    for (size_t i = 0; i < missing * 2; ++i) {
      values.push_back(static_cast<Vertex>(prng->NextBounded(universe)));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  values.resize(size);
  return values;
}

void IntersectionArgs(benchmark::internal::Benchmark* bench) {
  // {size of A, skew factor |B| = |A| * skew}
  for (const int64_t size : {64, 1024, 16384}) {
    for (const int64_t skew : {1, 8, 64}) {
      bench->Args({size, skew});
    }
  }
}

template <IntersectionMethod kMethod>
void BM_Intersection(benchmark::State& state) {
  const auto size_a = static_cast<size_t>(state.range(0));
  const auto size_b = size_a * static_cast<size_t>(state.range(1));
  Prng prng(1234);
  const Vertex universe = static_cast<Vertex>(size_b * 4);
  const auto a = MakeSortedSet(&prng, size_a, universe);
  const auto b = MakeSortedSet(&prng, size_b, universe);
  std::vector<Vertex> out;
  out.reserve(size_a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(kMethod, a, b, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size_a + size_b));
}

BENCHMARK(BM_Intersection<IntersectionMethod::kMerge>)
    ->Apply(IntersectionArgs);
BENCHMARK(BM_Intersection<IntersectionMethod::kGalloping>)
    ->Apply(IntersectionArgs);
BENCHMARK(BM_Intersection<IntersectionMethod::kHybrid>)
    ->Apply(IntersectionArgs);
BENCHMARK(BM_Intersection<IntersectionMethod::kQFilter>)
    ->Apply(IntersectionArgs);
BENCHMARK(BM_Intersection<IntersectionMethod::kAuto>)
    ->Apply(IntersectionArgs);

// ---- Bitmap word kernels at matched universe/density. ----
//
// {universe bits, permille density of each operand}: the first axis is the
// candidate-set size a sidecar row covers (stride = universe/64 words), the
// second how full the rows are. 1000 permille reproduces the all-overlap
// extreme, 15 the sparse regime where sorted arrays should win.
void BitmapArgs(benchmark::internal::Benchmark* bench) {
  for (const int64_t universe : {256, 4096, 65536}) {
    for (const int64_t permille : {15, 125, 1000}) {
      bench->Args({universe, permille});
    }
  }
}

std::vector<uint64_t> MakeBitmap(Prng* prng, uint32_t universe,
                                 int64_t permille,
                                 std::vector<Vertex>* sorted) {
  std::vector<uint64_t> words(BitmapWords(universe), 0);
  for (uint32_t i = 0; i < universe; ++i) {
    if (static_cast<int64_t>(prng->NextBounded(1000)) < permille) {
      words[i >> 6] |= 1ULL << (i & 63);
      if (sorted != nullptr) sorted->push_back(static_cast<Vertex>(i));
    }
  }
  return words;
}

void BM_BitmapAnd(benchmark::State& state) {
  const auto universe = static_cast<uint32_t>(state.range(0));
  Prng prng(1234);
  const auto a = MakeBitmap(&prng, universe, state.range(1), nullptr);
  const auto b = MakeBitmap(&prng, universe, state.range(1), nullptr);
  std::vector<uint64_t> out(a.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitmapAnd(a.data(), b.data(), a.size(),
                                       out.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(universe) * 2);
}
BENCHMARK(BM_BitmapAnd)->Apply(BitmapArgs);

void BM_BitmapMultiAndCount(benchmark::State& state) {
  const auto universe = static_cast<uint32_t>(state.range(0));
  Prng prng(1234);
  std::vector<std::vector<uint64_t>> operands;
  std::vector<const uint64_t*> rows;
  for (int i = 0; i < 3; ++i) {
    operands.push_back(MakeBitmap(&prng, universe, state.range(1), nullptr));
  }
  for (const auto& words : operands) rows.push_back(words.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitmapMultiAndCount(rows, operands[0].size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(universe) * 3);
}
BENCHMARK(BM_BitmapMultiAndCount)->Apply(BitmapArgs);

// The same operands through the sorted-array hybrid kernel, so one run of
// this binary yields the bitmap-vs-sorted crossover per density.
void BM_HybridAtDensity(benchmark::State& state) {
  const auto universe = static_cast<uint32_t>(state.range(0));
  Prng prng(1234);
  std::vector<Vertex> a, b;
  MakeBitmap(&prng, universe, state.range(1), &a);
  MakeBitmap(&prng, universe, state.range(1), &b);
  std::vector<Vertex> out;
  out.reserve(a.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Intersect(IntersectionMethod::kHybrid, a, b, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_HybridAtDensity)->Apply(BitmapArgs);

// ---- Auxiliary-structure construction. ----
//
// One fixed RMAT graph and 16 extracted 8-vertex queries with their GraphQL
// candidates; an iteration builds the all-edges structure of every query.
// The argument toggles the bitmap sidecar (default density threshold).
void BM_AuxBuildAllEdges(benchmark::State& state) {
  Prng prng(1234);
  const Graph data = GenerateRmat(8192, 40000, 8, &prng);
  const std::vector<Graph> queries =
      GenerateQuerySet(data, 8, QueryDensity::kAny, 16, &prng);
  std::vector<CandidateSets> candidates;
  for (const Graph& query : queries) {
    candidates.push_back(
        RunFilter(FilterMethod::kGraphQL, query, data).candidates);
  }
  AuxBuildOptions build;
  build.build_bitmaps = state.range(0) != 0;
  uint64_t entries = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const AuxStructure aux = AuxStructure::BuildAllEdges(
          queries[i], data, candidates[i], build);
      entries += aux.CandidateEdgeCount();
      benchmark::DoNotOptimize(aux);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(entries));
}
BENCHMARK(BM_AuxBuildAllEdges)->ArgName("bitmaps")->Arg(0)->Arg(1);

}  // namespace
}  // namespace sgm

BENCHMARK_MAIN();
