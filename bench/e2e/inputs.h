// Seeded inputs of the end-to-end serving benchmark: the four workloads'
// data graphs, query pools, request sequences and update streams, plus the
// fingerprint that pins them, and the small statistics helpers the
// benchmark and the self-test share.
//
// Everything here is a pure function of (workload, seed, scale): the same
// triple yields bit-identical inputs on every machine and every commit, so
// two builds measured with one seed do the same work. The graph and the
// query pool of a workload are the same for every seed; the seed draws the
// traffic (inputs.cc says why).
#ifndef SGM_BENCH_E2E_INPUTS_H_
#define SGM_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph.h"
#include "sgm/matcher.h"
#include "sgm/service/service.h"
#include "sgm/util/prng.h"

namespace sgm::e2e {

enum class Workload : uint8_t {
  kBuildHeavy = 0,
  kEnumHeavy,
  kUpdateMix,
  kShardK4,
};

/// "build-heavy", "enum-heavy", "update-mix", "shard-k4".
const char* WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(std::string_view name);

/// Service threads and closed-loop clients of every workload; update-mix
/// adds one open-loop writer. Together at most four threads are runnable.
inline constexpr uint32_t kWorkers = 3;
inline constexpr uint32_t kClients = 3;
/// update-mix writer pace and batch size: one batch falls due every
/// kRequestsPerBatch requests the clients start, about 50 batches/s at the
/// commit that added the benchmark.
inline constexpr uint32_t kRequestsPerBatch = 32;
inline constexpr uint32_t kMaxOpsPerBatch = 16;

/// Everything one workload run consumes. The service receives only `data`
/// and the requests built from `pool` in `sequence` order.
struct Inputs {
  Workload workload = Workload::kBuildHeavy;
  Graph data;
  std::vector<Graph> pool;
  /// Pool indexes in request order. Clients consume it round-robin from
  /// `warmup` on; entries before `warmup` are the untimed warm-up.
  std::vector<uint32_t> sequence;
  uint32_t warmup = 0;
  /// Warm up with one pass over the pool instead of a sequence prefix.
  bool warmup_pool_pass = false;
  /// update-mix: the writer's batches (applied in order) and the
  /// continuous queries registered before the window.
  dynamic::UpdateStream updates;
  std::vector<Graph> continuous;
  service::ServiceOptions service;
  /// Match options of a request for `query` (size-dependent on enum-heavy).
  MatchOptions OptionsFor(const Graph& query) const;
};

/// Wall time of the three generation stages, in seconds.
struct SetupTimes {
  double graph_s = 0.0;
  double queries_s = 0.0;
};

/// `batches` writer batches valid against `data`: 0–kMaxOpsPerBatch ops
/// each, half edge inserts and half edge deletes.
dynamic::UpdateStream MakeUpdateStream(const Graph& data, uint32_t batches,
                                       Prng* prng);

/// Generates the inputs of `workload`. `scale` multiplies every size (graph,
/// pool, sequence); 1 is the benchmark, 0.02 the smoke test.
Inputs MakeInputs(Workload workload, uint64_t seed, double scale,
                  SetupTimes* times = nullptr);

/// FNV-1a over the graph, the pool, the sequence, the update stream and the
/// continuous queries: any drift in the generators changes it.
uint64_t Fingerprint(const Inputs& inputs);
std::string FingerprintHex(uint64_t fingerprint);

/// `length` draws (from `draw_prng`) of ranks from Zipf(s) over [0, n),
/// mapped through a permutation drawn from `rank_prng`, so popularity is
/// independent of generation order.
std::vector<uint32_t> ZipfSequence(uint32_t n, uint32_t length, double s,
                                   Prng* rank_prng, Prng* draw_prng);

/// Linear-interpolated q-quantile (q in [0, 1]) of `values`; NaN if empty.
double Percentile(std::vector<double> values, double q);

/// Samples strictly above the `percent`-th percentile of n samples. A
/// percentile is reported only when at least ten samples lie beyond it.
uint64_t SamplesBeyond(uint64_t n, uint32_t percent);
inline bool PercentileSupported(uint64_t n, uint32_t percent) {
  return SamplesBeyond(n, percent) >= 10;
}

}  // namespace sgm::e2e

#endif  // SGM_BENCH_E2E_INPUTS_H_
