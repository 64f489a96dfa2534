// sgm_e2e_bench: drives an in-process MatchService from outside, through its
// public calls only, and prints one JSON object of measurements on stdout.
// bench/e2e/run.py builds and runs it; README.md describes the workloads
// and every metric.
//
// One run: set up (generate inputs, construct the service, register
// continuous queries) several times and keep the last; an untimed
// warm-up; one timed window of --seconds with tracing off; with --trace, a
// second window with tracing on; the output checks against a monolithic
// MatchQuery oracle; with --trace, single-threaded layer probes; then the
// remaining timed set-ups.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/obs/json.h"
#include "sgm/plan.h"
#include "sgm/service/plan_cache.h"
#include "sgm/service/service.h"
#include "sgm/util/timer.h"

namespace sgm::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using service::MatchResponse;
using service::MatchService;
using service::RequestStatus;

const Clock::time_point kOrigin = Clock::now();
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kOrigin)
      .count();
}

struct Args {
  Workload workload = Workload::kBuildHeavy;
  uint64_t seed = 42;
  double seconds = 20.0;
  double scale = 1.0;
  bool trace = false;
  std::string trace_out;
};

constexpr uint32_t kSetupReps = 10;

// ---------------------------------------------------------------------------
// Records kept per request, per update batch and per span.
// ---------------------------------------------------------------------------

struct RequestRecord {
  uint64_t id = 0;
  uint32_t client = 0;
  bool hit = false;
  bool sharded = false;
  uint64_t count = 0;
  double start_ms = 0.0;
  double submit_ms = 0.0;  // duration of the Submit() call
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double filter_ms = 0.0;
  double aux_ms = 0.0;
  double order_ms = 0.0;
  double enumerate_ms = 0.0;
  double average_candidates = 0.0;
  double aux_bytes = 0.0;
  EnumerateStats stats;
  // Sharded runs: per-pass breakdown folded to what the metrics need.
  double shard_build_wall_ms = 0.0;
  double shard_build_sum_ms = 0.0;
  double shard_pass_sum_ms = 0.0;
  double shard_boundary_ms = 0.0;
  double shard_imbalance = 0.0;

  /// Stage time the service reports; service_ms = queue_ms + StagesMs() +
  /// the residual the service does not attribute.
  double StagesMs() const {
    if (sharded) return shard_build_wall_ms + enumerate_ms;
    return filter_ms + aux_ms + order_ms + enumerate_ms;
  }
};

/// What every window keeps per request: enough for latency percentiles and
/// the oracle check, and small so that the benchmark's own memory barely
/// moves peak_rss_mb when throughput changes.
struct Sample {
  float latency_ms = 0.0f;
  uint32_t query = 0;
  uint64_t count = 0;
  RequestStatus status = RequestStatus::kOk;
};

struct UpdateRecord {
  uint64_t batch = 0;
  double due_ms = 0.0;
  double call_ms = 0.0;
  double end_ms = 0.0;
  double apply_ms = 0.0;
  double delta_enum_ms = 0.0;
  bool applied = false;
};

/// A complete ("X") Chrome trace event. Spans of one request share `id`.
struct Span {
  const char* name;
  double ts_ms;
  double dur_ms;
  uint32_t tid;
  uint64_t id;
};

struct WindowResult {
  std::vector<Sample> samples;
  /// Traced windows only.
  std::vector<RequestRecord> requests;
  std::vector<UpdateRecord> updates;
  std::vector<Span> spans;
  double wall_ms = 0.0;
  service::ServiceStats before, after;
  service::ServiceDynamicStats dynamic_before, dynamic_after;
  uint32_t threads_peak = 0;
  /// Process high-water mark when the window's clients finished.
  double peak_rss_mb = 0.0;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RequestRecord ToRecord(const MatchResponse& response) {
  RequestRecord r;
  r.hit = response.plan_cache_hit;
  r.count = response.engine.match_count;
  r.queue_ms = response.queue_ms;
  r.service_ms = response.service_ms;
  r.filter_ms = response.engine.filter_ms;
  r.aux_ms = response.engine.aux_build_ms;
  r.order_ms = response.engine.order_ms;
  r.enumerate_ms = response.engine.enumeration_ms;
  r.average_candidates = response.engine.average_candidates;
  r.aux_bytes = static_cast<double>(response.engine.aux_memory_bytes);
  r.stats = response.engine.enumerate;
  const ShardedRunInfo& sharding = response.sharding;
  r.sharded = sharding.shard_count > 0;
  if (r.sharded) {
    double local_max = 0.0, local_sum = 0.0;
    uint32_t locals = 0;
    for (const ShardPassStats& pass : sharding.passes) {
      r.shard_build_wall_ms = std::max(r.shard_build_wall_ms, pass.build_ms);
      r.shard_build_sum_ms += pass.build_ms;
      r.shard_pass_sum_ms += pass.build_ms + pass.enumerate_ms;
      if (pass.boundary) {
        r.shard_boundary_ms += pass.build_ms + pass.enumerate_ms;
      } else {
        local_max = std::max(local_max, pass.enumerate_ms);
        local_sum += pass.enumerate_ms;
        ++locals;
      }
    }
    r.shard_imbalance =
        local_sum > 0.0 ? local_max / (local_sum / locals) : 1.0;
  }
  return r;
}

/// Paces the update-mix writer by the reads: batch k of a window falls due
/// when the clients start request (k + 1) * kRequestsPerBatch of it. The
/// read/write mix, and with it the plan-cache hit ratio, is then the same on
/// a fast and a slow machine; paced by wall time, a slower machine would
/// serve fewer requests per epoch, hit the cache less and slow down further.
class BatchClock {
 public:
  /// Called by a client as it starts request `i` of the window at `now_ms`.
  void OnRequest(uint64_t i, double now_ms) {
    if ((i + 1) % kRequestsPerBatch != 0) return;
    const uint64_t batch = (i + 1) / kRequestsPerBatch - 1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (due_ms_.size() <= batch) due_ms_.resize(batch + 1, kNotDue);
      due_ms_[batch] = now_ms;
    }
    due_.notify_one();
  }

  /// Blocks until batch `k` falls due; nullopt once the window has closed.
  std::optional<double> WaitDue(uint64_t k) {
    std::unique_lock<std::mutex> lock(mutex_);
    due_.wait(lock, [&] {
      return closed_ || (k < due_ms_.size() && due_ms_[k] != kNotDue);
    });
    if (closed_) return std::nullopt;
    return due_ms_[k];
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    due_.notify_one();
  }

 private:
  static constexpr double kNotDue = -1.0;
  std::mutex mutex_;
  std::condition_variable due_;
  std::vector<double> due_ms_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// The harness: owns the inputs and the service, runs warm-up and windows.
// ---------------------------------------------------------------------------

class Harness {
 public:
  Harness(Inputs inputs, std::unique_ptr<MatchService> service)
      : in_(std::move(inputs)), service_(std::move(service)) {
    for (const Graph& query : in_.pool) {
      options_.push_back(in_.OptionsFor(query));
    }
    timed_begin_ = in_.warmup_pool_pass ? 0 : in_.warmup;
  }

  const Inputs& inputs() const { return in_; }
  MatchService& service() { return *service_; }
  const std::vector<MatchOptions>& options() const { return options_; }
  const std::vector<std::vector<dynamic::MatchDelta>>& delta_log() const {
    return delta_log_;
  }

  /// Runs the untimed warm-up. With `keep`, returns its requests' records:
  /// on enum-heavy they hold every plan build of the run.
  std::vector<RequestRecord> WarmUp(bool keep) {
    WindowResult w;
    if (in_.warmup_pool_pass) {
      RunClients([](uint64_t i) { return static_cast<uint32_t>(i); },
                 in_.pool.size(), kNoDeadline, keep ? &w : nullptr, keep,
                 nullptr);
    } else {
      RunClients([this](uint64_t i) { return in_.sequence[i]; }, in_.warmup,
                 kNoDeadline, keep ? &w : nullptr, keep, nullptr);
    }
    return std::move(w.requests);
  }

  WindowResult RunWindow(double seconds, bool trace) {
    WindowResult w;
    w.before = service_->Stats();
    w.dynamic_before = service_->DynamicStats();
    const double start = NowMs();
    const double deadline = start + seconds * 1000.0;

    std::atomic<bool> sampling{trace};
    std::thread sampler;
    if (trace) {
      sampler = std::thread([&] {
        namespace fs = std::filesystem;
        while (sampling.load()) {
          uint32_t tasks = 0;
          std::error_code error;
          for (fs::directory_iterator it("/proc/self/task", error);
               !error && it != fs::directory_iterator(); it.increment(error)) {
            ++tasks;
          }
          w.threads_peak = std::max(w.threads_peak, tasks);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    // The writer fills its own window; merged once it has been joined.
    WindowResult writes;
    BatchClock clock;
    std::thread writer;
    if (!in_.updates.batches.empty()) {
      writer = std::thread([&] { WriterLoop(&clock, trace, &writes); });
    }

    const uint64_t cursor = cursor_;
    const uint64_t span = in_.sequence.size() - timed_begin_;
    cursor_ += RunClients(
        [&](uint64_t i) {
          return in_.sequence[timed_begin_ + (cursor + i) % span];
        },
        ~uint64_t{0}, deadline, &w, trace,
        writer.joinable() ? &clock : nullptr);
    w.wall_ms = NowMs() - start;

    clock.Close();
    if (writer.joinable()) writer.join();
    w.updates = std::move(writes.updates);
    w.spans.insert(w.spans.end(), writes.spans.begin(), writes.spans.end());
    sampling.store(false);
    if (sampler.joinable()) sampler.join();
    w.after = service_->Stats();
    w.dynamic_after = service_->DynamicStats();
    return w;
  }

 private:
  // Closed loop: each client blocks on its reply before sending the next
  // request. Returns the number of requests sent.
  uint64_t RunClients(const std::function<uint32_t(uint64_t)>& query_at,
                      uint64_t limit, double deadline, WindowResult* w,
                      bool trace, BatchClock* clock) {
    std::atomic<uint64_t> next{0};
    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::vector<RequestRecord>> records(kClients);
    std::vector<std::vector<Span>> spans(kClients);
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Reserved, not touched: growth never copies, and only the samples
        // written count towards the resident set.
        if (w != nullptr) samples[c].reserve(1u << 20);
        for (;;) {
          if (NowMs() >= deadline) break;
          const uint64_t i = next.fetch_add(1);
          if (i >= limit) break;
          const uint32_t q = query_at(i);
          service::MatchRequest request;
          request.query = in_.pool[q];
          request.options = options_[q];
          const double t0 = NowMs();
          if (clock != nullptr) clock->OnRequest(i, t0);
          std::future<MatchResponse> future =
              service_->Submit(std::move(request));
          const double t1 = NowMs();
          const MatchResponse response = future.get();
          const double t2 = NowMs();
          if (w == nullptr) continue;
          samples[c].push_back({static_cast<float>(t2 - t0), q,
                                response.engine.match_count,
                                response.status});
          if (!trace) continue;
          RequestRecord r = ToRecord(response);
          r.id = i;
          r.client = c;
          r.start_ms = t0;
          r.submit_ms = t1 - t0;
          r.latency_ms = t2 - t0;
          records[c].push_back(r);
          spans[c].push_back({"request", t0, t2 - t0, c + 1, i});
          spans[c].push_back({"Submit", t0, t1 - t0, c + 1, i});
          spans[c].push_back({"future.wait", t1, t2 - t1, c + 1, i});
        }
      });
    }
    for (std::thread& client : clients) client.join();
    if (w != nullptr) {
      w->peak_rss_mb = PeakRssMb();
      for (uint32_t c = 0; c < kClients; ++c) {
        w->samples.insert(w->samples.end(), samples[c].begin(),
                          samples[c].end());
        w->requests.insert(w->requests.end(), records[c].begin(),
                           records[c].end());
        w->spans.insert(w->spans.end(), spans[c].begin(), spans[c].end());
      }
    }
    return std::min(next.load(), limit);
  }

  // Open loop, paced by `clock`: batch k of this window falls due with a
  // request whatever the service has done with earlier batches, and its
  // latency is timed from that due time, so a stall shows in every batch it
  // delays.
  void WriterLoop(BatchClock* clock, bool trace, WindowResult* w) {
    for (uint64_t k = 0; next_batch_ < in_.updates.batches.size(); ++k) {
      const std::optional<double> due_ms = clock->WaitDue(k);
      if (!due_ms) break;
      const double due = *due_ms;
      const double call = NowMs();
      service::UpdateReport report =
          service_->ApplyUpdates(in_.updates.batches[next_batch_++]);
      const double end = NowMs();
      const uint64_t batch = next_batch_ - 1;
      w->updates.push_back({batch, due, call, end, report.apply_ms,
                            report.enumerate_ms, report.applied});
      delta_log_.push_back(std::move(report.deltas));
      if (trace) {
        w->spans.push_back({"update", due, end - due, kClients + 1, batch});
        w->spans.push_back({"ApplyUpdates", call, end - call, kClients + 1,
                            batch});
      }
    }
  }

  Inputs in_;
  std::unique_ptr<MatchService> service_;
  std::vector<MatchOptions> options_;
  uint64_t timed_begin_ = 0;
  uint64_t cursor_ = 0;
  uint64_t next_batch_ = 0;
  std::vector<std::vector<dynamic::MatchDelta>> delta_log_;
};

// ---------------------------------------------------------------------------
// Set-up, repeated so that setup_s is a median.
// ---------------------------------------------------------------------------

struct SetupSample {
  double total_s = 0.0;
  double graph_s = 0.0;
  double queries_s = 0.0;
  double service_s = 0.0;
};

std::unique_ptr<Harness> SetUp(const Args& args, SetupSample* sample,
                              std::vector<uint64_t>* continuous_ids) {
  Timer total;
  SetupTimes times;
  Inputs inputs = MakeInputs(args.workload, args.seed, args.scale, &times);
  Timer service_timer;
  auto service = std::make_unique<MatchService>(inputs.data, inputs.service);
  continuous_ids->clear();
  for (const Graph& query : inputs.continuous) {
    std::string error;
    const uint64_t id = service->RegisterContinuousQuery(query, &error);
    if (id == 0) {
      std::fprintf(stderr, "continuous query rejected: %s\n", error.c_str());
      std::exit(1);
    }
    continuous_ids->push_back(id);
  }
  sample->service_s = service_timer.ElapsedSeconds();
  sample->graph_s = times.graph_s;
  sample->queries_s = times.queries_s;
  sample->total_s = total.ElapsedSeconds();
  return std::make_unique<Harness>(std::move(inputs), std::move(service));
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

MatchOptions Unlimited() {
  MatchOptions options;
  options.max_matches = 0;
  options.time_limit_ms = 0.0;
  return options;
}

using EmbeddingSet = std::set<std::vector<Vertex>>;

EmbeddingSet AllMatches(const Graph& query, const Graph& data) {
  const auto matches = CollectMatches(query, data, Unlimited());
  return EmbeddingSet(matches.begin(), matches.end());
}

/// Monolithic MatchQuery count of every pool query, on kWorkers threads.
std::vector<uint64_t> OracleCounts(const Harness& harness) {
  const Inputs& in = harness.inputs();
  std::vector<uint64_t> counts(in.pool.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      for (size_t q; (q = next.fetch_add(1)) < in.pool.size();) {
        counts[q] =
            MatchQuery(in.pool[q], in.data, harness.options()[q]).match_count;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return counts;
}

/// Counts requests that did not finish kOk with the oracle's count. With
/// no oracle (update-mix: the graph changes under the requests) only the
/// status is checked.
uint64_t FailedRequests(const WindowResult& w,
                        const std::vector<uint64_t>* oracle) {
  uint64_t failed = 0;
  for (const Sample& s : w.samples) {
    if (s.status != RequestStatus::kOk ||
        (oracle != nullptr && s.count != (*oracle)[s.query])) {
      ++failed;
    }
  }
  return failed;
}

uint64_t FailedUpdates(const WindowResult& w) {
  uint64_t failed = 0;
  for (const UpdateRecord& u : w.updates) failed += u.applied ? 0 : 1;
  return failed;
}

/// Folds every continuous-query delta over the query's seed set and
/// compares the result with a cold re-match on the service's final graph.
/// Returns the number of queries that disagree.
uint64_t CheckContinuous(Harness& harness, std::vector<EmbeddingSet> sets,
                         const std::vector<uint64_t>& ids) {
  std::map<uint64_t, size_t> slot;
  for (size_t i = 0; i < ids.size(); ++i) slot[ids[i]] = i;
  std::vector<bool> consistent(ids.size(), true);
  for (const auto& batch : harness.delta_log()) {
    for (const dynamic::MatchDelta& delta : batch) {
      const size_t i = slot.at(delta.query_id);
      for (const dynamic::DeltaRecord& record : delta.records) {
        const bool changed = record.addition
                                 ? sets[i].insert(record.embedding).second
                                 : sets[i].erase(record.embedding) == 1;
        if (!changed) consistent[i] = false;
      }
    }
  }
  // The first request after a batch compacts the overlay; issue one so the
  // service's snapshot reflects every applied batch.
  service::MatchRequest request;
  request.query = harness.inputs().pool[0];
  request.options = harness.options()[0];
  harness.service().Match(std::move(request));
  const Graph& final_graph = harness.service().data();
  uint64_t mismatches = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!consistent[i] ||
        sets[i] != AllMatches(harness.inputs().continuous[i], final_graph)) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metrics {
  obs::Json json = obs::Json::Object();
  void Add(const std::string& name, double value, const char* unit,
           uint64_t samples) {
    obs::Json m = obs::Json::Object();
    m.Set("value", obs::Json::Number(std::isfinite(value) ? value : 0.0));
    m.Set("unit", obs::Json::String(unit));
    m.Set("n", obs::Json::Number(samples));
    json.Set(name, std::move(m));
  }
  /// p50 and/or p99 of `values` as `<base>.p50` / `<base>.p99`.
  void AddPercentiles(const std::string& base, const std::vector<double>& v,
                      const char* unit, bool p50, bool p99) {
    if (p50) Add(base + ".p50", v.empty() ? 0.0 : Percentile(v, 0.5), unit,
                 v.size());
    if (p99) Add(base + ".p99", v.empty() ? 0.0 : Percentile(v, 0.99), unit,
                 v.size());
  }
};

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Requests that finished kOk with the right count, per second of window.
double Qps(const WindowResult& w, uint64_t failed_requests) {
  return Ratio(static_cast<double>(w.samples.size() - failed_requests),
               w.wall_ms / 1000.0);
}

/// Per-layer metrics of the traced window `w`. Plan-build distributions
/// also take the warm-up's builds, which on enum-heavy are all of them.
void AddLayerMetrics(const WindowResult& w,
                     const std::vector<RequestRecord>& warmup, Metrics* m) {
  std::vector<double> filter, aux, order, aux_bytes;
  double candidates_sum = 0.0, build_sum = 0.0;
  uint64_t built = 0;
  for (const auto* records : {&warmup, &w.requests}) {
    for (const RequestRecord& r : *records) {
      if (r.hit) continue;
      ++built;
      filter.push_back(r.filter_ms);
      aux.push_back(r.aux_ms);
      order.push_back(r.order_ms);
      aux_bytes.push_back(r.aux_bytes);
      candidates_sum += r.average_candidates;
      build_sum += r.filter_ms + r.aux_ms + r.order_ms;
    }
  }

  std::vector<double> submit_us, handoff, queue, residual, enumerate;
  double latency_sum = 0.0, covered = 0.0, busy = 0.0;
  double filter_sum = 0.0, aux_sum = 0.0, order_sum = 0.0, enum_sum = 0.0;
  double calls = 0.0, matches = 0.0, scanned = 0.0, prunes = 0.0;
  double lc_hits = 0.0, lc_misses = 0.0;
  std::vector<double> shard_build_wall, shard_enum_wall;
  double shard_build_sum = 0.0, shard_build_wall_sum = 0.0;
  double shard_boundary = 0.0, shard_pass = 0.0, shard_imbalance = 0.0;
  uint64_t sharded = 0;
  for (const RequestRecord& r : w.requests) {
    submit_us.push_back(r.submit_ms * 1000.0);
    handoff.push_back(r.latency_ms - r.service_ms);
    queue.push_back(r.queue_ms);
    residual.push_back(r.service_ms - r.queue_ms - r.StagesMs());
    enumerate.push_back(r.enumerate_ms);
    latency_sum += r.latency_ms;
    covered += r.queue_ms + r.StagesMs();
    busy += r.service_ms - r.queue_ms;
    filter_sum += r.filter_ms;
    aux_sum += r.aux_ms;
    order_sum += r.order_ms;
    enum_sum += r.enumerate_ms;
    calls += static_cast<double>(r.stats.recursion_calls);
    matches += static_cast<double>(r.count);
    scanned += static_cast<double>(r.stats.local_candidates_scanned);
    prunes += static_cast<double>(r.stats.failing_set_prunes);
    lc_hits += static_cast<double>(r.stats.lc_cache_hits);
    lc_misses += static_cast<double>(r.stats.lc_cache_misses);
    if (r.sharded) {
      ++sharded;
      shard_build_wall.push_back(r.shard_build_wall_ms);
      shard_enum_wall.push_back(r.enumerate_ms);
      shard_build_sum += r.shard_build_sum_ms;
      shard_build_wall_sum += r.shard_build_wall_ms;
      shard_boundary += r.shard_boundary_ms;
      shard_pass += r.shard_pass_sum_ms;
      shard_imbalance += r.shard_imbalance;
    }
  }
  const uint64_t n = w.requests.size();
  const double per_req = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;

  m->AddPercentiles("service.submit_us", submit_us, "us", true, false);
  m->AddPercentiles("service.handoff_ms", handoff, "ms", true, false);
  m->AddPercentiles("service.queue_ms", queue, "ms", false, true);
  m->AddPercentiles("service.residual_ms", residual, "ms", true, true);
  m->Add("service.share", Ratio(latency_sum - covered, latency_sum), "ratio",
         n);
  m->Add("service.stage_coverage", Ratio(covered, latency_sum), "ratio", n);
  m->Add("service.utilization", Ratio(busy, kWorkers * w.wall_ms), "ratio",
         n);
  m->Add("process.threads_peak", w.threads_peak, "count", 1);

  const service::PlanCacheStats& c0 = w.before.plan_cache;
  const service::PlanCacheStats& c1 = w.after.plan_cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  m->Add("plan_cache.hit_ratio", Ratio(hits, hits + misses), "ratio",
         static_cast<uint64_t>(hits + misses));
  m->Add("plan_cache.evictions", static_cast<double>(c1.evictions -
                                                     c0.evictions),
         "count", 1);
  m->Add("plan_cache.bytes", static_cast<double>(c1.memory_bytes), "bytes",
         1);
  m->Add("plan_cache.saved_ms_per_hit", Ratio(build_sum, built), "ms", built);

  m->AddPercentiles("filter.ms", filter, "ms", true, true);
  m->Add("filter.share", Ratio(filter_sum, latency_sum), "ratio", n);
  m->Add("filter.candidates_avg", Ratio(candidates_sum, built), "count",
         built);
  m->AddPercentiles("aux.ms", aux, "ms", true, true);
  m->Add("aux.share", Ratio(aux_sum, latency_sum), "ratio", n);
  m->AddPercentiles("aux.bytes", aux_bytes, "bytes", true, false);
  m->AddPercentiles("order.ms", order, "ms", true, false);
  m->Add("order.share", Ratio(order_sum, latency_sum), "ratio", n);
  m->AddPercentiles("enumerate.ms", enumerate, "ms", true, true);
  m->Add("enumerate.share", Ratio(enum_sum, latency_sum), "ratio", n);
  m->Add("enumerate.calls_per_req", calls * per_req, "count", n);
  m->Add("enumerate.matches_per_call", Ratio(matches, calls), "ratio", n);
  m->Add("enumerate.lc_scanned_per_req", scanned * per_req, "count", n);
  m->Add("enumerate.lc_cache_hit_ratio", Ratio(lc_hits, lc_hits + lc_misses),
         "ratio", n);
  m->Add("enumerate.fs_prunes_per_req", prunes * per_req, "count", n);

  std::vector<double> update_ms, apply, delta_enum, lock_wait;
  double late_max = 0.0;
  for (const UpdateRecord& u : w.updates) {
    update_ms.push_back(u.end_ms - u.due_ms);
    apply.push_back(u.apply_ms);
    delta_enum.push_back(u.delta_enum_ms);
    lock_wait.push_back(
        std::max(0.0, u.end_ms - u.call_ms - u.apply_ms - u.delta_enum_ms));
    late_max = std::max(late_max, u.call_ms - u.due_ms);
  }
  m->AddPercentiles("dynamic.update_ms", update_ms, "ms", true, true);
  m->AddPercentiles("dynamic.apply_ms", apply, "ms", false, true);
  m->AddPercentiles("dynamic.delta_enum_ms", delta_enum, "ms", false, true);
  m->AddPercentiles("dynamic.lock_wait_ms", lock_wait, "ms", false, true);
  const double batches = static_cast<double>(w.dynamic_after.update_batches -
                                             w.dynamic_before.update_batches);
  m->Add("dynamic.compactions_per_batch",
         Ratio(static_cast<double>(w.dynamic_after.compactions -
                                   w.dynamic_before.compactions),
               batches),
         "ratio", w.updates.size());
  m->Add("dynamic.late_ms.max", late_max, "ms", w.updates.size());

  m->AddPercentiles("shard.build_wall_ms", shard_build_wall, "ms", true,
                    false);
  m->AddPercentiles("shard.enum_wall_ms", shard_enum_wall, "ms", true, false);
  m->Add("shard.build_parallelism", Ratio(shard_build_sum, shard_build_wall_sum),
         "ratio", sharded);
  m->Add("shard.boundary_share", Ratio(shard_boundary, shard_pass), "ratio",
         sharded);
  m->Add("shard.pass_imbalance", Ratio(shard_imbalance, sharded), "ratio",
         sharded);
}

// Single-threaded replays of each layer on a sample of the pool, after the
// windows so they never load a timed run.
void AddProbeMetrics(Harness& harness, Metrics* m) {
  const Inputs& in = harness.inputs();
  std::vector<uint32_t> sample;
  for (const uint32_t q : in.sequence) {
    if (sample.size() == 16) break;
    if (std::find(sample.begin(), sample.end(), q) == sample.end()) {
      sample.push_back(q);
    }
  }
  std::vector<double> filter, aux, order, enumerate, key_us;
  for (const uint32_t q : sample) {
    const Graph& query = in.pool[q];
    const MatchOptions& o = harness.options()[q];
    Timer key_timer;
    constexpr int kKeyReps = 100;
    for (int rep = 0; rep < kKeyReps; ++rep) {
      service::PlanCache::MakeKey(query, o, rep);
    }
    key_us.push_back(key_timer.ElapsedMillis() * 1000.0 / kKeyReps);

    // The service's own miss path, which times each stage.
    const std::unique_ptr<MatchPlan> plan = BuildMatchPlan(query, in.data, o);
    filter.push_back(plan->filter_ms);
    if (plan->empty_candidates) continue;
    aux.push_back(plan->aux_build_ms);
    order.push_back(plan->order_ms);
    enumerate.push_back(
        ExecutePlan(query, in.data, *plan, o).enumeration_ms);
  }
  m->Add("filter.probe_ms", filter.empty() ? 0.0 : Median(filter), "ms",
         filter.size());
  m->Add("aux.probe_ms", aux.empty() ? 0.0 : Median(aux), "ms", aux.size());
  m->Add("order.probe_ms", order.empty() ? 0.0 : Median(order), "ms",
         order.size());
  m->Add("enumerate.probe_ms", enumerate.empty() ? 0.0 : Median(enumerate),
         "ms", enumerate.size());
  m->AddPercentiles("plan_cache.key_us", key_us, "us", true, false);

  // Compaction of the workload's graph after each of 100 writer-sized
  // batches, on a replica: what the first request after a batch pays in
  // the service on update-mix.
  std::vector<double> compact;
  dynamic::DynamicGraph replica(in.data);
  Prng prng(1);
  for (const dynamic::UpdateBatch& batch :
       MakeUpdateStream(in.data, 100, &prng).batches) {
    SGM_CHECK(replica.Apply(batch, nullptr));
    Timer compact_timer;
    replica.Compact();
    compact.push_back(compact_timer.ElapsedMillis());
  }
  m->AddPercentiles("dynamic.compact_ms", compact, "ms", true, true);
}

// Derived child spans: the stage durations the service reports, laid out
// in pipeline order inside the request's wait span.
void AddStageSpans(WindowResult* w) {
  for (const RequestRecord& r : w->requests) {
    double t = r.start_ms;
    const auto push = [&](const char* name, double dur) {
      w->spans.push_back({name, t, std::max(0.0, dur), r.client + 1, r.id});
      t += std::max(0.0, dur);
    };
    push("queue", r.queue_ms);
    if (r.sharded) {
      push("shard.build", r.shard_build_wall_ms);
    } else if (!r.hit) {
      push("filter", r.filter_ms);
      push("aux", r.aux_ms);
      push("order", r.order_ms);
    }
    push("enumerate", r.enumerate_ms);
    push("residual", r.service_ms - r.queue_ms - r.StagesMs());
  }
  for (const UpdateRecord& u : w->updates) {
    w->spans.push_back({"apply", u.call_ms, u.apply_ms, kClients + 1, u.batch});
    w->spans.push_back({"delta_enumerate", u.call_ms + u.apply_ms,
                        u.delta_enum_ms, kClients + 1, u.batch});
  }
}

// Requests past this many are measured but not written, which keeps the
// file small enough for a trace viewer to load.
constexpr uint64_t kTracedRequests = 20000;

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const Args& args) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"workload\":\"%s\",\"seed\":%llu},\"traceEvents\":[\n",
               WorkloadName(args.workload),
               static_cast<unsigned long long>(args.seed));
  for (uint32_t tid = 1; tid <= kClients + 1; ++tid) {
    std::fprintf(out,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s %u\"}}%s\n",
                 tid, tid <= kClients ? "client" : "writer", tid,
                 tid <= kClients || !spans.empty() ? "," : "");
  }
  const char* separator = "";
  for (const Span& s : spans) {
    if (s.tid <= kClients && s.id >= kTracedRequests) continue;
    std::fprintf(out,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                 separator, s.name, s.tid, s.ts_ms * 1000.0, s.dur_ms * 1000.0,
                 static_cast<unsigned long long>(s.id));
    separator = ",\n";
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: sgm_e2e_bench --workload "
               "build-heavy|enum-heavy|update-mix|shard-k4 [--seed N] "
               "[--seconds S] [--scale F] [--trace --trace-out FILE]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const auto w = ParseWorkload(value());
      if (!w) Usage("unknown workload");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--scale") {
      args.scale = std::atof(value().c_str());
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--trace") {
      args.trace = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) Usage("bad --seconds");
  if (!(args.scale > 0.0 && args.scale <= 1.0)) Usage("bad --scale");
  if (args.trace && args.trace_out.empty()) Usage("--trace needs --trace-out");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const char* name = WorkloadName(args.workload);

  // Set-up is timed kSetupReps times, half before the windows and half
  // after the checks. A slow phase of a shared machine lasts seconds, so
  // set-ups spread over the run keep one such phase from setting the
  // median. Smoke runs set up once.
  std::vector<SetupSample> setups(args.scale < 1.0 ? 1 : kSetupReps);
  const size_t setups_before = (setups.size() + 1) / 2;
  std::vector<uint64_t> continuous_ids;
  std::unique_ptr<Harness> harness;
  for (size_t i = 0; i < setups_before; ++i) {
    harness.reset();  // join the previous service before building the next
    harness = SetUp(args, &setups[i], &continuous_ids);
  }
  const Inputs& in = harness->inputs();
  std::fprintf(stderr, "[%s] |V|=%u |E|=%u pool=%zu sequence=%zu setup=%.3fs\n",
               name, in.data.vertex_count(), in.data.edge_count(),
               in.pool.size(), in.sequence.size(), setups.front().total_s);
  const std::string fingerprint = FingerprintHex(Fingerprint(in));

  // Seed sets of the continuous queries, before any update lands.
  std::vector<EmbeddingSet> seed_sets;
  uint64_t expected_total = 0;
  for (const Graph& query : in.continuous) {
    seed_sets.push_back(AllMatches(query, in.data));
    expected_total += seed_sets.back().size();
  }

  const std::vector<RequestRecord> warmup = harness->WarmUp(args.trace);
  const WindowResult plain = harness->RunWindow(args.seconds, false);
  WindowResult traced;
  if (args.trace) traced = harness->RunWindow(args.seconds, true);

  // Checks, after the windows so they never load a timed run.
  std::vector<uint64_t> oracle;
  const bool has_oracle = in.updates.batches.empty();
  if (has_oracle) {
    oracle = OracleCounts(*harness);
    for (const uint64_t count : oracle) expected_total += count;
  }
  const std::vector<uint64_t>* oracle_ptr = has_oracle ? &oracle : nullptr;
  const uint64_t plain_failed = FailedRequests(plain, oracle_ptr);
  const uint64_t traced_failed = FailedRequests(traced, oracle_ptr);
  const uint64_t continuous_mismatches =
      in.continuous.empty()
          ? 0
          : CheckContinuous(*harness, std::move(seed_sets), continuous_ids);
  const uint64_t attempted = plain.samples.size() + plain.updates.size() +
                             traced.samples.size() + traced.updates.size();
  const uint64_t failed = plain_failed + traced_failed + FailedUpdates(plain) +
                          FailedUpdates(traced) + continuous_mismatches;

  std::vector<double> latency;
  for (const Sample& s : plain.samples) latency.push_back(s.latency_ms);
  // Scaled-down (smoke) runs are too short for a p99 with ten samples
  // beyond it.
  const bool tail_ok =
      args.scale < 1.0 || PercentileSupported(latency.size(), 99);
  if (!tail_ok) {
    std::fprintf(stderr,
                 "[%s] only %zu requests: fewer than 10 beyond p99\n", name,
                 latency.size());
  }

  Metrics metrics;
  const double qps = Qps(plain, plain_failed);
  metrics.Add("qps", qps, "req/s", plain.samples.size());
  metrics.Add("p50_ms", Percentile(latency, 0.5), "ms", latency.size());
  metrics.Add("p99_ms", Percentile(latency, 0.99), "ms", latency.size());
  metrics.Add("peak_rss_mb", plain.peak_rss_mb, "MiB", 1);

  if (args.trace) {
    AddLayerMetrics(traced, warmup, &metrics);
    AddProbeMetrics(*harness, &metrics);
    metrics.Add("trace.overhead", Ratio(qps, Qps(traced, traced_failed)) - 1.0,
                "ratio", traced.requests.size());
    AddStageSpans(&traced);
    if (!WriteTrace(args.trace_out, traced.spans, args)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  harness.reset();  // `in` is gone from here on
  for (size_t i = setups_before; i < setups.size(); ++i) {
    SetUp(args, &setups[i], &continuous_ids);
  }
  std::vector<double> setup_total, setup_graph, setup_queries, setup_service;
  for (const SetupSample& s : setups) {
    setup_total.push_back(s.total_s);
    setup_graph.push_back(s.graph_s);
    setup_queries.push_back(s.queries_s);
    setup_service.push_back(s.service_s);
  }
  metrics.Add("setup_s", Median(setup_total), "s", setups.size());
  if (args.trace) {
    metrics.Add("setup.graph_s", Median(setup_graph), "s", setups.size());
    metrics.Add("setup.queries_s", Median(setup_queries), "s", setups.size());
    metrics.Add("setup.service_s", Median(setup_service), "s", setups.size());
  }

  obs::Json out = obs::Json::Object();
  out.Set("workload", obs::Json::String(name));
  out.Set("seed", obs::Json::Number(args.seed));
  out.Set("scale", obs::Json::Number(args.scale));
  out.Set("fingerprint", obs::Json::String(fingerprint));
  out.Set("expected_total", obs::Json::Number(expected_total));
  out.Set("attempted", obs::Json::Number(attempted));
  out.Set("failed", obs::Json::Number(failed));
  out.Set("continuous_mismatches", obs::Json::Number(continuous_mismatches));
  out.Set("tail_ok", obs::Json::Bool(tail_ok));
  out.Set("correct", obs::Json::Bool(failed == 0 && tail_ok));
  out.Set("metrics", std::move(metrics.json));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace sgm::e2e

int main(int argc, char** argv) { return sgm::e2e::Main(argc, argv); }
