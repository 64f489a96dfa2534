// MatchService: an embeddable serving layer that owns one data graph and
// shared infrastructure (plan cache, worker pool, admission queue) and
// answers concurrent subgraph-match requests against it.
//
// Request lifecycle (docs/ARCHITECTURE.md draws the full picture):
//
//   Submit(request)
//     └─ admission: queue-depth check → FIFO queue (kRejected on overload)
//         └─ worker: deadline check (kTimedOut if it expired while queued)
//             └─ plan cache: exact-key lookup → hit: reuse plan
//                                             → miss: BuildMatchPlan + insert
//                 └─ ExecutePlan (serial engine, per-request cancel flag,
//                    remaining-deadline time limit; a slow hit races RI's
//                    order once per entry, DESIGN.md §11)
//                     └─ MatchResponse through the Submit() future
//
// Concurrency model: the service owns `worker_count` threads; each request
// executes serially on exactly one of them, so K in-flight requests share
// the workers without oversubscribing cores — the same threads-as-budget
// discipline as parallel::TaskPool, applied across requests instead of
// across root candidates of one query. For single-query latency on an idle
// service, ParallelMatchQuery (which fans one query out over a TaskPool)
// remains the right tool; the service optimizes aggregate throughput.
//
// The data graph is mutable through ApplyUpdates (DESIGN.md §14): each
// batch lands atomically on a dynamic::DynamicGraph, bumps the graph
// epoch (folded into every plan-cache key, so stale plans are
// unreachable) and yields exact match deltas for registered continuous
// queries. The writer compacts the overlay and publishes the new snapshot
// before ApplyUpdates returns; requests pin that immutable snapshot at
// execution start with a pointer copy — in-flight enumeration never
// observes a mutation, and no request waits on a writer.
//
// Cancellation is cooperative and uses MatchOptions::cancel_flag: the
// serial engine checks the request's token every 1024 recursion calls.
// Deadlines cover the whole lifecycle — time spent queued counts against
// the deadline, and a request whose deadline expires before a worker picks
// it up completes as kTimedOut without running (graceful overload: the
// queue drains at the speed of the workers, and everything past its
// deadline costs only a dequeue).
#ifndef SGM_SERVICE_SERVICE_H_
#define SGM_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sgm/dynamic/continuous.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph.h"
#include "sgm/matcher.h"
#include "sgm/obs/metrics.h"
#include "sgm/obs/run_report.h"
#include "sgm/obs/slow_query_log.h"
#include "sgm/service/plan_cache.h"

namespace sgm::service {

/// Terminal state of a served request. Mirrors the sgm_match exit-code
/// convention: kOk ↔ 0, kTimedOut ↔ 3; kRejected covers both admission
/// overload and invalid queries (the response's `error` says which).
enum class RequestStatus : uint8_t {
  kOk = 0,
  kTimedOut = 1,
  kCancelled = 2,
  kRejected = 3,
};

/// Short name: "ok", "timeout", "cancelled", "rejected".
const char* RequestStatusName(RequestStatus status);

/// One match request against the service's data graph.
struct MatchRequest {
  /// The query graph (copied into the request; connected, 1..64 vertices).
  Graph query;
  /// Structural options select the plan (and thus the cache key); per-run
  /// knobs (max_matches, time_limit_ms) bound this request's execution.
  /// options.collector and options.cancel_flag are ignored — use `cancel`
  /// below; per-request collectors are not supported.
  MatchOptions options;
  /// Whole-lifecycle deadline in milliseconds, measured from Submit();
  /// queueing time counts. 0 = no deadline (options.time_limit_ms still
  /// bounds the enumeration). Expired-in-queue requests finish kTimedOut
  /// without executing.
  double deadline_ms = 0.0;
  /// Optional cancellation token. Set it (from any thread) to abort the
  /// request: queued requests complete kCancelled without running, an
  /// executing request stops within ~1024 recursion calls. Null = not
  /// cancellable by the caller (the service still cancels on Shutdown).
  std::shared_ptr<std::atomic<bool>> cancel;
  /// When true, the response carries the embeddings (element i of a match
  /// is the data vertex mapped to query vertex i). Mind max_matches.
  bool collect_embeddings = false;
};

/// The service's answer to one MatchRequest.
struct MatchResponse {
  RequestStatus status = RequestStatus::kOk;
  /// Human-readable detail for kRejected (overload vs invalid query).
  std::string error;
  /// The engine-level result. On a plan-cache hit the preprocessing times
  /// are zero — this run did no preprocessing. Partial on kTimedOut or
  /// kCancelled (matches found before the stop are counted), default-
  /// constructed on kRejected.
  MatchResult engine;
  /// Per-pass breakdown when the service runs sharded
  /// (ServiceOptions::shards > 1); shard_count == 0 on monolithic services.
  ShardedRunInfo sharding;
  /// True when the plan came out of the cache.
  bool plan_cache_hit = false;
  /// Time spent in the admission queue before a worker picked the request
  /// up, and total time from Submit() to completion.
  double queue_ms = 0.0;
  double service_ms = 0.0;
  /// Number of requests already waiting when this one was enqueued.
  uint32_t queue_depth_at_admission = 0;
  /// Embeddings, iff MatchRequest::collect_embeddings.
  std::vector<std::vector<Vertex>> embeddings;
};

/// Configuration of a MatchService.
struct ServiceOptions {
  /// Worker threads executing requests. 0 = hardware concurrency.
  uint32_t worker_count = 0;
  /// Split the data graph into this many shards at construction and answer
  /// every request through ShardedMatchQuery (plan.h). 0 or 1 =
  /// monolithic. Sharded requests bypass the plan cache and build their
  /// K+1 pass plans on every request: caching them raised bench/e2e
  /// shard-k4 throughput from 116 to 325 req/s but peak RSS from 27.5 to
  /// 39.2 MiB (+42%, 4-core VM), so expect build cost on every request.
  uint32_t shards = 0;
  /// Partitioner for the sharded path (ignored when shards <= 1).
  shard::Partitioner shard_partitioner = shard::Partitioner::kGreedy;
  /// Plan cache memory budget; 0 disables the cache (every request builds
  /// its plan from scratch — the baseline sgm_serve --no-cache measures).
  size_t plan_cache_budget_bytes = 256ull << 20;
  /// Admission bound: a Submit() finding this many requests already queued
  /// completes kRejected immediately. 0 = unbounded queue.
  uint32_t max_queue_depth = 0;
  /// Applied to requests that carry no deadline of their own. 0 = none.
  double default_deadline_ms = 0.0;
  /// Registry the service instruments (request/status counters, queue and
  /// execute latency histograms, plan-cache and worker series — docs/API.md
  /// lists them). nullptr = the process-wide obs::MetricsRegistry::Default();
  /// point at a local registry to isolate (tests do).
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured slow-query sink: requests whose service_ms reaches the
  /// log's threshold append one JSONL record. nullptr disables logging.
  /// The log must outlive the service.
  obs::SlowQueryLog* slow_query_log = nullptr;
};

/// Result of one MatchService::ApplyUpdates call.
struct UpdateReport {
  /// False when the batch failed validation (graph untouched) or the
  /// service does not accept updates (sharded); `error` says which.
  bool applied = false;
  std::string error;
  /// Graph epoch after the batch.
  uint64_t epoch = 0;
  uint32_t ops_applied = 0;
  /// Exact match deltas of the registered continuous queries, ascending
  /// query id (empty when none are registered).
  std::vector<dynamic::MatchDelta> deltas;
  /// Overlay mutation + candidate repair vs anchored enumeration split.
  double apply_ms = 0.0;
  double enumerate_ms = 0.0;
  /// Merging the overlay into the CSR snapshot that requests pin; the
  /// writer pays it before the new snapshot is published.
  double compact_ms = 0.0;
};

/// Cumulative dynamic-graph counters since service construction.
struct ServiceDynamicStats {
  uint64_t graph_epoch = 0;
  uint64_t update_batches = 0;
  uint64_t update_ops = 0;
  uint64_t delta_additions = 0;
  uint64_t delta_retractions = 0;
  uint64_t candidates_repaired = 0;
  uint64_t compactions = 0;
  size_t overlay_bytes = 0;
  double update_apply_ms = 0.0;
  double delta_enumerate_ms = 0.0;
  double compact_ms = 0.0;
  uint64_t continuous_queries = 0;
};

/// Aggregate service counters, point-in-time.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;  ///< finished kOk
  uint64_t timed_out = 0;
  uint64_t cancelled = 0;
  uint64_t rejected = 0;
  uint64_t total_matches = 0;
  double total_queue_ms = 0.0;
  double total_execute_ms = 0.0;
  /// Requests waiting right now / high-water mark since construction.
  uint32_t queue_depth = 0;
  uint32_t max_queue_depth = 0;
  PlanCacheStats plan_cache;
};

/// See file comment. All public methods are thread-safe.
class MatchService {
 public:
  /// Takes ownership of the data graph; workers start immediately.
  explicit MatchService(Graph data, const ServiceOptions& options = {});
  /// Cancels in-flight requests, fails queued ones and joins the workers.
  ~MatchService();

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// The latest published snapshot of the data graph. Stable only while no
  /// ApplyUpdates call races it — single-threaded test and report code
  /// only; request execution pins its own snapshot internally.
  const Graph& data() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return *snapshot_;
  }
  uint32_t worker_count() const { return static_cast<uint32_t>(workers_.size()); }
  /// Shards the service executes against; 0 when monolithic.
  uint32_t shard_count() const {
    return sharded_ != nullptr ? sharded_->shard_count() : 0;
  }

  /// Enqueues a request. The future resolves when the request reaches a
  /// terminal status — including kRejected (admission) and kTimedOut
  /// (expired while queued); Submit itself never blocks on matching work.
  std::future<MatchResponse> Submit(MatchRequest request);

  /// Synchronous convenience: Submit + wait.
  MatchResponse Match(MatchRequest request);

  /// Applies one update batch atomically to the data graph, bumping its
  /// epoch (which re-keys the plan cache — subsequent requests cannot see
  /// a stale plan) and producing the exact match delta of every registered
  /// continuous query. The caller pays the overlay compaction, then the
  /// new snapshot is published: requests already executing keep their
  /// pinned pre-update snapshot; requests that start after the call
  /// returns see the new graph. Sharded services reject updates (their
  /// shards are built once at construction). Thread-safe; concurrent
  /// ApplyUpdates calls serialize.
  UpdateReport ApplyUpdates(const dynamic::UpdateBatch& batch);

  /// Registers a continuous query: every subsequent ApplyUpdates reports
  /// its exact match delta. Returns the query id (> 0), or 0 with *error
  /// set when the query is rejected (see dynamic::ContinuousMatcher).
  uint64_t RegisterContinuousQuery(Graph query, std::string* error);
  /// Returns false when no such registration exists.
  bool UnregisterContinuousQuery(uint64_t query_id);

  /// Epoch of the published snapshot (number of applied update batches).
  /// Never waits on a writer.
  uint64_t graph_epoch() const;

  ServiceStats Stats() const;
  /// Cumulative dynamic-update counters.
  ServiceDynamicStats DynamicStats() const;

  /// The registry this service instruments (never null; resolves the
  /// options' nullptr default to obs::MetricsRegistry::Default()).
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Stops accepting work, cancels executing requests (their futures
  /// resolve kCancelled), fails queued requests and joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Pending {
    MatchRequest request;
    std::promise<MatchResponse> promise;
    /// Set at Submit; queue_ms and service_ms derive from it.
    double submit_time_ms = 0.0;
    uint32_t depth_at_admission = 0;
  };

  /// The service's series in the metrics registry, resolved once at
  /// construction so the request path never pays a registry lookup.
  struct Instruments {
    /// sgm_service_requests_total{status=...}, one per terminal status.
    obs::Counter* requests_ok = nullptr;
    obs::Counter* requests_timeout = nullptr;
    obs::Counter* requests_cancelled = nullptr;
    obs::Counter* requests_rejected = nullptr;
    obs::Counter* admission_rejects = nullptr;
    obs::Counter* deadline_expired_in_queue = nullptr;
    obs::Counter* matches = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
    obs::Counter* plan_cache_evictions = nullptr;
    obs::Counter* plan_cache_rejected = nullptr;
    obs::Gauge* plan_cache_entries = nullptr;
    obs::Gauge* plan_cache_bytes = nullptr;
    obs::Counter* update_batches = nullptr;
    obs::Counter* update_ops = nullptr;
    obs::Counter* delta_additions = nullptr;
    obs::Counter* delta_retractions = nullptr;
    obs::Gauge* graph_epoch = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_ms = nullptr;
    obs::Histogram* execute_ms = nullptr;
    obs::Histogram* request_ms = nullptr;
    /// sgm_service_order_races_total{outcome=...} and the challenger time
    /// lost races cost.
    obs::Counter* order_races_won = nullptr;
    obs::Counter* order_races_lost = nullptr;
    obs::Counter* order_race_lost_ms = nullptr;
    /// sgm_service_worker_busy_us_total{worker="i"}, one per worker.
    std::vector<obs::Counter*> worker_busy_us;
  };

  /// One request's pinned view of the data graph: the snapshot it executes
  /// against and the epoch folded into its plan-cache key.
  struct GraphView {
    std::shared_ptr<const Graph> graph;
    uint64_t epoch = 0;
  };

  void WorkerLoop(uint32_t worker_index);
  /// Executes one dequeued request end to end and fulfills its promise.
  void Execute(Pending pending);
  MatchResponse Run(const MatchRequest& request, double queue_ms,
                    const std::atomic<bool>* cancel_token,
                    const GraphView& view);
  /// Executes a plan-cache hit whose built order enumerated for at least
  /// the race threshold (service.cc). Runs the entry's winning order once
  /// a race has published one. Otherwise claims the entry's race, at most
  /// once, when `options.time_limit_ms` covers twice the incumbent's time:
  /// RI's order runs with the incumbent's time as its limit and answers
  /// the request if it finishes; if it times out, its embeddings are
  /// dropped and the built order runs on the rest of the budget.
  MatchResult ExecuteSlowHit(const Graph& query, const Graph& data,
                             const MatchPlan& plan, const std::string& key,
                             OrderRace* race, MatchOptions options,
                             const MatchCallback& callback,
                             std::vector<std::vector<Vertex>>* embeddings);
  /// Pins the published snapshot: a pointer copy under snapshot_mutex_,
  /// never graph_mutex_, so a request never waits on a writer.
  GraphView CurrentView() const;
  /// Appends a slow-query record when the response qualifies. `data` is
  /// the graph the request ran against.
  void MaybeLogSlowQuery(const MatchRequest& request,
                         const MatchResponse& response, const Graph& data);
  /// Folds the plan cache's point-in-time stats into the cumulative
  /// counters/gauges. Caller holds mutex_ (it guards cache_stats_seen_).
  void SyncPlanCacheMetricsLocked();

  /// Monotonic milliseconds since service construction.
  double NowMs() const;

  const ServiceOptions options_;
  /// The mutable data graph, its continuous queries and the cumulative
  /// dynamic counters, guarded by graph_mutex_. Only writers and stats
  /// readers take it; requests never touch dynamic_.
  dynamic::DynamicGraph dynamic_;
  dynamic::ContinuousMatcher continuous_;
  mutable std::mutex graph_mutex_;
  ServiceDynamicStats dynamic_stats_;
  /// The compacted snapshot requests pin and its epoch. ApplyUpdates
  /// replaces both under snapshot_mutex_ (held only for the swap, and taken
  /// inside graph_mutex_ on the writer side); CurrentView() copies them.
  std::shared_ptr<const Graph> snapshot_;
  uint64_t snapshot_epoch_ = 0;
  mutable std::mutex snapshot_mutex_;
  /// Built once at construction when options_.shards > 1; null otherwise.
  /// Points into *snapshot_, which sharded services never replace
  /// (ApplyUpdates rejects).
  std::unique_ptr<const shard::ShardedGraph> sharded_;
  PlanCache plan_cache_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments instruments_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  /// Tokens of requests currently executing, for Shutdown cancellation.
  /// Each executing request holds a service-side token even when the
  /// caller provided none.
  std::vector<std::shared_ptr<std::atomic<bool>>> inflight_tokens_;

  // Counters (guarded by mutex_).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t rejected_ = 0;
  uint64_t total_matches_ = 0;
  double total_queue_ms_ = 0.0;
  double total_execute_ms_ = 0.0;
  uint32_t max_queue_depth_seen_ = 0;
  /// Last plan-cache stats folded into the metrics (delta updates keep the
  /// cumulative counters correct across snapshots).
  PlanCacheStats cache_stats_seen_;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::thread> workers_;
};

/// Builds the standard run report of a served request: the engine section
/// comes from obs::BuildRunReport over the request's options and the
/// response's engine result; the service section (served, plan_cache_hit,
/// queue_ms, queue_depth, request_status) is filled from the response.
/// When `metrics` is non-null its ToJson() snapshot lands in
/// service.metrics (pass service.metrics() for the answering service).
/// When `dynamic_stats` is non-null the report's `dynamic` section carries
/// the service's cumulative update counters (pass the answering service's
/// DynamicStats()).
obs::RunReport BuildServedRunReport(const Graph& query, const Graph& data,
                                    const MatchRequest& request,
                                    const MatchResponse& response,
                                    const obs::MetricsRegistry* metrics =
                                        nullptr,
                                    const ServiceDynamicStats* dynamic_stats =
                                        nullptr);

}  // namespace sgm::service

#endif  // SGM_SERVICE_SERVICE_H_
