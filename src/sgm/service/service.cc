#include "sgm/service/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sgm/core/order/order.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/plan.h"
#include "sgm/util/timer.h"

namespace sgm::service {

namespace {

// A cache hit races RI's order against the plan's built order only when the
// built order enumerated for at least this long, so cheap hits keep their
// old path: single-threaded over the seed-42 bench/e2e pools on a shared
// 4-core Xeon VM, only 3 of the 2000 build-heavy/update-mix plans enumerate
// for 1 ms or more (a typical hit there takes about 30 us), against 20 of
// the 24 enum-heavy plans, at up to 120 ms.
constexpr double kOrderRaceThresholdMs = 1.0;

// The tighter of two time budgets in milliseconds, where 0 (or less) means
// unlimited — the convention of MatchOptions::time_limit_ms.
double TighterLimitMs(double a_ms, double b_ms) {
  if (a_ms <= 0.0) return b_ms;
  if (b_ms <= 0.0) return a_ms;
  return std::min(a_ms, b_ms);
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kTimedOut:
      return "timeout";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

MatchService::MatchService(Graph data, const ServiceOptions& options)
    : options_(options),
      dynamic_(std::move(data)),
      continuous_(&dynamic_),
      snapshot_(dynamic_.SnapshotShared()),
      plan_cache_(PlanCacheOptions{options.plan_cache_budget_bytes}),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Default()),
      epoch_(std::chrono::steady_clock::now()) {
  if (options.shards > 1) {
    // Shards reference *snapshot_, which a sharded service never replaces
    // (ApplyUpdates rejects).
    sharded_ = std::make_unique<const shard::ShardedGraph>(
        *snapshot_, options.shards, options.shard_partitioner);
  }
  uint32_t workers = options_.worker_count;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }

  // Resolve every series once; the request path only touches the cached
  // pointers (a few relaxed atomic RMWs per request — docs/API.md lists
  // the series and DESIGN.md §12 the model).
  obs::MetricsRegistry& reg = *metrics_;
  const char* kRequestsHelp =
      "Served requests by terminal status (admission rejects included).";
  instruments_.requests_ok =
      reg.GetCounter("sgm_service_requests_total", kRequestsHelp,
                     {{"status", "ok"}});
  instruments_.requests_timeout =
      reg.GetCounter("sgm_service_requests_total", kRequestsHelp,
                     {{"status", "timeout"}});
  instruments_.requests_cancelled =
      reg.GetCounter("sgm_service_requests_total", kRequestsHelp,
                     {{"status", "cancelled"}});
  instruments_.requests_rejected =
      reg.GetCounter("sgm_service_requests_total", kRequestsHelp,
                     {{"status", "rejected"}});
  instruments_.admission_rejects = reg.GetCounter(
      "sgm_service_admission_rejects_total",
      "Requests rejected because the admission queue was full.");
  instruments_.deadline_expired_in_queue = reg.GetCounter(
      "sgm_service_deadline_expired_in_queue_total",
      "Requests whose deadline expired while queued (never executed).");
  instruments_.matches = reg.GetCounter(
      "sgm_service_matches_total", "Embeddings found across all requests.");
  instruments_.slow_queries = reg.GetCounter(
      "sgm_service_slow_queries_total",
      "Requests at or above the slow-query threshold.");
  instruments_.plan_cache_hits = reg.GetCounter(
      "sgm_service_plan_cache_hits_total", "Plan cache lookup hits.");
  instruments_.plan_cache_misses = reg.GetCounter(
      "sgm_service_plan_cache_misses_total", "Plan cache lookup misses.");
  instruments_.plan_cache_evictions = reg.GetCounter(
      "sgm_service_plan_cache_evictions_total",
      "Plans evicted by the LRU policy to stay under the memory budget.");
  instruments_.plan_cache_rejected = reg.GetCounter(
      "sgm_service_plan_cache_rejected_total",
      "Plan inserts dropped because one plan exceeds the whole budget.");
  instruments_.plan_cache_entries = reg.GetGauge(
      "sgm_service_plan_cache_entries", "Plans resident in the cache.");
  instruments_.plan_cache_bytes = reg.GetGauge(
      "sgm_service_plan_cache_bytes", "Memory charged to cached plans.");
  instruments_.update_batches = reg.GetCounter(
      "sgm_service_update_batches_total",
      "Update batches applied to the data graph.");
  instruments_.update_ops = reg.GetCounter(
      "sgm_service_update_ops_total",
      "Primitive graph mutations applied across all update batches.");
  instruments_.delta_additions = reg.GetCounter(
      "sgm_service_delta_additions_total",
      "Continuous-query match additions reported across all batches.");
  instruments_.delta_retractions = reg.GetCounter(
      "sgm_service_delta_retractions_total",
      "Continuous-query match retractions reported across all batches.");
  instruments_.graph_epoch = reg.GetGauge(
      "sgm_service_graph_epoch",
      "Current data-graph epoch (applied update batches).");
  instruments_.inflight = reg.GetGauge(
      "sgm_service_inflight_requests", "Requests executing right now.");
  instruments_.queue_depth = reg.GetGauge(
      "sgm_service_queue_depth", "Requests waiting in the admission queue.");
  instruments_.queue_ms = reg.GetHistogram(
      "sgm_service_queue_ms",
      "Time from Submit() to a worker picking the request up.");
  instruments_.execute_ms = reg.GetHistogram(
      "sgm_service_execute_ms",
      "Time a worker spent executing the request (excludes queueing).");
  instruments_.request_ms = reg.GetHistogram(
      "sgm_service_request_ms",
      "Total time from Submit() to the terminal status (queue + execute).");
  const char* kRacesHelp =
      "Order races on slow cached plans: RI's order against the built "
      "order, by outcome.";
  instruments_.order_races_won = reg.GetCounter(
      "sgm_service_order_races_total", kRacesHelp, {{"outcome", "won"}});
  instruments_.order_races_lost = reg.GetCounter(
      "sgm_service_order_races_total", kRacesHelp, {{"outcome", "lost"}});
  instruments_.order_race_lost_ms = reg.GetCounter(
      "sgm_service_order_race_lost_ms_total",
      "Whole milliseconds spent on challengers that lost their race.");
  instruments_.worker_busy_us.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    instruments_.worker_busy_us.push_back(reg.GetCounter(
        "sgm_service_worker_busy_us_total",
        "Thread-CPU microseconds each worker spent executing requests.",
        {{"worker", std::to_string(w)}}));
  }

  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

MatchService::~MatchService() { Shutdown(); }

double MatchService::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::future<MatchResponse> MatchService::Submit(MatchRequest request) {
  std::promise<MatchResponse> promise;
  std::future<MatchResponse> future = promise.get_future();

  // Admission-time validation: reject malformed queries before they cost a
  // queue slot, with a reason a caller can act on.
  std::string reject_reason;
  if (request.query.vertex_count() < 1 ||
      request.query.vertex_count() > kMaxQueryVertices) {
    reject_reason = "query size out of supported range [1, 64]";
  } else if (!IsConnected(request.query)) {
    reject_reason = "query graph must be connected";
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++submitted_;
    if (reject_reason.empty() && shutdown_) {
      reject_reason = "service is shut down";
    }
    if (reject_reason.empty() && options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      reject_reason = "admission queue full";
    }
    if (!reject_reason.empty()) {
      ++rejected_;
    } else {
      Pending pending;
      pending.depth_at_admission = static_cast<uint32_t>(queue_.size());
      pending.submit_time_ms = NowMs();
      pending.request = std::move(request);
      pending.promise = std::move(promise);
      queue_.push_back(std::move(pending));
      max_queue_depth_seen_ = std::max(
          max_queue_depth_seen_, static_cast<uint32_t>(queue_.size()));
      instruments_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
      lock.unlock();
      work_available_.notify_one();
      return future;
    }
  }

  instruments_.requests_rejected->Increment();
  if (reject_reason == "admission queue full") {
    instruments_.admission_rejects->Increment();
  }
  MatchResponse response;
  response.status = RequestStatus::kRejected;
  response.error = reject_reason;
  promise.set_value(std::move(response));
  return future;
}

MatchResponse MatchService::Match(MatchRequest request) {
  return Submit(std::move(request)).get();
}

void MatchService::WorkerLoop(uint32_t worker_index) {
  obs::Counter* busy_us = instruments_.worker_busy_us[worker_index];
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      pending = std::move(queue_.front());
      queue_.pop_front();
      instruments_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    ThreadCpuTimer cpu_timer;
    Execute(std::move(pending));
    busy_us->Increment(static_cast<uint64_t>(
        std::max<int64_t>(0, cpu_timer.ElapsedNanos() / 1000)));
  }
}

void MatchService::Execute(Pending pending) {
  const double queue_ms = NowMs() - pending.submit_time_ms;

  // Every executing request holds a service-side token (the caller's when
  // provided), so Shutdown can cancel work it no longer wants.
  std::shared_ptr<std::atomic<bool>> token = pending.request.cancel;
  if (token == nullptr) token = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) token->store(true, std::memory_order_relaxed);
    inflight_tokens_.push_back(token);
  }
  instruments_.inflight->Add(1);

  // Pin the graph this request executes against: enumeration reads an
  // immutable snapshot, so concurrent ApplyUpdates never race it.
  const GraphView view = CurrentView();
  MatchResponse response = Run(pending.request, queue_ms, token.get(), view);
  response.queue_ms = queue_ms;
  response.queue_depth_at_admission = pending.depth_at_admission;
  response.service_ms = NowMs() - pending.submit_time_ms;

  obs::Counter* status_counter = instruments_.requests_rejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_tokens_.erase(
        std::find(inflight_tokens_.begin(), inflight_tokens_.end(), token));
    switch (response.status) {
      case RequestStatus::kOk:
        ++completed_;
        status_counter = instruments_.requests_ok;
        break;
      case RequestStatus::kTimedOut:
        ++timed_out_;
        status_counter = instruments_.requests_timeout;
        break;
      case RequestStatus::kCancelled:
        ++cancelled_;
        status_counter = instruments_.requests_cancelled;
        break;
      case RequestStatus::kRejected:
        ++rejected_;
        break;
    }
    total_matches_ += response.engine.match_count;
    total_queue_ms_ += queue_ms;
    total_execute_ms_ += response.service_ms - queue_ms;
    SyncPlanCacheMetricsLocked();
  }
  instruments_.inflight->Add(-1);
  status_counter->Increment();
  instruments_.matches->Increment(response.engine.match_count);
  instruments_.queue_ms->Record(queue_ms);
  instruments_.execute_ms->Record(response.service_ms - queue_ms);
  instruments_.request_ms->Record(response.service_ms);
  MaybeLogSlowQuery(pending.request, response, *view.graph);
  pending.promise.set_value(std::move(response));
}

void MatchService::SyncPlanCacheMetricsLocked() {
  const PlanCacheStats now = plan_cache_.Stats();
  instruments_.plan_cache_hits->Increment(now.hits - cache_stats_seen_.hits);
  instruments_.plan_cache_misses->Increment(now.misses -
                                            cache_stats_seen_.misses);
  instruments_.plan_cache_evictions->Increment(now.evictions -
                                               cache_stats_seen_.evictions);
  instruments_.plan_cache_rejected->Increment(now.rejected -
                                              cache_stats_seen_.rejected);
  instruments_.plan_cache_entries->Set(static_cast<int64_t>(now.entries));
  instruments_.plan_cache_bytes->Set(static_cast<int64_t>(now.memory_bytes));
  cache_stats_seen_ = now;
}

void MatchService::MaybeLogSlowQuery(const MatchRequest& request,
                                     const MatchResponse& response,
                                     const Graph& data) {
  obs::SlowQueryLog* log = options_.slow_query_log;
  if (log == nullptr || response.service_ms < log->threshold_ms()) return;
  instruments_.slow_queries->Increment();

  obs::SlowQueryRecord record;
  record.unix_time_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  record.status = RequestStatusName(response.status);
  record.threshold_ms = log->threshold_ms();
  record.service_ms = response.service_ms;
  record.queue_ms = response.queue_ms;
  record.execute_ms = response.service_ms - response.queue_ms;
  record.plan_cache_hit = response.plan_cache_hit;
  record.query_vertices = request.query.vertex_count();
  record.query_edges = request.query.edge_count();
  record.match_count = response.engine.match_count;
  record.recursion_calls = response.engine.enumerate.recursion_calls;
  record.local_candidates_scanned =
      response.engine.enumerate.local_candidates_scanned;
  record.failing_set_prunes = response.engine.enumerate.failing_set_prunes;
  record.bitmap_intersections =
      response.engine.enumerate.bitmap_intersections;
  record.lc_cache_hits = response.engine.enumerate.lc_cache_hits;
  record.lc_cache_misses = response.engine.enumerate.lc_cache_misses;
  record.timed_out = response.engine.enumerate.timed_out;
  record.reached_match_limit = response.engine.enumerate.reached_match_limit;
  if (log->embed_reproducer()) {
    record.reproducer =
        obs::BuildSlowQueryReproducer(request.query, data, request.options);
  }
  log->Append(record);
}

MatchResponse MatchService::Run(const MatchRequest& request, double queue_ms,
                                const std::atomic<bool>* cancel_token,
                                const GraphView& view) {
  const Graph& data = *view.graph;
  MatchResponse response;
  if (cancel_token->load(std::memory_order_relaxed)) {
    response.status = RequestStatus::kCancelled;
    return response;
  }

  double deadline_ms = request.deadline_ms > 0.0
                           ? request.deadline_ms
                           : options_.default_deadline_ms;
  if (deadline_ms > 0.0 && queue_ms >= deadline_ms) {
    // Expired while queued: the exit-3-style overload path — the request
    // never executes, so overload costs only a dequeue per casualty.
    instruments_.deadline_expired_in_queue->Increment();
    response.status = RequestStatus::kTimedOut;
    return response;
  }

  MatchOptions options = request.options;
  options.collector = nullptr;  // per-request collectors are not supported
  options.cancel_flag = cancel_token;
  if (deadline_ms > 0.0) {
    options.time_limit_ms =
        TighterLimitMs(options.time_limit_ms, deadline_ms - queue_ms);
  }

  MatchCallback sharded_callback;
  if (sharded_ != nullptr) {
    // Sharded execution bypasses the plan cache (cached pass plans cost
    // +42% peak RSS on bench/e2e shard-k4; see ServiceOptions::shards):
    // build the pass plans, run the passes under one budget and this
    // request's cancel token, and report the per-pass breakdown.
    options.shards = 0;  // the executor owns the split; avoid re-dispatch
    if (request.collect_embeddings) {
      sharded_callback = [&response](std::span<const Vertex> mapping) {
        response.embeddings.emplace_back(mapping.begin(), mapping.end());
        return true;
      };
    }
    ShardedMatchResult sharded = ShardedMatchQuery(
        request.query, *sharded_, options, sharded_callback);
    response.engine = std::move(sharded.result);
    response.sharding = std::move(sharded.sharding);
    if (cancel_token->load(std::memory_order_relaxed)) {
      response.status = RequestStatus::kCancelled;
    } else if (response.engine.enumerate.timed_out) {
      response.status = RequestStatus::kTimedOut;
    }
    return response;
  }

  // Plan: cache when enabled, build-and-discard otherwise. The cache key is
  // computed from the effective options, whose run-only knobs the encoding
  // ignores.
  std::shared_ptr<const MatchPlan> plan;
  OrderRace* race = nullptr;
  const bool cache_enabled = plan_cache_.memory_budget_bytes() > 0;
  std::string key;
  if (cache_enabled) {
    key = PlanCache::MakeKey(request.query, options, view.epoch);
    plan = plan_cache_.Lookup(key, &race);
    response.plan_cache_hit = plan != nullptr;
  }
  if (plan == nullptr) {
    auto built = BuildMatchPlan(request.query, data, options);
    plan = cache_enabled
               ? plan_cache_.Insert(key, std::move(built), &race)
               : std::shared_ptr<const MatchPlan>(std::move(built));
  }

  MatchCallback callback;
  if (request.collect_embeddings) {
    callback = [&response](std::span<const Vertex> mapping) {
      response.embeddings.emplace_back(mapping.begin(), mapping.end());
      return true;
    };
  }

  const bool slow_hit =
      response.plan_cache_hit &&
      race->incumbent_ms.load(std::memory_order_relaxed) >=
          kOrderRaceThresholdMs;
  if (slow_hit) {
    response.engine = ExecuteSlowHit(request.query, data, *plan, key, race,
                                     options, callback, &response.embeddings);
  } else {
    // A cache hit did no preprocessing, so its result reports none.
    response.engine =
        ExecutePlan(request.query, data, *plan, options, callback,
                    /*include_build_metrics=*/!response.plan_cache_hit);
  }

  if (cancel_token->load(std::memory_order_relaxed)) {
    response.status = RequestStatus::kCancelled;
  } else if (response.engine.enumerate.timed_out) {
    response.status = RequestStatus::kTimedOut;
  }
  if (!response.plan_cache_hit && race != nullptr &&
      response.status != RequestStatus::kCancelled &&
      PlanAcceptsAnyOrder(*plan)) {
    // The miss that built the plan times its order; later hits race it.
    race->incumbent_ms.store(response.engine.enumeration_ms,
                             std::memory_order_relaxed);
  }
  return response;
}

MatchResult MatchService::ExecuteSlowHit(
    const Graph& query, const Graph& data, const MatchPlan& plan,
    const std::string& key, OrderRace* race, MatchOptions options,
    const MatchCallback& callback,
    std::vector<std::vector<Vertex>>* embeddings) {
  if (race->state.load(std::memory_order_acquire) == OrderRace::kWon) {
    return ExecutePlan(query, data, plan, options, callback,
                       /*include_build_metrics=*/false, race->winning_order);
  }
  const double incumbent_ms =
      race->incumbent_ms.load(std::memory_order_relaxed);
  // The request's budget: its time limit folded with the deadline left
  // after queueing (TighterLimitMs in Run), 0 = unlimited. A lost race runs
  // the challenger for the incumbent's time and then the incumbent, so race
  // only when the budget covers both.
  const double budget_ms = options.time_limit_ms;
  const bool affordable = budget_ms <= 0.0 || budget_ms >= 2.0 * incumbent_ms;
  uint8_t unraced = OrderRace::kUnraced;
  if (!affordable ||
      !race->state.compare_exchange_strong(unraced, OrderRace::kRacing,
                                           std::memory_order_relaxed)) {
    return ExecutePlan(query, data, plan, options, callback,
                       /*include_build_metrics=*/false);
  }

  std::vector<Vertex> challenger = RiOrder(query);
  if (challenger == plan.matching_order) {
    race->state.store(OrderRace::kKept, std::memory_order_relaxed);
    return ExecutePlan(query, data, plan, options, callback,
                       /*include_build_metrics=*/false);
  }
  MatchOptions challenger_options = options;
  challenger_options.time_limit_ms = incumbent_ms;
  Timer challenger_timer;
  MatchResult result =
      ExecutePlan(query, data, plan, challenger_options, callback,
                  /*include_build_metrics=*/false, challenger);
  const double spent_ms = challenger_timer.ElapsedMillis();
  if (options.cancel_flag->load(std::memory_order_relaxed)) {
    // Stopped by cancellation, not by its limit: the race decided nothing.
    race->state.store(OrderRace::kUnraced, std::memory_order_relaxed);
    return result;
  }
  if (!result.enumerate.timed_out) {
    plan_cache_.PublishWinningOrder(key, race, std::move(challenger));
    instruments_.order_races_won->Increment();
    return result;
  }

  race->state.store(OrderRace::kKept, std::memory_order_relaxed);
  instruments_.order_races_lost->Increment();
  instruments_.order_race_lost_ms->Increment(
      static_cast<uint64_t>(std::llround(spent_ms)));
  embeddings->clear();
  if (budget_ms > 0.0) {
    // The smallest positive limit stops an exhausted run at its first
    // check; a limit of 0 would mean unlimited.
    options.time_limit_ms = std::max(budget_ms - spent_ms,
                                     std::numeric_limits<double>::min());
  }
  return ExecutePlan(query, data, plan, options, callback,
                     /*include_build_metrics=*/false);
}

MatchService::GraphView MatchService::CurrentView() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return {snapshot_, snapshot_epoch_};
}

UpdateReport MatchService::ApplyUpdates(const dynamic::UpdateBatch& batch) {
  UpdateReport report;
  if (sharded_ != nullptr) {
    report.error =
        "sharded services do not accept updates (shards are built at "
        "construction)";
    return report;
  }

  std::string error;
  std::optional<dynamic::BatchResult> result;
  double compact_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    result = continuous_.ApplyBatch(batch, &error);
    if (result.has_value()) {
      // The writer pays the merge, then publishes: requests only ever copy
      // the snapshot pointer and never wait on graph_mutex_.
      Timer compact_timer;
      dynamic_.Compact();
      compact_ms = compact_timer.ElapsedMillis();
      std::shared_ptr<const Graph> published = dynamic_.SnapshotShared();
      {
        std::lock_guard<std::mutex> publish(snapshot_mutex_);
        snapshot_.swap(published);
        snapshot_epoch_ = result->epoch;
      }
      ++dynamic_stats_.update_batches;
      dynamic_stats_.update_ops += result->ops_applied;
      dynamic_stats_.update_apply_ms += result->apply_ms;
      dynamic_stats_.delta_enumerate_ms += result->enumerate_ms;
      dynamic_stats_.compact_ms += compact_ms;
      for (const dynamic::MatchDelta& delta : result->deltas) {
        dynamic_stats_.delta_additions += delta.additions;
        dynamic_stats_.delta_retractions += delta.retractions;
        dynamic_stats_.candidates_repaired += delta.candidates_repaired;
      }
    }
  }
  if (!result.has_value()) {
    report.error = error;
    return report;
  }

  uint64_t additions = 0;
  uint64_t retractions = 0;
  for (const dynamic::MatchDelta& delta : result->deltas) {
    additions += delta.additions;
    retractions += delta.retractions;
  }
  instruments_.update_batches->Increment();
  instruments_.update_ops->Increment(result->ops_applied);
  instruments_.delta_additions->Increment(additions);
  instruments_.delta_retractions->Increment(retractions);
  instruments_.graph_epoch->Set(static_cast<int64_t>(result->epoch));

  report.applied = true;
  report.epoch = result->epoch;
  report.ops_applied = result->ops_applied;
  report.apply_ms = result->apply_ms;
  report.enumerate_ms = result->enumerate_ms;
  report.compact_ms = compact_ms;
  report.deltas = std::move(result->deltas);
  return report;
}

uint64_t MatchService::RegisterContinuousQuery(Graph query,
                                               std::string* error) {
  if (sharded_ != nullptr) {
    if (error != nullptr) {
      *error = "sharded services do not accept continuous queries";
    }
    return 0;
  }
  std::lock_guard<std::mutex> lock(graph_mutex_);
  return continuous_.Register(std::move(query), error);
}

bool MatchService::UnregisterContinuousQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  return continuous_.Unregister(query_id);
}

uint64_t MatchService::graph_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_epoch_;
}

ServiceDynamicStats MatchService::DynamicStats() const {
  std::lock_guard<std::mutex> lock(graph_mutex_);
  ServiceDynamicStats stats = dynamic_stats_;
  stats.graph_epoch = dynamic_.epoch();
  stats.compactions = dynamic_.compactions();
  stats.overlay_bytes = dynamic_.OverlayMemoryBytes();
  stats.continuous_queries = continuous_.registration_count();
  return stats;
}

ServiceStats MatchService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.submitted = submitted_;
    stats.completed = completed_;
    stats.timed_out = timed_out_;
    stats.cancelled = cancelled_;
    stats.rejected = rejected_;
    stats.total_matches = total_matches_;
    stats.total_queue_ms = total_queue_ms_;
    stats.total_execute_ms = total_execute_ms_;
    stats.queue_depth = static_cast<uint32_t>(queue_.size());
    stats.max_queue_depth = max_queue_depth_seen_;
  }
  stats.plan_cache = plan_cache_.Stats();
  return stats;
}

void MatchService::Shutdown() {
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && queue_.empty() && workers_.empty()) return;
    shutdown_ = true;
    for (const auto& token : inflight_tokens_) {
      token->store(true, std::memory_order_relaxed);
    }
    drained.swap(queue_);
    cancelled_ += drained.size();
    instruments_.queue_depth->Set(0);
    SyncPlanCacheMetricsLocked();
  }
  instruments_.requests_cancelled->Increment(drained.size());
  work_available_.notify_all();
  for (Pending& pending : drained) {
    MatchResponse response;
    response.status = RequestStatus::kCancelled;
    response.error = "service shut down before execution";
    response.queue_depth_at_admission = pending.depth_at_admission;
    response.queue_ms = NowMs() - pending.submit_time_ms;
    response.service_ms = response.queue_ms;
    pending.promise.set_value(std::move(response));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

obs::RunReport BuildServedRunReport(const Graph& query, const Graph& data,
                                    const MatchRequest& request,
                                    const MatchResponse& response,
                                    const obs::MetricsRegistry* metrics,
                                    const ServiceDynamicStats* dynamic_stats) {
  obs::RunReport report;
  if (response.sharding.shard_count > 0) {
    ShardedMatchResult sharded;
    sharded.result = response.engine;
    sharded.sharding = response.sharding;
    report = obs::BuildRunReport(query, data, request.options, sharded);
  } else {
    report = obs::BuildRunReport(query, data, request.options, response.engine);
  }
  report.served = true;
  report.plan_cache_hit = response.plan_cache_hit;
  report.queue_ms = response.queue_ms;
  report.queue_depth = response.queue_depth_at_admission;
  report.request_status = RequestStatusName(response.status);
  if (metrics != nullptr) report.service_metrics = metrics->ToJson();
  if (dynamic_stats != nullptr) {
    report.dynamic_enabled = true;
    report.graph_epoch = dynamic_stats->graph_epoch;
    report.update_batches = dynamic_stats->update_batches;
    report.update_ops = dynamic_stats->update_ops;
    report.delta_additions = dynamic_stats->delta_additions;
    report.delta_retractions = dynamic_stats->delta_retractions;
    report.candidates_repaired = dynamic_stats->candidates_repaired;
    report.graph_compactions = dynamic_stats->compactions;
    report.overlay_bytes = dynamic_stats->overlay_bytes;
    report.update_apply_ms = dynamic_stats->update_apply_ms;
    report.delta_enumerate_ms = dynamic_stats->delta_enumerate_ms;
    report.continuous_queries = dynamic_stats->continuous_queries;
  }
  return report;
}

}  // namespace sgm::service
