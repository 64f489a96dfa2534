#include "sgm/parallel/parallel_matcher.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "sgm/core/enumerate/enumeration_engine.h"
#include "sgm/core/order/dpiso_order.h"
#include "sgm/obs/collector.h"
#include "sgm/obs/phase_timer.h"
#include "sgm/parallel/task_pool.h"
#include "sgm/parallel/work_queue.h"
#include "sgm/plan.h"
#include "sgm/util/timer.h"

namespace sgm {

const char* ParallelModeName(ParallelMode mode) {
  switch (mode) {
    case ParallelMode::kStaticSlices:
      return "static";
    case ParallelMode::kWorkStealing:
      return "work-stealing";
  }
  return "unknown";
}

double ParallelMatchResult::LoadImbalance() const {
  double max_busy = 0.0;
  double total_busy = 0.0;
  for (const ParallelWorkerStats& w : worker_stats) {
    max_busy = std::max(max_busy, w.busy_ms);
    total_busy += w.busy_ms;
  }
  if (worker_stats.empty() || total_busy <= 0.0) return 1.0;
  return max_busy * static_cast<double>(worker_stats.size()) / total_busy;
}

ParallelMatchResult ParallelMatchQuery(const Graph& query, const Graph& data,
                                       const MatchOptions& options,
                                       const ParallelOptions& parallel_options,
                                       const MatchCallback& callback) {
  uint32_t thread_count = parallel_options.thread_count;
  if (thread_count == 0) {
    thread_count = std::max(1u, std::thread::hardware_concurrency());
  }

  ParallelMatchResult parallel;
  parallel.mode = parallel_options.mode;
  MatchResult& result = parallel.result;
  Timer total_timer;
  obs::TraceBuffer* trace =
      options.collector != nullptr ? options.collector->trace() : nullptr;
  if (trace != nullptr) trace->SetThreadName(0, "pipeline");
  const bool profile_enabled = options.collector != nullptr &&
                               options.collector->depth_profile_enabled();

  // ---- Shared preprocessing (the same build path as MatchQuery). ----
  const auto plan_ptr = BuildMatchPlan(query, data, options);
  const MatchPlan& plan = *plan_ptr;
  result.filter_ms = plan.filter_ms;
  result.aux_build_ms = plan.aux_build_ms;
  result.order_ms = plan.order_ms;
  result.preprocessing_ms = plan.build_ms();
  result.average_candidates = plan.average_candidates;
  result.candidate_memory_bytes = plan.candidate_memory_bytes;
  result.aux_memory_bytes = plan.aux_memory_bytes;
  result.filter_rounds = plan.filter_rounds;
  result.matching_order = plan.matching_order;
  if (plan.empty_candidates) {
    result.total_ms = total_timer.ElapsedMillis();
    return parallel;
  }

  const CandidateSets& candidates = plan.candidates;
  const AuxStructure* aux_ptr = plan.has_aux ? &plan.aux : nullptr;
  const DpisoWeights* weights_ptr =
      options.adaptive_order ? &plan.weights : nullptr;

  // ---- Parallel enumeration. ----
  const uint32_t root_candidates =
      candidates.Count(result.matching_order[0]);
  const uint32_t workers =
      std::max(1u, std::min(thread_count, root_candidates));
  parallel.workers_used = workers;
  parallel.worker_stats.assign(workers, {});

  std::atomic<uint64_t> global_matches{0};
  std::atomic<bool> stop{false};
  std::mutex callback_mutex;
  std::vector<EnumerateStats> worker_enumerate(workers);
  std::vector<obs::DepthProfile> worker_profiles(profile_enabled ? workers : 0);

  EnumerateOptions base_options;
  base_options.lc_method = options.lc_method;
  base_options.use_failing_sets = options.use_failing_sets;
  base_options.adaptive_order = options.adaptive_order;
  base_options.vf2pp_lookahead = options.vf2pp_lookahead;
  base_options.restrict_neighbor_scan_to_candidates =
      options.filter != FilterMethod::kLDF;
  // The global budget is enforced through the shared counter below; the
  // cancel flag stops workers that are deep in matchless subtrees.
  base_options.max_matches = 0;
  base_options.time_limit_ms = options.time_limit_ms;
  base_options.intersection = options.intersection;
  base_options.use_lc_cache = options.use_lc_cache;
  base_options.cancel_flag = &stop;

  // Shared per-match accounting. With a user callback, counting and
  // delivery are serialized under one mutex, so the final count equals the
  // number of callback invocations exactly (delivered-match semantics, the
  // same rule as EnumerationEngine::RecordMatch). Without a callback the
  // hot path never takes a mutex: counting is a relaxed fetch_add, clamped
  // to the budget at the end.
  const MatchCallback worker_callback =
      [&](std::span<const Vertex> mapping) -> bool {
    if (stop.load(std::memory_order_relaxed)) return false;
    if (options.cancel_flag != nullptr &&
        options.cancel_flag->load(std::memory_order_relaxed)) {
      // External cancellation (MatchOptions::cancel_flag) folds into the
      // run's own stop flag so every worker drains promptly.
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    if (callback) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      // Re-check under the lock: a run stopped while we waited must never
      // deliver a late match.
      if (stop.load(std::memory_order_relaxed)) return false;
      const uint64_t count =
          global_matches.fetch_add(1, std::memory_order_relaxed) + 1;
      if (!callback(mapping)) {
        stop.store(true, std::memory_order_relaxed);
        return false;
      }
      if (options.max_matches > 0 && count >= options.max_matches) {
        stop.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    }
    const uint64_t count =
        global_matches.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.max_matches > 0 && count > options.max_matches) {
      // Past the global budget: suppress and stop this worker.
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    if (options.max_matches > 0 && count >= options.max_matches) {
      stop.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  };

  // -- Static mode: one contiguous root slice per worker (the baseline). --
  const auto static_worker = [&](uint32_t worker) {
    EnumerateOptions enumerate_options = base_options;
    enumerate_options.root_slice_begin =
        static_cast<uint32_t>(static_cast<uint64_t>(root_candidates) *
                              worker / workers);
    enumerate_options.root_slice_end =
        static_cast<uint32_t>(static_cast<uint64_t>(root_candidates) *
                              (worker + 1) / workers);
    if (profile_enabled) {
      enumerate_options.depth_profile = &worker_profiles[worker];
    }
    if (trace != nullptr) {
      trace->SetThreadName(worker + 1, "worker-" + std::to_string(worker));
    }
    obs::TraceSpan span(trace,
                        "slice[" +
                            std::to_string(enumerate_options.root_slice_begin) +
                            "," +
                            std::to_string(enumerate_options.root_slice_end) +
                            ")",
                        "work-item", worker + 1);
    ThreadCpuTimer cpu_timer;
    worker_enumerate[worker] = Enumerate(
        query, data, candidates, aux_ptr, result.matching_order,
        enumerate_options, weights_ptr, worker_callback);
    ParallelWorkerStats& ws = parallel.worker_stats[worker];
    ws.busy_ms = cpu_timer.ElapsedMillis();
    ws.item_costs_ms.push_back(ws.busy_ms);
    ws.root_chunks = 1;
    ws.recursion_calls = worker_enumerate[worker].recursion_calls;
    ws.matches_found = worker_enumerate[worker].match_count;
  };

  // -- Work-stealing mode: chunked dispatch + depth-1 subtree stealing. --
  parallel::TaskPool pool(workers, root_candidates,
                          parallel_options.chunk_size);
  const auto stealing_worker = [&](uint32_t worker) {
    // One long-lived engine per worker: scratch buffers are allocated once
    // and Reset() between chunks.
    EnumerateOptions worker_options = base_options;
    if (profile_enabled) {
      worker_options.depth_profile = &worker_profiles[worker];
    }
    EnumerationEngine engine(query, data, candidates, aux_ptr,
                             result.matching_order, worker_options, weights_ptr,
                             worker_callback);
    if (parallel_options.subtree_stealing) {
      engine.set_split_hook(
          [&pool](Vertex root, uint32_t next, uint32_t end) -> uint32_t {
            return pool.OfferSplit(root, next, end);
          });
    }
    if (trace != nullptr) {
      trace->SetThreadName(worker + 1, "worker-" + std::to_string(worker));
    }
    ParallelWorkerStats& ws = parallel.worker_stats[worker];
    parallel::WorkItem item;
    ThreadCpuTimer cpu_timer;
    while (!stop.load(std::memory_order_relaxed) && pool.NextWork(&item)) {
      if (options.cancel_flag != nullptr &&
          options.cancel_flag->load(std::memory_order_relaxed)) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const bool is_chunk = item.kind == parallel::WorkItem::Kind::kRootChunk;
      std::string span_name;
      if (trace != nullptr) {
        span_name = is_chunk
                        ? "chunk[" + std::to_string(item.begin) + "," +
                              std::to_string(item.end) + ")"
                        : "steal root=" +
                              std::to_string(item.subtask.root_image);
      }
      obs::TraceSpan span(trace, std::move(span_name), "work-item",
                          worker + 1);
      cpu_timer.Reset();
      engine.Reset();
      if (is_chunk) {
        engine.RunSlice(item.begin, item.end);
        ++ws.root_chunks;
      } else {
        engine.RunSubtree(item.subtask.root_image, item.subtask.d1_begin,
                          item.subtask.d1_end);
        ++ws.stolen_subtasks;
      }
      const double item_ms = cpu_timer.ElapsedMillis();
      ws.busy_ms += item_ms;
      ws.item_costs_ms.push_back(item_ms);
      if (engine.aborted()) break;
    }
    // Whether this worker ran out of work, aborted, or saw the stop flag:
    // wake everyone so the pool drains (Stop is idempotent).
    pool.Stop();
    worker_enumerate[worker] = engine.stats();
    ws.recursion_calls = engine.stats().recursion_calls;
    ws.matches_found = engine.stats().match_count;
  };

  const bool stealing = parallel_options.mode == ParallelMode::kWorkStealing;
  parallel.chunk_size = stealing
                            ? pool.chunk_size()
                            : (root_candidates + workers - 1) / workers;

  Timer enumeration_timer;
  const auto worker_fn = [&](uint32_t worker) {
    if (stealing) {
      stealing_worker(worker);
    } else {
      static_worker(worker);
    }
  };
  {
    obs::TraceSpan enum_span(trace, obs::kPhaseEnumeration, "phase");
    enum_span.AddArg("workers", static_cast<double>(workers));
    if (workers == 1) {
      worker_fn(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (uint32_t w = 0; w < workers; ++w) threads.emplace_back(worker_fn, w);
      for (auto& thread : threads) thread.join();
    }
  }
  result.enumeration_ms = enumeration_timer.ElapsedMillis();
  if (stealing) parallel.subtasks_published = pool.subtasks_published();
  for (const obs::DepthProfile& profile : worker_profiles) {
    result.depth_profile.Merge(profile);
  }

  // Aggregate worker statistics.
  EnumerateStats& stats = result.enumerate;
  for (const EnumerateStats& worker : worker_enumerate) stats += worker;
  stats.match_count = std::min<uint64_t>(
      global_matches.load(),
      options.max_matches > 0 ? options.max_matches
                              : std::numeric_limits<uint64_t>::max());
  stats.reached_match_limit =
      options.max_matches > 0 && global_matches.load() >= options.max_matches;
  stats.enumeration_ms = result.enumeration_ms;
  result.match_count = stats.match_count;
  result.total_ms = total_timer.ElapsedMillis();
  return parallel;
}

ParallelMatchResult ParallelMatchQuery(const Graph& query, const Graph& data,
                                       const MatchOptions& options,
                                       uint32_t thread_count,
                                       const MatchCallback& callback) {
  ParallelOptions parallel_options;
  parallel_options.thread_count = thread_count;
  return ParallelMatchQuery(query, data, options, parallel_options, callback);
}

}  // namespace sgm
