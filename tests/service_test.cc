// Tests of the serving layer: plan-cache correctness (LRU, memory budget,
// differential cache-on/off results), request lifecycle (deadlines,
// cancellation, admission control) and concurrent submission.
#include "sgm/service/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sgm/core/order/order.h"
#include "sgm/fuzz/oracle.h"
#include "sgm/fuzz/reproducer.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/query_generator.h"
#include "sgm/matcher.h"
#include "sgm/obs/metrics.h"
#include "sgm/obs/slow_query_log.h"
#include "sgm/plan.h"
#include "sgm/service/plan_cache.h"
#include "sgm/util/prng.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::kLabelA;
using ::sgm::testing::kLabelB;
using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

service::MatchRequest PaperRequest() {
  service::MatchRequest request;
  request.query = PaperQuery();
  return request;
}

// Unlabeled complete graph: enumerating all embeddings of a path query in
// it is combinatorially huge, so such a request reliably occupies a worker
// until cancelled (the engine checks the cancel flag every 1024 calls).
Graph CompleteGraph(uint32_t n) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < n; ++v) builder.AddVertex(kLabelA);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Graph PathQuery(uint32_t k) {
  GraphBuilder builder;
  for (uint32_t v = 0; v < k; ++v) builder.AddVertex(kLabelA);
  for (uint32_t v = 0; v + 1 < k; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

// A request that cannot finish in test time: every path-6 embedding in K32
// (~6.5e8 of them), unbounded budget. Stopped only by its cancel token.
service::MatchRequest BlockerRequest(
    std::shared_ptr<std::atomic<bool>> token) {
  service::MatchRequest request;
  request.query = PathQuery(6);
  request.options.max_matches = 0;
  request.cancel = std::move(token);
  return request;
}

// Polls until the admission queue is empty (every queued request has been
// claimed by a worker) or the deadline passes.
void WaitForEmptyQueue(const service::MatchService& service) {
  for (int i = 0; i < 2000; ++i) {
    if (service.Stats().queue_depth == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------- PlanCache

TEST(PlanCacheTest, QueryEncodingDistinguishesLabelsAndEdges) {
  const Graph path = MakeGraph({kLabelA, kLabelB, kLabelA},
                               {{0, 1}, {1, 2}});
  const Graph triangle = MakeGraph({kLabelA, kLabelB, kLabelA},
                                   {{0, 1}, {1, 2}, {0, 2}});
  const Graph relabeled = MakeGraph({kLabelB, kLabelA, kLabelA},
                                    {{0, 1}, {1, 2}});
  EXPECT_NE(service::PlanCache::EncodeQuery(path),
            service::PlanCache::EncodeQuery(triangle));
  EXPECT_NE(service::PlanCache::EncodeQuery(path),
            service::PlanCache::EncodeQuery(relabeled));
  EXPECT_EQ(service::PlanCache::EncodeQuery(path),
            service::PlanCache::EncodeQuery(
                MakeGraph({kLabelA, kLabelB, kLabelA}, {{0, 1}, {1, 2}})));
}

TEST(PlanCacheTest, OptionsEncodingCoversPlanShapingKnobs) {
  const MatchOptions base = MatchOptions::Optimized(Algorithm::kGraphQL);
  MatchOptions other = base;
  other.filter = FilterMethod::kCFL;
  EXPECT_NE(service::PlanCache::EncodeOptions(base),
            service::PlanCache::EncodeOptions(other));
  other = base;
  other.use_failing_sets = !base.use_failing_sets;
  EXPECT_NE(service::PlanCache::EncodeOptions(base),
            service::PlanCache::EncodeOptions(other));
  // Per-run knobs must NOT change the key: one plan serves them all.
  other = base;
  other.max_matches = 7;
  other.time_limit_ms = 1.0;
  other.use_lc_cache = !base.use_lc_cache;
  EXPECT_EQ(service::PlanCache::EncodeOptions(base),
            service::PlanCache::EncodeOptions(other));
}

TEST(PlanCacheTest, HitMissAndLruEviction) {
  const Graph data = PaperData();
  const Graph query = PaperQuery();
  const MatchOptions options;

  service::PlanCacheOptions cache_options;
  cache_options.memory_budget_bytes = 1ull << 30;
  service::PlanCache cache(cache_options);

  const std::string key = service::PlanCache::MakeKey(query, options);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  auto plan = BuildMatchPlan(query, data, options);
  const auto shared = cache.Insert(key, std::move(plan));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(cache.Lookup(key), shared);

  const service::PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedUnderMemoryPressure) {
  const Graph data = PaperData();
  const MatchOptions options;

  // Three distinct queries -> three distinct keys (and plans of different
  // sizes, so the budget is derived from the measured sizes: one byte too
  // small for all three together, forcing exactly one eviction).
  const Graph q1 = PaperQuery();
  const Graph q2 = MakeGraph({kLabelA, kLabelB}, {{0, 1}});
  const Graph q3 = MakeGraph({kLabelB, kLabelA, kLabelB},
                             {{0, 1}, {1, 2}});
  const size_t total_bytes = BuildMatchPlan(q1, data, options)->MemoryBytes() +
                             BuildMatchPlan(q2, data, options)->MemoryBytes() +
                             BuildMatchPlan(q3, data, options)->MemoryBytes();
  service::PlanCacheOptions cache_options;
  cache_options.memory_budget_bytes = total_bytes - 1;
  service::PlanCache cache(cache_options);
  const std::string k1 = service::PlanCache::MakeKey(q1, options);
  const std::string k2 = service::PlanCache::MakeKey(q2, options);
  const std::string k3 = service::PlanCache::MakeKey(q3, options);

  cache.Insert(k1, BuildMatchPlan(q1, data, options));
  cache.Insert(k2, BuildMatchPlan(q2, data, options));
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, BuildMatchPlan(q3, data, options));

  EXPECT_GE(cache.Stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);  // evicted
  EXPECT_LE(cache.Stats().memory_bytes, cache_options.memory_budget_bytes);
}

TEST(PlanCacheTest, OversizedPlanIsReturnedButNotRetained) {
  const Graph data = PaperData();
  const Graph query = PaperQuery();
  const MatchOptions options;
  service::PlanCacheOptions cache_options;
  cache_options.memory_budget_bytes = 1;  // nothing fits
  service::PlanCache cache(cache_options);
  const std::string key = service::PlanCache::MakeKey(query, options);
  const auto shared = cache.Insert(key, BuildMatchPlan(query, data, options));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().rejected, 1u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

TEST(PlanCacheTest, WinningOrderBytesAreChargedToItsEntry) {
  const Graph data = PaperData();
  const Graph query = PaperQuery();
  const MatchOptions options;
  service::PlanCache cache;
  const std::string key = service::PlanCache::MakeKey(query, options);
  auto plan = BuildMatchPlan(query, data, options);
  const size_t plan_bytes = plan->MemoryBytes();
  service::OrderRace* race = nullptr;
  const auto shared = cache.Insert(key, std::move(plan), &race);
  ASSERT_NE(race, nullptr);
  // The race record rides in the entry's charge from the start.
  EXPECT_EQ(cache.Stats().memory_bytes,
            plan_bytes + sizeof(service::OrderRace));
  service::OrderRace* looked_up = nullptr;
  EXPECT_EQ(cache.Lookup(key, &looked_up), shared);
  EXPECT_EQ(looked_up, race);

  const std::vector<Vertex> order = RiOrder(query);
  cache.PublishWinningOrder(key, race, order);
  EXPECT_EQ(race->state.load(), service::OrderRace::kWon);
  EXPECT_EQ(race->winning_order, order);
  EXPECT_EQ(cache.Stats().memory_bytes,
            plan_bytes + sizeof(service::OrderRace) +
                race->winning_order.capacity() * sizeof(Vertex));
}

// ------------------------------------------------------------ MatchService

TEST(MatchServiceTest, ServesThePaperExample) {
  service::ServiceOptions options;
  options.worker_count = 2;
  service::MatchService service(PaperData(), options);

  service::MatchRequest request = PaperRequest();
  request.collect_embeddings = true;
  const service::MatchResponse response = service.Match(std::move(request));
  EXPECT_EQ(response.status, service::RequestStatus::kOk);
  EXPECT_EQ(response.engine.match_count, 2u);
  EXPECT_EQ(response.embeddings.size(), 2u);
  EXPECT_FALSE(response.plan_cache_hit);
  EXPECT_GE(response.service_ms, response.queue_ms);
}

TEST(MatchServiceTest, SecondIdenticalRequestHitsThePlanCache) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(PaperData(), options);

  const service::MatchResponse first = service.Match(PaperRequest());
  const service::MatchResponse second = service.Match(PaperRequest());
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(first.engine.match_count, second.engine.match_count);
  // A cache hit did no preprocessing and reports none.
  EXPECT_EQ(second.engine.preprocessing_ms, 0.0);

  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);
}

TEST(MatchServiceTest, CacheDisabledNeverHits) {
  service::ServiceOptions options;
  options.worker_count = 1;
  options.plan_cache_budget_bytes = 0;
  service::MatchService service(PaperData(), options);
  service.Match(PaperRequest());
  const service::MatchResponse second = service.Match(PaperRequest());
  EXPECT_FALSE(second.plan_cache_hit);
  EXPECT_EQ(second.engine.match_count, 2u);
  EXPECT_EQ(service.Stats().plan_cache.hits, 0u);
}

// The acceptance-criterion differential: cache-enabled and cache-disabled
// services must return identical match counts for every algorithm preset
// on a nontrivial generated workload.
TEST(MatchServiceTest, CacheOnOffMatchCountsIdenticalAcrossAlgorithms) {
  Prng prng(42);
  const Graph data = GenerateRmat(200, 600, 4, &prng);
  std::vector<Graph> queries;
  for (uint32_t size : {4u, 6u, 8u}) {
    auto query = ExtractQuery(data, size, QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value());
    queries.push_back(std::move(*query));
  }

  service::ServiceOptions cached_options;
  cached_options.worker_count = 2;
  service::ServiceOptions uncached_options = cached_options;
  uncached_options.plan_cache_budget_bytes = 0;
  service::MatchService cached(data, cached_options);
  service::MatchService uncached(data, uncached_options);

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const Graph& query : queries) {
      // Twice against the cached service: the second run is a cache hit.
      for (int round = 0; round < 2; ++round) {
        service::MatchRequest request;
        request.query = query;
        request.options = MatchOptions::Optimized(algorithm);
        const service::MatchResponse with_cache =
            cached.Match(std::move(request));

        service::MatchRequest baseline;
        baseline.query = query;
        baseline.options = MatchOptions::Optimized(algorithm);
        const service::MatchResponse without_cache =
            uncached.Match(std::move(baseline));

        ASSERT_EQ(with_cache.status, service::RequestStatus::kOk);
        ASSERT_EQ(without_cache.status, service::RequestStatus::kOk);
        EXPECT_EQ(with_cache.engine.match_count,
                  without_cache.engine.match_count)
            << AlgorithmName(algorithm) << " round " << round;
      }
    }
  }
  EXPECT_GT(cached.Stats().plan_cache.hits, 0u);
}

TEST(MatchServiceTest, RejectsInvalidQueries) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(PaperData(), options);

  service::MatchRequest disconnected;
  disconnected.query = MakeGraph({kLabelA, kLabelA}, {});
  const service::MatchResponse response =
      service.Match(std::move(disconnected));
  EXPECT_EQ(response.status, service::RequestStatus::kRejected);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST(MatchServiceTest, ExpiredDeadlineInQueueTimesOutWithoutRunning) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(CompleteGraph(32), options);

  // Block the single worker so the queued request ages past its deadline.
  auto blocker_token = std::make_shared<std::atomic<bool>>(false);
  auto blocker_future = service.Submit(BlockerRequest(blocker_token));

  service::MatchRequest doomed;
  doomed.query = PathQuery(2);
  doomed.deadline_ms = 5.0;
  auto doomed_future = service.Submit(std::move(doomed));

  // Let the deadline expire while the blocker holds the worker, then free
  // the worker so the doomed request gets dequeued.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  blocker_token->store(true);

  const service::MatchResponse doomed_response = doomed_future.get();
  EXPECT_EQ(doomed_response.status, service::RequestStatus::kTimedOut);
  // Never executed: no matches, no enumeration.
  EXPECT_EQ(doomed_response.engine.match_count, 0u);
  EXPECT_EQ(doomed_response.engine.enumerate.recursion_calls, 0u);
  blocker_future.get();
  EXPECT_GE(service.Stats().timed_out, 1u);
}

TEST(MatchServiceTest, DeadlineBoundsARequestWithoutTimeLimit) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(CompleteGraph(32), options);

  // time_limit_ms = 0 means no enumeration limit; the deadline alone must
  // stop the request. The watchdog cancels it after 2 s, so a service that
  // ignores the deadline fails this test (kCancelled) instead of hanging.
  auto token = std::make_shared<std::atomic<bool>>(false);
  service::MatchRequest request = BlockerRequest(token);
  request.options.time_limit_ms = 0.0;
  request.deadline_ms = 20.0;
  auto future = service.Submit(std::move(request));
  if (future.wait_for(std::chrono::seconds(2)) !=
      std::future_status::ready) {
    token->store(true);
  }
  const service::MatchResponse response = future.get();
  EXPECT_EQ(response.status, service::RequestStatus::kTimedOut);
  // The engine reads the clock every 1024 recursion calls. Over 200 runs
  // on a 4-core VM the overshoot past the deadline was 0.14 ms at the
  // median and 1.2 ms at most; the slack here covers sanitizer builds and
  // loaded CI machines.
  EXPECT_LT(response.service_ms, 20.0 + 250.0);
}

TEST(MatchServiceTest, CancellationAbortsARequest) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(PaperData(), options);

  auto token = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  service::MatchRequest request = PaperRequest();
  request.cancel = token;
  const service::MatchResponse response = service.Match(std::move(request));
  EXPECT_EQ(response.status, service::RequestStatus::kCancelled);
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

TEST(MatchServiceTest, CancellationStopsAnExecutingRequest) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(CompleteGraph(32), options);

  auto token = std::make_shared<std::atomic<bool>>(false);
  auto future = service.Submit(BlockerRequest(token));
  WaitForEmptyQueue(service);  // the worker is now inside the enumeration
  token->store(true);
  const service::MatchResponse response = future.get();
  EXPECT_EQ(response.status, service::RequestStatus::kCancelled);
  // A cancelled run is not a timeout (MatchOptions::cancel_flag contract).
  EXPECT_FALSE(response.engine.enumerate.timed_out);
}

TEST(MatchServiceTest, AdmissionQueueBoundRejectsOverflow) {
  service::ServiceOptions options;
  options.worker_count = 1;
  options.max_queue_depth = 1;
  service::MatchService service(PaperData(), options);

  // Hold the worker on a cancellable request, then overfill the queue.
  auto hold = std::make_shared<std::atomic<bool>>(false);
  service::MatchRequest holder = PaperRequest();
  holder.cancel = hold;
  auto holder_future = service.Submit(std::move(holder));

  // Give the worker a moment to claim the holder; then one queued request
  // is admitted and the next is rejected. Retry the admitted slot until
  // the worker has dequeued the holder (timing-robust on 1-core machines).
  std::vector<std::future<service::MatchResponse>> admitted;
  bool saw_rejection = false;
  for (int i = 0; i < 64 && !saw_rejection; ++i) {
    auto future = service.Submit(PaperRequest());
    if (future.wait_for(std::chrono::milliseconds(0)) ==
        std::future_status::ready) {
      const service::MatchResponse response = future.get();
      if (response.status == service::RequestStatus::kRejected) {
        saw_rejection = true;
      }
    } else {
      admitted.push_back(std::move(future));
    }
    if (admitted.size() >= 2) break;  // queue deeper than the bound
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_LE(admitted.size(), 1u);

  hold->store(true);
  holder_future.get();
  for (auto& future : admitted) future.get();
  EXPECT_GE(service.Stats().rejected, 1u);
}

TEST(MatchServiceTest, ShutdownFailsQueuedRequestsAndStops) {
  auto service = std::make_unique<service::MatchService>(
      CompleteGraph(32), service::ServiceOptions{.worker_count = 1});
  // The blocker runs until Shutdown cancels it, so the second request is
  // still queued when Shutdown runs — whether or not the worker has
  // dequeued the blocker yet.
  auto holder_future = service->Submit(
      BlockerRequest(std::make_shared<std::atomic<bool>>(false)));
  service::MatchRequest queued;
  queued.query = PathQuery(2);
  auto queued_future = service->Submit(std::move(queued));

  service->Shutdown();
  const service::MatchResponse holder_response = holder_future.get();
  const service::MatchResponse queued_response = queued_future.get();
  EXPECT_EQ(holder_response.status, service::RequestStatus::kCancelled);
  EXPECT_EQ(queued_response.status, service::RequestStatus::kCancelled);
  EXPECT_EQ(queued_response.engine.enumerate.recursion_calls, 0u);

  // Post-shutdown submissions are rejected.
  const service::MatchResponse late = service->Match(PaperRequest());
  EXPECT_EQ(late.status, service::RequestStatus::kRejected);
}

TEST(MatchServiceTest, ConcurrentMixedWorkloadAgreesWithDirectMatching) {
  Prng prng(7);
  const Graph data = GenerateRmat(150, 450, 3, &prng);
  std::vector<Graph> queries;
  for (uint32_t i = 0; i < 4; ++i) {
    auto query =
        ExtractQuery(data, 4 + 2 * (i % 2), QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value());
    queries.push_back(std::move(*query));
  }
  std::vector<uint64_t> expected;
  for (const Graph& query : queries) {
    expected.push_back(MatchQuery(query, data, MatchOptions{}).match_count);
  }

  service::ServiceOptions options;
  options.worker_count = 4;
  service::MatchService service(data, options);
  std::vector<std::future<service::MatchResponse>> futures;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    for (const Graph& query : queries) {
      service::MatchRequest request;
      request.query = query;
      futures.push_back(service.Submit(std::move(request)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const service::MatchResponse response = futures[i].get();
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_EQ(response.engine.match_count, expected[i % queries.size()]);
  }
  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, queries.size() * kRounds);
  // Each distinct query builds at least once; concurrent workers may race
  // to build the same plan in round one (incumbent wins), so the miss
  // count is bounded by one build per worker per query, not exactly one.
  EXPECT_GE(stats.plan_cache.misses, queries.size());
  EXPECT_LE(stats.plan_cache.misses,
            queries.size() * options.worker_count);
  EXPECT_EQ(stats.plan_cache.hits + stats.plan_cache.misses,
            queries.size() * kRounds);
  EXPECT_GE(stats.plan_cache.hits, queries.size() * (kRounds - 4));
}

TEST(MatchServiceTest, ShardedServiceAgreesWithMonolithicAndBypassesCache) {
  Prng prng(11);
  const Graph data = GenerateRmat(150, 450, 3, &prng);
  std::vector<Graph> queries;
  for (uint32_t i = 0; i < 3; ++i) {
    auto query = ExtractQuery(data, 4 + (i % 2), QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value());
    queries.push_back(std::move(*query));
  }

  service::ServiceOptions options;
  options.worker_count = 2;
  options.shards = 3;
  service::MatchService service(data, options);
  EXPECT_EQ(service.shard_count(), 3u);

  for (const Graph& query : queries) {
    const uint64_t expected =
        MatchQuery(query, data, MatchOptions{}).match_count;
    service::MatchRequest request;
    request.query = query;
    const service::MatchResponse response = service.Match(std::move(request));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_EQ(response.engine.match_count, expected);
    EXPECT_EQ(response.sharding.shard_count, 3u);
    EXPECT_FALSE(response.sharding.passes.empty());
    EXPECT_FALSE(response.plan_cache_hit);

    // The served report uses the sharded engine and round-trips the
    // sharding section through JSON.
    service::MatchRequest report_request;
    report_request.query = query;
    const obs::RunReport report = service::BuildServedRunReport(
        query, service.data(), report_request, response);
    EXPECT_EQ(report.engine, "sharded");
    EXPECT_EQ(report.shard_count, 3u);
    const obs::RunReport parsed = obs::RunReport::FromJson(report.ToJson());
    EXPECT_EQ(parsed.engine, "sharded");
    EXPECT_EQ(parsed.shard_count, 3u);
    EXPECT_EQ(parsed.shard_passes.size(), report.shard_passes.size());
  }

  // Sharded requests never touch the plan cache.
  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.plan_cache.hits + stats.plan_cache.misses, 0u);
}

TEST(MatchServiceTest, ShutdownCancelsExecutingShardedRequest) {
  service::ServiceOptions options;
  options.worker_count = 1;
  options.shards = 2;
  options.shard_partitioner = shard::Partitioner::kHash;
  auto service =
      std::make_unique<service::MatchService>(CompleteGraph(32), options);
  // The blocker's only cancel path is the token Shutdown sets; the sharded
  // passes read it directly.
  auto blocker_future = service->Submit(
      BlockerRequest(std::make_shared<std::atomic<bool>>(false)));
  WaitForEmptyQueue(*service);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->Shutdown();
  const service::MatchResponse response = blocker_future.get();
  EXPECT_EQ(response.status, service::RequestStatus::kCancelled);
  EXPECT_EQ(response.sharding.shard_count, 2u);
  EXPECT_FALSE(response.engine.enumerate.timed_out);
  EXPECT_GT(response.engine.enumerate.recursion_calls, 0u)
      << "the request must have been executing when Shutdown ran";
  // Path-6 embeddings of K32: the count an uncancelled run would reach.
  EXPECT_LT(response.engine.match_count, 32ull * 31 * 30 * 29 * 28 * 27);
}

TEST(MatchServiceTest, ServedRunReportCarriesServiceSection) {
  service::ServiceOptions options;
  options.worker_count = 1;
  service::MatchService service(PaperData(), options);
  service.Match(PaperRequest());  // warm the cache
  service::MatchRequest request = PaperRequest();
  const Graph query = request.query;
  const service::MatchResponse response = service.Match(std::move(request));

  const obs::RunReport report = service::BuildServedRunReport(
      query, service.data(), PaperRequest(), response);
  EXPECT_TRUE(report.served);
  EXPECT_TRUE(report.plan_cache_hit);
  EXPECT_EQ(report.request_status, "ok");
  EXPECT_EQ(report.match_count, 2u);

  // The service section round-trips through JSON.
  const obs::RunReport parsed = obs::RunReport::FromJson(report.ToJson());
  EXPECT_TRUE(parsed.served);
  EXPECT_TRUE(parsed.plan_cache_hit);
  EXPECT_EQ(parsed.request_status, "ok");
}

// ------------------------------------------------------------- Telemetry

// A counter's value in the registry snapshot, by name + single label.
uint64_t CounterValue(const obs::Json& snapshot, const std::string& name,
                      const std::string& label_key = {},
                      const std::string& label_value = {}) {
  const obs::Json* counters = snapshot.Get("counters");
  EXPECT_NE(counters, nullptr);
  for (size_t i = 0; i < counters->size(); ++i) {
    const obs::Json& entry = counters->at(i);
    if (entry.GetString("name") != name) continue;
    if (!label_key.empty() &&
        entry.Get("labels")->GetString(label_key) != label_value) {
      continue;
    }
    return entry.GetUint64("value");
  }
  ADD_FAILURE() << "counter " << name << " not found";
  return 0;
}

TEST(MatchServiceTest, ExportsRequestAndPlanCacheMetrics) {
  obs::MetricsRegistry registry;
  service::ServiceOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  service::MatchService service(PaperData(), options);
  EXPECT_EQ(service.metrics(), &registry);

  service.Match(PaperRequest());
  service.Match(PaperRequest());  // plan-cache hit

  const obs::Json snapshot = registry.ToJson();
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_requests_total", "status",
                         "ok"),
            2u);
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_requests_total", "status",
                         "timeout"),
            0u);
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_plan_cache_hits_total"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_plan_cache_misses_total"),
            1u);
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_matches_total"), 4u);

  // Latency histograms saw both requests.
  const obs::Json* histograms = snapshot.Get("histograms");
  ASSERT_NE(histograms, nullptr);
  bool found_request_ms = false;
  for (size_t i = 0; i < histograms->size(); ++i) {
    if (histograms->at(i).GetString("name") == "sgm_service_request_ms") {
      found_request_ms = true;
      EXPECT_EQ(histograms->at(i).GetUint64("count"), 2u);
    }
  }
  EXPECT_TRUE(found_request_ms);

  // The Prometheus rendering of the same registry carries the series.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("sgm_service_requests_total{status=\"ok\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE sgm_service_request_ms histogram"),
            std::string::npos);

  // And a served run report can embed the snapshot under service.metrics.
  service::MatchRequest request = PaperRequest();
  const Graph query = request.query;
  const service::MatchResponse response = service.Match(std::move(request));
  const obs::RunReport report = service::BuildServedRunReport(
      query, service.data(), PaperRequest(), response, &registry);
  const obs::Json json = report.ToJson();
  const obs::Json* metrics = json.Get("service")->Get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
  const obs::RunReport parsed = obs::RunReport::FromJson(json);
  EXPECT_EQ(parsed.service_metrics.Dump(0), metrics->Dump(0));
}

TEST(MatchServiceTest, AdmissionRejectAndDeadlineExpiryAreCounted) {
  obs::MetricsRegistry registry;
  const auto blocker_token = std::make_shared<std::atomic<bool>>(false);
  service::ServiceOptions options;
  options.worker_count = 1;
  options.max_queue_depth = 1;
  options.metrics = &registry;
  service::MatchService service(CompleteGraph(32), options);

  // Occupy the worker, fill the queue, then overflow it.
  auto blocked = service.Submit(BlockerRequest(blocker_token));
  WaitForEmptyQueue(service);
  service::MatchRequest queued;
  queued.query = PathQuery(2);
  queued.deadline_ms = 1.0;  // expires while the blocker holds the worker
  auto expired = service.Submit(std::move(queued));
  service::MatchRequest overflow;
  overflow.query = PathQuery(2);
  const service::MatchResponse rejected =
      service.Submit(std::move(overflow)).get();
  EXPECT_EQ(rejected.status, service::RequestStatus::kRejected);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  blocker_token->store(true);
  blocked.get();
  EXPECT_EQ(expired.get().status, service::RequestStatus::kTimedOut);

  const obs::Json snapshot = registry.ToJson();
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_admission_rejects_total"),
            1u);
  EXPECT_EQ(CounterValue(snapshot, "sgm_service_requests_total", "status",
                         "rejected"),
            1u);
  EXPECT_EQ(
      CounterValue(snapshot, "sgm_service_deadline_expired_in_queue_total"),
      1u);
}

// ------------------------------------------------------------ Order races

// A dense 16-vertex query on an RMAT graph shaped like bench/e2e
// enum-heavy (|Sigma| = 5, |E|/|V| = 3.3), both drawn from `seed`.
struct RaceCase {
  Graph data;
  Graph query;
};

RaceCase MakeRaceCase(uint64_t seed) {
  Prng prng(seed);
  RaceCase race_case;
  race_case.data = GenerateRmat(16000, 53000, 5, &prng);
  race_case.query =
      *ExtractQuery(race_case.data, 16, QueryDensity::kDense, &prng);
  return race_case;
}

// Seed 120: under Recommended options GraphQL's order takes 242718
// recursion calls (about 45 ms on a 4-core VM), RI's 4209 (about 1 ms).
RaceCase RiWinsCase() { return MakeRaceCase(120); }
// Seed 58, the mirror: GraphQL's order 31584 calls (about 3.5 ms), RI's
// 225061 (about 36 ms).
RaceCase RiLosesCase() { return MakeRaceCase(58); }

service::MatchRequest RaceRequest(const Graph& query) {
  service::MatchRequest request;
  request.query = query;
  request.options = MatchOptions::Recommended(query.vertex_count());
  return request;
}

struct RaceCounts {
  uint64_t won = 0;
  uint64_t lost = 0;
};

RaceCounts OrderRaces(const obs::MetricsRegistry& registry) {
  const obs::Json snapshot = registry.ToJson();
  return {CounterValue(snapshot, "sgm_service_order_races_total", "outcome",
                       "won"),
          CounterValue(snapshot, "sgm_service_order_races_total", "outcome",
                       "lost")};
}

service::ServiceOptions RaceServiceOptions(obs::MetricsRegistry* registry,
                                           uint32_t workers = 1) {
  service::ServiceOptions options;
  options.worker_count = workers;
  options.metrics = registry;
  return options;
}

TEST(MatchServiceTest, OrderRaceWinnerServesLaterHits) {
  const RaceCase race_case = RiWinsCase();
  obs::MetricsRegistry registry;
  service::MatchService service(race_case.data,
                                RaceServiceOptions(&registry));
  const service::MatchResponse miss =
      service.Match(RaceRequest(race_case.query));
  ASSERT_EQ(miss.status, service::RequestStatus::kOk);
  ASSERT_FALSE(miss.plan_cache_hit);
  const std::vector<Vertex> ri = RiOrder(race_case.query);
  ASSERT_NE(miss.engine.matching_order, ri);

  // The first hit races and wins; it and every later hit run RI's order.
  for (int hit = 0; hit < 3; ++hit) {
    const service::MatchResponse response =
        service.Match(RaceRequest(race_case.query));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(response.plan_cache_hit);
    EXPECT_EQ(response.engine.match_count, miss.engine.match_count);
    EXPECT_EQ(response.engine.matching_order, ri) << "hit " << hit;
    EXPECT_GE(miss.engine.enumerate.recursion_calls,
              5 * response.engine.enumerate.recursion_calls);
  }
  const RaceCounts races = OrderRaces(registry);
  EXPECT_EQ(races.won, 1u);
  EXPECT_EQ(races.lost, 0u);
  EXPECT_EQ(CounterValue(registry.ToJson(),
                         "sgm_service_order_race_lost_ms_total"),
            0u);
}

TEST(MatchServiceTest, OrderRaceLoserKeepsTheBuiltOrder) {
  const RaceCase race_case = RiLosesCase();
  obs::MetricsRegistry registry;
  service::MatchService service(race_case.data,
                                RaceServiceOptions(&registry));
  const service::MatchResponse miss =
      service.Match(RaceRequest(race_case.query));
  ASSERT_EQ(miss.status, service::RequestStatus::kOk);
  ASSERT_NE(miss.engine.matching_order, RiOrder(race_case.query));

  for (int hit = 0; hit < 4; ++hit) {
    service::MatchRequest request = RaceRequest(race_case.query);
    request.collect_embeddings = true;
    const service::MatchResponse response = service.Match(std::move(request));
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_EQ(response.engine.match_count, miss.engine.match_count);
    EXPECT_EQ(response.engine.matching_order, miss.engine.matching_order);
    // The lost challenger's partial embeddings were dropped.
    EXPECT_EQ(response.embeddings.size(), response.engine.match_count);
  }
  // One race, on the first hit; later hits never race again.
  const RaceCounts races = OrderRaces(registry);
  EXPECT_EQ(races.won, 0u);
  EXPECT_EQ(races.lost, 1u);
}

TEST(MatchServiceTest, FastPlansNeverRace) {
  obs::MetricsRegistry registry;
  service::MatchService service(PaperData(), RaceServiceOptions(&registry));
  const service::MatchResponse miss = service.Match(PaperRequest());
  for (int hit = 0; hit < 3; ++hit) {
    const service::MatchResponse response = service.Match(PaperRequest());
    EXPECT_TRUE(response.plan_cache_hit);
    EXPECT_EQ(response.engine.matching_order, miss.engine.matching_order);
  }
  const RaceCounts races = OrderRaces(registry);
  EXPECT_EQ(races.won + races.lost, 0u);
}

TEST(MatchServiceTest, ConcurrentHitsStartOneOrderRace) {
  const RaceCase race_case = RiWinsCase();
  obs::MetricsRegistry registry;
  service::MatchService service(race_case.data,
                                RaceServiceOptions(&registry, 4));
  const service::MatchResponse miss =
      service.Match(RaceRequest(race_case.query));
  ASSERT_EQ(miss.status, service::RequestStatus::kOk);

  std::vector<std::future<service::MatchResponse>> hits;
  for (int i = 0; i < 8; ++i) {
    hits.push_back(service.Submit(RaceRequest(race_case.query)));
  }
  for (auto& future : hits) {
    const service::MatchResponse response = future.get();
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(response.plan_cache_hit);
    EXPECT_EQ(response.engine.match_count, miss.engine.match_count);
  }
  const RaceCounts races = OrderRaces(registry);
  EXPECT_EQ(races.won + races.lost, 1u);
}

TEST(MatchServiceTest, ShortDeadlineSkipsTheOrderRace) {
  const RaceCase race_case = RiWinsCase();
  obs::MetricsRegistry registry;
  service::MatchService service(race_case.data,
                                RaceServiceOptions(&registry));
  const service::MatchResponse miss =
      service.Match(RaceRequest(race_case.query));
  ASSERT_EQ(miss.status, service::RequestStatus::kOk);

  // A deadline under twice the incumbent's time cannot pay for a lost
  // race: the hit runs the built order and leaves the entry unraced.
  service::MatchRequest hurried = RaceRequest(race_case.query);
  hurried.deadline_ms = 1.5 * miss.engine.enumeration_ms;
  const service::MatchResponse short_hit = service.Match(std::move(hurried));
  EXPECT_TRUE(short_hit.plan_cache_hit);
  EXPECT_EQ(short_hit.engine.matching_order, miss.engine.matching_order);
  RaceCounts races = OrderRaces(registry);
  EXPECT_EQ(races.won + races.lost, 0u);

  // An unhurried hit still gets the race.
  const service::MatchResponse hit =
      service.Match(RaceRequest(race_case.query));
  EXPECT_EQ(hit.engine.match_count, miss.engine.match_count);
  races = OrderRaces(registry);
  EXPECT_EQ(races.won + races.lost, 1u);
}

TEST(MatchServiceTest, OrderBoundPlansNeverRace) {
  // Classic CFL (pivot-index local candidates over a tree-edge aux) and
  // DP-iso's adaptive order are tied to their built orders. On this case
  // Classic CFL enumerates for about 8.5 ms, over the race threshold.
  const RaceCase race_case = RiLosesCase();
  for (const MatchOptions& options :
       {MatchOptions::Classic(Algorithm::kCFL),
        MatchOptions::Optimized(Algorithm::kDPiso)}) {
    obs::MetricsRegistry registry;
    service::MatchService service(race_case.data,
                                  RaceServiceOptions(&registry));
    service::MatchRequest first;
    first.query = race_case.query;
    first.options = options;
    const service::MatchResponse miss = service.Match(std::move(first));
    ASSERT_EQ(miss.status, service::RequestStatus::kOk);
    for (int hit = 0; hit < 3; ++hit) {
      service::MatchRequest request;
      request.query = race_case.query;
      request.options = options;
      const service::MatchResponse response =
          service.Match(std::move(request));
      EXPECT_TRUE(response.plan_cache_hit);
      EXPECT_EQ(response.engine.match_count, miss.engine.match_count);
      EXPECT_EQ(response.engine.matching_order, miss.engine.matching_order);
    }
    const RaceCounts races = OrderRaces(registry);
    EXPECT_EQ(races.won + races.lost, 0u);
  }
}

// ---------------------------------------------------------- Slow-query log

TEST(MatchServiceTest, SlowQueryLogRecordReplaysWithIdenticalCount) {
  const std::string log_path =
      ::testing::TempDir() + "/sgm_slow_queries.jsonl";
  std::remove(log_path.c_str());
  obs::SlowQueryLog::Options log_options;
  log_options.path = log_path;
  log_options.threshold_ms = 0.0;  // every request qualifies
  obs::SlowQueryLog log(log_options);
  ASSERT_TRUE(log.ok()) << log.error();

  obs::MetricsRegistry registry;
  service::ServiceOptions options;
  options.worker_count = 1;
  options.metrics = &registry;
  options.slow_query_log = &log;
  service::MatchService service(PaperData(), options);
  const service::MatchResponse response = service.Match(PaperRequest());
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_EQ(CounterValue(registry.ToJson(), "sgm_service_slow_queries_total"),
            1u);

  // The JSONL line parses and carries the latency breakdown + counters.
  std::ifstream file(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  std::string error;
  const auto record = obs::Json::Parse(line, &error);
  ASSERT_TRUE(record.has_value()) << error;
  EXPECT_EQ(record->GetString("status"), "ok");
  EXPECT_GE(record->GetDouble("service_ms"), 0.0);
  EXPECT_GT(record->GetDouble("unix_time_s"), 0.0);
  EXPECT_EQ(record->Get("enumerate")->GetUint64("match_count"),
            response.engine.match_count);
  EXPECT_EQ(record->Get("query")->GetUint64("vertices"),
            PaperQuery().vertex_count());

  // The embedded reproducer replays through the differential oracle (the
  // sgm_fuzz --replay path) and reproduces the exact match count.
  const obs::Json* reproducer_text = record->Get("reproducer");
  ASSERT_NE(reproducer_text, nullptr);
  ASSERT_TRUE(reproducer_text->is_string());
  std::istringstream reproducer_stream(reproducer_text->AsString());
  const auto reproducer = fuzz::ReadReproducer(reproducer_stream, &error);
  ASSERT_TRUE(reproducer.has_value()) << error;
  ASSERT_EQ(reproducer->fuzz_case.configs.size(), 1u);
  EXPECT_TRUE(reproducer->fuzz_case.configs[0].service);

  const fuzz::OracleResult oracle = fuzz::RunOracle(reproducer->fuzz_case);
  EXPECT_FALSE(oracle.Failed()) << oracle.detail;
  ASSERT_FALSE(oracle.outcomes.empty());
  EXPECT_EQ(oracle.outcomes[0].match_count, response.engine.match_count);
}

TEST(MatchServiceTest, SlowQueryLogHonorsThresholdAndEmbedToggle) {
  const std::string log_path =
      ::testing::TempDir() + "/sgm_slow_queries_thresh.jsonl";
  std::remove(log_path.c_str());
  obs::SlowQueryLog::Options log_options;
  log_options.path = log_path;
  log_options.threshold_ms = 1e9;  // nothing is this slow
  obs::SlowQueryLog fast_log(log_options);
  {
    service::ServiceOptions options;
    options.worker_count = 1;
    obs::MetricsRegistry registry;
    options.metrics = &registry;
    options.slow_query_log = &fast_log;
    service::MatchService service(PaperData(), options);
    service.Match(PaperRequest());
  }
  EXPECT_EQ(fast_log.entries(), 0u);

  log_options.threshold_ms = 0.0;
  log_options.embed_reproducer = false;
  obs::SlowQueryLog lean_log(log_options);
  {
    service::ServiceOptions options;
    options.worker_count = 1;
    obs::MetricsRegistry registry;
    options.metrics = &registry;
    options.slow_query_log = &lean_log;
    service::MatchService service(PaperData(), options);
    service.Match(PaperRequest());
  }
  EXPECT_EQ(lean_log.entries(), 1u);
  std::ifstream file(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  std::string error;
  const auto record = obs::Json::Parse(line, &error);
  ASSERT_TRUE(record.has_value()) << error;
  EXPECT_TRUE(record->Get("reproducer")->is_null());
}

}  // namespace
}  // namespace sgm
