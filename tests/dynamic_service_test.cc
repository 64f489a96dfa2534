// Tests of the service-level dynamic-graph integration: ApplyUpdates
// atomicity, plan-cache epoch invalidation (no stale counts after an
// update), continuous-query deltas through the service, concurrent
// submission during updates, the sharded rejection path and the schema-v5
// dynamic section of served run reports.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph.h"
#include "sgm/matcher.h"
#include "sgm/obs/metrics.h"
#include "sgm/obs/run_report.h"
#include "sgm/service/service.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

service::ServiceOptions LocalOptions(obs::MetricsRegistry* metrics) {
  service::ServiceOptions options;
  options.worker_count = 2;
  options.metrics = metrics;
  return options;
}

service::MatchRequest PaperRequest() {
  service::MatchRequest request;
  request.query = PaperQuery();
  return request;
}

TEST(DynamicServiceTest, UpdatesInvalidateCachedPlans) {
  obs::MetricsRegistry metrics;
  service::MatchService service(PaperData(), LocalOptions(&metrics));

  // Warm the cache: the paper query has exactly two embeddings.
  service::MatchResponse first = service.Match(PaperRequest());
  ASSERT_EQ(first.status, service::RequestStatus::kOk);
  EXPECT_EQ(first.engine.match_count, 2u);
  EXPECT_FALSE(first.plan_cache_hit);

  service::MatchResponse warm = service.Match(PaperRequest());
  ASSERT_EQ(warm.status, service::RequestStatus::kOk);
  EXPECT_EQ(warm.engine.match_count, 2u);
  EXPECT_TRUE(warm.plan_cache_hit);

  // Deleting data edge (0, 4) kills the embedding {0, 4, 5, 12}. The epoch
  // in the cache key makes the warmed plan unreachable: the same request
  // must rebuild and report the post-update count, not the stale one.
  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::RemoveEdge(0, 4));
  service::UpdateReport report = service.ApplyUpdates(batch);
  ASSERT_TRUE(report.applied) << report.error;
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.ops_applied, 1u);
  EXPECT_EQ(service.graph_epoch(), 1u);

  service::MatchResponse after = service.Match(PaperRequest());
  ASSERT_EQ(after.status, service::RequestStatus::kOk);
  EXPECT_EQ(after.engine.match_count, 1u);
  EXPECT_FALSE(after.plan_cache_hit);

  // Re-inserting the edge restores both embeddings under a fresh epoch.
  dynamic::UpdateBatch undo;
  undo.ops.push_back(dynamic::UpdateOp::AddEdge(0, 4));
  ASSERT_TRUE(service.ApplyUpdates(undo).applied);
  service::MatchResponse restored = service.Match(PaperRequest());
  ASSERT_EQ(restored.status, service::RequestStatus::kOk);
  EXPECT_EQ(restored.engine.match_count, 2u);
}

TEST(DynamicServiceTest, InvalidBatchesLeaveTheGraphUntouched) {
  obs::MetricsRegistry metrics;
  service::MatchService service(PaperData(), LocalOptions(&metrics));

  // Valid prefix, invalid tail: nothing may land.
  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::RemoveEdge(0, 4));
  batch.ops.push_back(dynamic::UpdateOp::AddEdge(0, 2));  // already present
  service::UpdateReport report = service.ApplyUpdates(batch);
  EXPECT_FALSE(report.applied);
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(service.graph_epoch(), 0u);

  service::MatchResponse response = service.Match(PaperRequest());
  ASSERT_EQ(response.status, service::RequestStatus::kOk);
  EXPECT_EQ(response.engine.match_count, 2u);
}

TEST(DynamicServiceTest, ContinuousQueryDeltasFlowThroughTheService) {
  obs::MetricsRegistry metrics;
  service::MatchService service(PaperData(), LocalOptions(&metrics));

  std::string error;
  const uint64_t id = service.RegisterContinuousQuery(PaperQuery(), &error);
  ASSERT_NE(id, 0u) << error;

  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::RemoveEdge(0, 4));
  service::UpdateReport report = service.ApplyUpdates(batch);
  ASSERT_TRUE(report.applied) << report.error;
  ASSERT_EQ(report.deltas.size(), 1u);
  const dynamic::MatchDelta& delta = report.deltas[0];
  EXPECT_EQ(delta.query_id, id);
  EXPECT_EQ(delta.additions, 0u);
  EXPECT_EQ(delta.retractions, 1u);
  ASSERT_EQ(delta.records.size(), 1u);
  EXPECT_FALSE(delta.records[0].addition);
  EXPECT_EQ(delta.records[0].embedding, (std::vector<Vertex>{0, 4, 5, 12}));

  // After unregistering, batches report no deltas for the query.
  EXPECT_TRUE(service.UnregisterContinuousQuery(id));
  EXPECT_FALSE(service.UnregisterContinuousQuery(id));
  dynamic::UpdateBatch undo;
  undo.ops.push_back(dynamic::UpdateOp::AddEdge(0, 4));
  service::UpdateReport second = service.ApplyUpdates(undo);
  ASSERT_TRUE(second.applied);
  EXPECT_TRUE(second.deltas.empty());

  service::ServiceDynamicStats stats = service.DynamicStats();
  EXPECT_EQ(stats.graph_epoch, 2u);
  EXPECT_EQ(stats.update_batches, 2u);
  EXPECT_EQ(stats.update_ops, 2u);
  EXPECT_EQ(stats.delta_additions, 0u);
  EXPECT_EQ(stats.delta_retractions, 1u);
  EXPECT_EQ(stats.continuous_queries, 0u);
}

TEST(DynamicServiceTest, WriterCompactsAndRequestsNeverDo) {
  obs::MetricsRegistry metrics;
  service::MatchService service(PaperData(), LocalOptions(&metrics));
  ASSERT_FALSE(service.data().HasEdge(0, 12));

  // The writer compacts and publishes before ApplyUpdates returns: with no
  // request issued yet, the snapshot already carries the new edge.
  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::AddEdge(0, 12));
  const service::UpdateReport report = service.ApplyUpdates(batch);
  ASSERT_TRUE(report.applied) << report.error;
  EXPECT_GT(report.compact_ms, 0.0);
  service::ServiceDynamicStats stats = service.DynamicStats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.compact_ms, report.compact_ms);
  EXPECT_TRUE(service.data().HasEdge(0, 12));
  EXPECT_EQ(service.graph_epoch(), 1u);

  // Requests only pin the published snapshot.
  for (int i = 0; i < 50; ++i) {
    const service::MatchResponse response = service.Match(PaperRequest());
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
  }
  EXPECT_EQ(service.DynamicStats().compactions, 1u);

  // An empty batch is a version change with nothing to merge.
  const service::UpdateReport empty = service.ApplyUpdates({});
  ASSERT_TRUE(empty.applied) << empty.error;
  EXPECT_EQ(empty.epoch, 2u);
  stats = service.DynamicStats();
  EXPECT_EQ(stats.graph_epoch, 2u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(service.graph_epoch(), 2u);
  EXPECT_TRUE(service.data().HasEdge(0, 12));
}

TEST(DynamicServiceTest, ShardedServicesRejectUpdates) {
  obs::MetricsRegistry metrics;
  service::ServiceOptions options = LocalOptions(&metrics);
  options.shards = 2;
  service::MatchService service(PaperData(), options);
  ASSERT_EQ(service.shard_count(), 2u);

  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::RemoveEdge(0, 4));
  service::UpdateReport report = service.ApplyUpdates(batch);
  EXPECT_FALSE(report.applied);
  EXPECT_NE(report.error.find("sharded"), std::string::npos);
  EXPECT_EQ(service.graph_epoch(), 0u);

  std::string error;
  EXPECT_EQ(service.RegisterContinuousQuery(PaperQuery(), &error), 0u);
  EXPECT_FALSE(error.empty());
}

TEST(DynamicServiceTest, ConcurrentRequestsDuringUpdatesSeeConsistentGraphs) {
  obs::MetricsRegistry metrics;
  service::ServiceOptions options = LocalOptions(&metrics);
  options.worker_count = 4;
  service::MatchService service(PaperData(), options);

  // Toggle edge (0, 4) while hammering the service with the paper query.
  // Every response must report a count consistent with SOME epoch (1 or
  // 2 matches) — a torn read or a stale plan would surface as any other
  // value, and TSan would flag an unsynchronized snapshot swap.
  std::atomic<bool> stop{false};
  std::thread updater([&service, &stop] {
    bool present = true;
    while (!stop.load()) {
      dynamic::UpdateBatch batch;
      batch.ops.push_back(present ? dynamic::UpdateOp::RemoveEdge(0, 4)
                                  : dynamic::UpdateOp::AddEdge(0, 4));
      ASSERT_TRUE(service.ApplyUpdates(batch).applied);
      present = !present;
    }
    if (!present) {
      dynamic::UpdateBatch batch;
      batch.ops.push_back(dynamic::UpdateOp::AddEdge(0, 4));
      ASSERT_TRUE(service.ApplyUpdates(batch).applied);
    }
  });

  for (int i = 0; i < 200; ++i) {
    service::MatchResponse response = service.Match(PaperRequest());
    ASSERT_EQ(response.status, service::RequestStatus::kOk);
    EXPECT_TRUE(response.engine.match_count == 1u ||
                response.engine.match_count == 2u)
        << "got " << response.engine.match_count;
  }
  stop.store(true);
  updater.join();

  service::MatchResponse final_response = service.Match(PaperRequest());
  ASSERT_EQ(final_response.status, service::RequestStatus::kOk);
  EXPECT_EQ(final_response.engine.match_count, 2u);
}

TEST(DynamicServiceTest, ServedReportsCarryTheDynamicSection) {
  obs::MetricsRegistry metrics;
  service::MatchService service(PaperData(), LocalOptions(&metrics));

  std::string error;
  ASSERT_NE(service.RegisterContinuousQuery(PaperQuery(), &error), 0u);
  dynamic::UpdateBatch batch;
  batch.ops.push_back(dynamic::UpdateOp::RemoveEdge(0, 4));
  ASSERT_TRUE(service.ApplyUpdates(batch).applied);

  service::MatchRequest request = PaperRequest();
  service::MatchResponse response = service.Match(PaperRequest());
  ASSERT_EQ(response.status, service::RequestStatus::kOk);

  const service::ServiceDynamicStats stats = service.DynamicStats();
  obs::RunReport report = service::BuildServedRunReport(
      request.query, service.data(), request, response, service.metrics(),
      &stats);
  EXPECT_TRUE(report.dynamic_enabled);
  EXPECT_EQ(report.graph_epoch, 1u);
  EXPECT_EQ(report.update_batches, 1u);
  EXPECT_EQ(report.update_ops, 1u);
  EXPECT_EQ(report.delta_retractions, 1u);
  EXPECT_EQ(report.continuous_queries, 1u);
  // ApplyUpdates compacted the overlay before it returned.
  EXPECT_EQ(report.graph_compactions, 1u);

  // The section survives the JSON round trip exactly.
  const obs::Json json = report.ToJson();
  const std::string dumped = json.Dump(2);
  const obs::RunReport restored = obs::RunReport::FromJson(json);
  EXPECT_EQ(restored.ToJson().Dump(2), dumped);
  EXPECT_TRUE(restored.dynamic_enabled);
  EXPECT_EQ(restored.graph_epoch, 1u);
  EXPECT_EQ(restored.delta_retractions, 1u);

  // A direct (non-served) report emits the same keys, degenerate.
  const obs::RunReport direct;
  const obs::Json direct_json = direct.ToJson();
  ASSERT_NE(direct_json.Get("dynamic"), nullptr);
  EXPECT_FALSE(obs::RunReport::FromJson(direct_json).dynamic_enabled);
}

}  // namespace
}  // namespace sgm
