#include "sgm/shard/sharded_graph.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "sgm/graph/graph_utils.h"
#include "sgm/shard/run_tasks.h"

namespace sgm::shard {

ShardedGraph::ShardedGraph(const Graph& data, uint32_t shard_count,
                           Partitioner method)
    : data_(&data),
      partition_(Partition::Build(data, shard_count, method)) {
  shards_.resize(partition_.shard_count);
  RunTasks(partition_.shard_count, [&](uint32_t s) {
    Shard& shard = shards_[s];
    for (Vertex v = 0; v < data.vertex_count(); ++v) {
      if (partition_.assignment[v] == s) shard.local_to_global.push_back(v);
    }
    shard.graph = InducedSubgraph(data, shard.local_to_global);
  });
  for (Vertex v = 0; v < data.vertex_count(); ++v) {
    for (const Vertex w : data.neighbors(v)) {
      if (w > v && partition_.assignment[w] != partition_.assignment[v]) {
        boundary_.push_back(v);
        boundary_.push_back(w);
      }
    }
  }
  std::sort(boundary_.begin(), boundary_.end());
  boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                  boundary_.end());
}

std::shared_ptr<const CutRegion> ShardedGraph::Region(uint32_t radius) const {
  if (boundary_.empty()) return nullptr;
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    auto it = regions_.find(radius);
    if (it != regions_.end()) return it->second;
  }
  // Multi-source BFS from every cut-edge endpoint, `radius` hops deep.
  std::vector<uint32_t> dist(data_->vertex_count(), kInvalidVertex);
  std::deque<Vertex> queue;
  for (const Vertex b : boundary_) {
    dist[b] = 0;
    queue.push_back(b);
  }
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    if (dist[v] >= radius) continue;
    for (const Vertex w : data_->neighbors(v)) {
      if (dist[w] == kInvalidVertex) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  auto region = std::make_shared<CutRegion>();
  region->radius = radius;
  for (Vertex v = 0; v < data_->vertex_count(); ++v) {
    if (dist[v] != kInvalidVertex) region->local_to_global.push_back(v);
  }
  region->graph = InducedSubgraph(*data_, region->local_to_global);
  std::lock_guard<std::mutex> lock(region_mutex_);
  auto [it, inserted] = regions_.emplace(radius, std::move(region));
  return it->second;
}

size_t ShardedGraph::MemoryBytes() const {
  size_t bytes = sizeof(ShardedGraph) + partition_.MemoryBytes() +
                 boundary_.capacity() * sizeof(Vertex);
  for (const Shard& shard : shards_) bytes += shard.MemoryBytes();
  std::lock_guard<std::mutex> lock(region_mutex_);
  for (const auto& [radius, region] : regions_) {
    bytes += region->MemoryBytes();
  }
  return bytes;
}

}  // namespace sgm::shard
