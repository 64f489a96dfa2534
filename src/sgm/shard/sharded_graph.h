// Sharded view of a data graph: K shard graphs plus the cut region the
// boundary pass enumerates (DESIGN.md §13).
//
// Each shard is the subgraph induced on the vertices it owns. An embedding
// whose vertices all lie in one shard uses only edges between owned
// vertices, so it is exactly an embedding of the query in that induced
// subgraph: filters, auxiliary structures and the enumeration engine run on
// the shard unmodified, and a shard-local pass finds the shard's own
// embeddings and no others.
//
// The cut region is the vertex-induced subgraph on the ball of radius r
// around the cut-edge endpoints. For r >= the query's worst edge
// eccentricity (max over query edges of the distance from any query vertex
// to the nearer endpoint — at most the diameter) it provably contains
// every embedding that spans two shards (the exactness argument in
// DESIGN.md §13), so one pass over it completes the shard-local counts.
// Regions are built lazily per radius and cached; a ShardedGraph is safe to
// share across concurrent requests.
#ifndef SGM_SHARD_SHARDED_GRAPH_H_
#define SGM_SHARD_SHARDED_GRAPH_H_

#include <memory>
#include <mutex>
#include <map>
#include <vector>

#include "sgm/graph/graph.h"
#include "sgm/shard/partition.h"

namespace sgm::shard {

/// One shard: the subgraph induced on the vertices it owns.
struct Shard {
  Graph graph;
  /// local id -> global data vertex, ascending.
  std::vector<Vertex> local_to_global;

  size_t MemoryBytes() const {
    return sizeof(Shard) + graph.MemoryBytes() +
           local_to_global.capacity() * sizeof(Vertex);
  }
};

/// Vertex-induced subgraph on the ball of `radius` around the cut-edge
/// endpoints, with the local->global mapping needed to report matches in
/// data-graph ids.
struct CutRegion {
  Graph graph;
  /// local id -> global data vertex, ascending.
  std::vector<Vertex> local_to_global;
  uint32_t radius = 0;

  size_t MemoryBytes() const {
    return sizeof(CutRegion) + graph.MemoryBytes() +
           local_to_global.capacity() * sizeof(Vertex);
  }
};

/// The partitioned data graph: partition + shard graphs + lazily cached cut
/// regions. Immutable after construction except for the region cache, which
/// is internally synchronized; sharing one instance across threads (the
/// serving path) is safe. The referenced data graph must outlive this
/// object.
class ShardedGraph {
 public:
  ShardedGraph(const Graph& data, uint32_t shard_count, Partitioner method);

  const Graph& data() const { return *data_; }
  const Partition& partition() const { return partition_; }
  uint32_t shard_count() const { return partition_.shard_count; }
  const Shard& shard(uint32_t s) const { return shards_[s]; }

  /// Sorted global ids of cut-edge endpoints. Empty when nothing is cut —
  /// the boundary pass is skipped then.
  const std::vector<Vertex>& boundary_vertices() const { return boundary_; }

  /// The cut region for the given radius (lazily built, cached, shared).
  /// Returns nullptr when there are no cut edges.
  std::shared_ptr<const CutRegion> Region(uint32_t radius) const;

  /// Footprint of the sharded structures (the data graph is not owned and
  /// not counted).
  size_t MemoryBytes() const;

 private:
  const Graph* data_;
  Partition partition_;
  std::vector<Shard> shards_;
  std::vector<Vertex> boundary_;
  mutable std::mutex region_mutex_;
  mutable std::map<uint32_t, std::shared_ptr<const CutRegion>> regions_;
};

}  // namespace sgm::shard

#endif  // SGM_SHARD_SHARDED_GRAPH_H_
