// Auxiliary data structure A: edges between candidate vertex sets.
//
// For a directed query edge (u, u') the structure stores, per candidate
// v ∈ C(u), the sorted array A_{u'}^{u}(v) = N(v) ∩ C(u') (notation of
// Table 2 in the paper). This is the common abstraction behind CFL's
// compressed path index (tree edges only), CECI's compact embedding cluster
// index and DP-iso's candidate space (all query edges), and it is what makes
// the set-intersection local-candidate computation of Algorithm 5 possible.
#ifndef SGM_CORE_AUX_STRUCTURE_H_
#define SGM_CORE_AUX_STRUCTURE_H_

#include <span>
#include <utility>
#include <vector>

#include "sgm/core/candidate_sets.h"
#include "sgm/graph/graph.h"

namespace sgm {

/// Which query edges the auxiliary structure indexes.
enum class AuxEdgeScope : uint8_t {
  /// No edges (direct-enumeration algorithms: QuickSI, RI, VF2++).
  kNone = 0,
  /// Only spanning-tree edges of q_t (CFL's compressed path index).
  kTreeEdges = 1,
  /// Every edge of E(q) (CECI, DP-iso, and the optimized engines of §5.2).
  kAllEdges = 2,
};

/// Returns a short name ("none", "tree-edges", "all-edges").
const char* AuxEdgeScopeName(AuxEdgeScope scope);

/// Build-time knobs of the auxiliary structure. The CSR arrays are always
/// built; the bitmap sidecar is the optional second representation behind
/// IntersectionMethod::kBitmap/kAuto (DESIGN.md §10).
struct AuxBuildOptions {
  /// Additionally store each list A_{u'}^{u}(v) as a fixed-stride bitset
  /// over the candidate indexes of C(u').
  bool build_bitmaps = false;
  /// Per-query-vertex density threshold: the sidecar of a directed edge
  /// (u -> u') is built only when |C(u')| <= this bound, so huge candidate
  /// sets keep the compact CSR representation alone. 0 disables sidecars.
  uint32_t bitmap_max_candidates = 4096;
};

/// Candidate-edge index. Immutable after construction.
class AuxStructure {
 public:
  AuxStructure() = default;

  /// Indexes the given undirected query edges (both directions each) against
  /// the candidate sets. Every listed pair must be an edge of `query`.
  /// A directed edge (u -> u') costs O(|C(u')| + Σ_{v ∈ C(u)} deg(v)) through
  /// a candidate-position map over V(G); a row whose deg(v) is at least
  /// kGallopingRatio times |C(u')| gallops C(u') into N(v) instead.
  AuxStructure(const Graph& query, const Graph& data,
               const CandidateSets& candidates,
               std::span<const std::pair<Vertex, Vertex>> edges,
               const AuxBuildOptions& build_options = {});

  /// Convenience: indexes all edges of the query.
  static AuxStructure BuildAllEdges(const Graph& query, const Graph& data,
                                    const CandidateSets& candidates,
                                    const AuxBuildOptions& build_options = {});

  /// Convenience: indexes the given spanning-tree parent array (parent[v] ==
  /// kInvalidVertex marks the root).
  static AuxStructure BuildTreeEdges(const Graph& query, const Graph& data,
                                     const CandidateSets& candidates,
                                     std::span<const Vertex> parent,
                                     const AuxBuildOptions& build_options = {});

  /// True iff the directed pair (from_u -> to_u) is indexed.
  bool HasIndex(Vertex from_u, Vertex to_u) const {
    return SlotOf(from_u, to_u) >= 0;
  }

  /// A_{to_u}^{from_u}(v) for the candidate at `cand_index` within
  /// C(from_u): the sorted data vertices of C(to_u) adjacent to it.
  std::span<const Vertex> NeighborsByIndex(Vertex from_u, uint32_t cand_index,
                                           Vertex to_u) const;

  /// Same, addressed by the data vertex itself (binary search in C(from_u)).
  /// `data_vertex` must be a member of C(from_u).
  std::span<const Vertex> NeighborsOfVertex(Vertex from_u, Vertex data_vertex,
                                            Vertex to_u) const;

  /// True iff the directed pair carries a bitmap sidecar (the pair is
  /// indexed, sidecars were requested, and |C(to_u)| met the threshold).
  bool HasBitmap(Vertex from_u, Vertex to_u) const {
    const int32_t slot = SlotOf(from_u, to_u);
    return slot >= 0 && indexes_[static_cast<size_t>(slot)].bitmap_stride > 0;
  }

  /// Words per bitmap row of the directed pair (0 when no sidecar).
  uint32_t BitmapStride(Vertex from_u, Vertex to_u) const {
    const int32_t slot = SlotOf(from_u, to_u);
    return slot < 0 ? 0 : indexes_[static_cast<size_t>(slot)].bitmap_stride;
  }

  /// The bitmap row of A_{to_u}^{from_u}(v): bit i set iff the i-th
  /// candidate of C(to_u) is a data neighbor of v. Requires HasBitmap.
  std::span<const uint64_t> BitmapByIndex(Vertex from_u, uint32_t cand_index,
                                          Vertex to_u) const;

  uint32_t query_vertex_count() const { return query_vertex_count_; }

  /// Total number of candidate-edge entries stored (both directions).
  uint64_t CandidateEdgeCount() const;

  /// Approximate heap footprint in bytes (the memory metric of §5.6).
  size_t MemoryBytes() const;

 private:
  struct DirectedIndex {
    std::vector<uint32_t> offsets;  // |C(from_u)| + 1
    std::vector<Vertex> lists;      // flattened sorted neighbor arrays
    /// Bitmap sidecar: |C(from_u)| rows of bitmap_stride words each, row r
    /// mirroring lists[offsets[r], offsets[r+1]) as candidate-index bits
    /// over C(to_u). Empty (stride 0) when the sidecar was not built.
    std::vector<uint64_t> bits;
    uint32_t bitmap_stride = 0;
  };

  int32_t SlotOf(Vertex from_u, Vertex to_u) const {
    SGM_CHECK(from_u < query_vertex_count_ && to_u < query_vertex_count_);
    return slot_[from_u * query_vertex_count_ + to_u];
  }

  const CandidateSets* candidates_ = nullptr;
  uint32_t query_vertex_count_ = 0;
  std::vector<int32_t> slot_;  // dense |V(q)|^2 map to directed index slots
  std::vector<DirectedIndex> indexes_;
};

}  // namespace sgm

#endif  // SGM_CORE_AUX_STRUCTURE_H_
