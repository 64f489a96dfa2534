#include "sgm/core/aux_structure.h"

#include <algorithm>

#include "sgm/util/bitmap_intersection.h"
#include "sgm/util/set_intersection.h"

namespace sgm {

const char* AuxEdgeScopeName(AuxEdgeScope scope) {
  switch (scope) {
    case AuxEdgeScope::kNone:
      return "none";
    case AuxEdgeScope::kTreeEdges:
      return "tree-edges";
    case AuxEdgeScope::kAllEdges:
      return "all-edges";
  }
  return "unknown";
}

AuxStructure::AuxStructure(const Graph& query, const Graph& data,
                           const CandidateSets& candidates,
                           std::span<const std::pair<Vertex, Vertex>> edges,
                           const AuxBuildOptions& build_options)
    : candidates_(&candidates),
      query_vertex_count_(query.vertex_count()) {
  SGM_CHECK(candidates.query_vertex_count() == query.vertex_count());
  slot_.assign(static_cast<size_t>(query_vertex_count_) * query_vertex_count_,
               -1);
  indexes_.reserve(edges.size() * 2);

  // position[w] = 1 + the index of w in C(to) while the directed edge
  // (from -> to) is built, 0 otherwise. A row then costs one walk over N(v)
  // instead of a merge over all of C(to), and each hit's bitmap bit is read
  // off directly.
  std::vector<uint32_t> position(data.vertex_count(), 0);
  std::vector<Vertex> row;
  for (const auto& [a, b] : edges) {
    SGM_CHECK_MSG(query.HasEdge(a, b), "aux structure pair is not a query edge");
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      SGM_CHECK_MSG(SlotOf(from, to) < 0, "duplicate aux structure edge");
      slot_[from * query_vertex_count_ + to] =
          static_cast<int32_t>(indexes_.size());
      DirectedIndex index;
      const auto from_cands = candidates.candidates(from);
      const auto to_cands = candidates.candidates(to);
      // The sidecar is selected per query vertex: only a C(to) below the
      // density threshold pays the fixed-stride rows; sparse sets keep the
      // CSR arrays alone.
      const bool bitmaps =
          build_options.build_bitmaps && !to_cands.empty() &&
          to_cands.size() <= build_options.bitmap_max_candidates;
      if (bitmaps) {
        index.bitmap_stride =
            BitmapWords(static_cast<uint32_t>(to_cands.size()));
        index.bits.assign(from_cands.size() *
                              static_cast<size_t>(index.bitmap_stride),
                          0);
      }
      for (uint32_t i = 0; i < to_cands.size(); ++i) {
        position[to_cands[i]] = i + 1;
      }
      index.offsets.reserve(from_cands.size() + 1);
      index.offsets.push_back(0);
      for (size_t r = 0; r < from_cands.size(); ++r) {
        const auto nbrs = data.neighbors(from_cands[r]);
        row.clear();
        if (to_cands.empty()) {
          // Nothing to index against: every row is empty.
        } else if (nbrs.size() / to_cands.size() >= kGallopingRatio) {
          // A hub: probing the small C(to) into N(v) beats walking N(v).
          IntersectGalloping(to_cands, nbrs, &row);
        } else {
          // N(v) is sorted, so the hits come out sorted.
          for (const Vertex w : nbrs) {
            if (position[w] != 0) row.push_back(w);
          }
        }
        // Rows are appended as whole ranges: that fixes how the list
        // capacity grows, which MemoryBytes and plan-cache accounting read.
        index.lists.insert(index.lists.end(), row.begin(), row.end());
        index.offsets.push_back(static_cast<uint32_t>(index.lists.size()));
        if (bitmaps) {
          uint64_t* bits = index.bits.data() + r * index.bitmap_stride;
          for (const Vertex w : row) {
            const uint32_t bit = position[w] - 1;
            bits[bit >> 6] |= 1ULL << (bit & 63);
          }
        }
      }
      for (const Vertex w : to_cands) position[w] = 0;
      indexes_.push_back(std::move(index));
    }
  }
}

AuxStructure AuxStructure::BuildAllEdges(const Graph& query, const Graph& data,
                                         const CandidateSets& candidates,
                                         const AuxBuildOptions& build_options) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex w : query.neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  return AuxStructure(query, data, candidates, edges, build_options);
}

AuxStructure AuxStructure::BuildTreeEdges(const Graph& query,
                                          const Graph& data,
                                          const CandidateSets& candidates,
                                          std::span<const Vertex> parent,
                                          const AuxBuildOptions& build_options) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    if (parent[u] != kInvalidVertex) edges.emplace_back(parent[u], u);
  }
  return AuxStructure(query, data, candidates, edges, build_options);
}

std::span<const Vertex> AuxStructure::NeighborsByIndex(Vertex from_u,
                                                       uint32_t cand_index,
                                                       Vertex to_u) const {
  const int32_t slot = SlotOf(from_u, to_u);
  SGM_CHECK_MSG(slot >= 0, "query edge not indexed in aux structure");
  const DirectedIndex& index = indexes_[static_cast<size_t>(slot)];
  SGM_CHECK(cand_index + 1 < index.offsets.size());
  return {index.lists.data() + index.offsets[cand_index],
          index.offsets[cand_index + 1] - index.offsets[cand_index]};
}

std::span<const uint64_t> AuxStructure::BitmapByIndex(Vertex from_u,
                                                      uint32_t cand_index,
                                                      Vertex to_u) const {
  const int32_t slot = SlotOf(from_u, to_u);
  SGM_CHECK_MSG(slot >= 0, "query edge not indexed in aux structure");
  const DirectedIndex& index = indexes_[static_cast<size_t>(slot)];
  SGM_CHECK_MSG(index.bitmap_stride > 0, "no bitmap sidecar for this edge");
  SGM_CHECK(cand_index + 1 < index.offsets.size());
  return {index.bits.data() +
              static_cast<size_t>(cand_index) * index.bitmap_stride,
          index.bitmap_stride};
}

std::span<const Vertex> AuxStructure::NeighborsOfVertex(Vertex from_u,
                                                        Vertex data_vertex,
                                                        Vertex to_u) const {
  const uint32_t cand_index = candidates_->IndexOf(from_u, data_vertex);
  SGM_CHECK_MSG(cand_index < candidates_->Count(from_u),
                "data vertex is not a candidate of from_u");
  return NeighborsByIndex(from_u, cand_index, to_u);
}

uint64_t AuxStructure::CandidateEdgeCount() const {
  uint64_t total = 0;
  for (const auto& index : indexes_) total += index.lists.size();
  return total;
}

size_t AuxStructure::MemoryBytes() const {
  size_t bytes = slot_.capacity() * sizeof(int32_t) +
                 indexes_.capacity() * sizeof(DirectedIndex);
  for (const auto& index : indexes_) {
    bytes += index.offsets.capacity() * sizeof(uint32_t) +
             index.lists.capacity() * sizeof(Vertex) +
             index.bits.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace sgm
