#include "sgm/graph/graph_utils.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "sgm/graph/graph_builder.h"

namespace sgm {

uint32_t BfsTree::depth() const {
  uint32_t d = 0;
  for (const uint32_t l : level) d = std::max(d, l + 1);
  return d;
}

BfsTree BuildBfsTree(const Graph& graph, Vertex root) {
  SGM_CHECK(root < graph.vertex_count());
  const uint32_t n = graph.vertex_count();
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidVertex);
  tree.level.assign(n, 0);
  tree.children.assign(n, {});
  tree.order.reserve(n);

  std::vector<bool> visited(n, false);
  std::deque<Vertex> queue;
  queue.push_back(root);
  visited[root] = true;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    tree.order.push_back(u);
    for (const Vertex w : graph.neighbors(u)) {
      if (!visited[w]) {
        visited[w] = true;
        tree.parent[w] = u;
        tree.level[w] = tree.level[u] + 1;
        tree.children[u].push_back(w);
        queue.push_back(w);
      }
    }
  }
  SGM_CHECK_MSG(tree.order.size() == n, "BFS tree requires a connected graph");
  return tree;
}

bool IsConnected(const Graph& graph) {
  const uint32_t n = graph.vertex_count();
  if (n == 0) return true;
  std::vector<bool> visited(n, false);
  std::deque<Vertex> queue;
  queue.push_back(0);
  visited[0] = true;
  uint32_t reached = 1;
  while (!queue.empty()) {
    const Vertex u = queue.front();
    queue.pop_front();
    for (const Vertex w : graph.neighbors(u)) {
      if (!visited[w]) {
        visited[w] = true;
        ++reached;
        queue.push_back(w);
      }
    }
  }
  return reached == n;
}

std::vector<bool> TwoCoreMembership(const Graph& graph) {
  const uint32_t n = graph.vertex_count();
  std::vector<uint32_t> degree(n);
  std::deque<Vertex> peel;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = graph.degree(v);
    if (degree[v] < 2) peel.push_back(v);
  }
  std::vector<bool> in_core(n, true);
  while (!peel.empty()) {
    const Vertex v = peel.front();
    peel.pop_front();
    if (!in_core[v]) continue;
    in_core[v] = false;
    for (const Vertex w : graph.neighbors(v)) {
      if (in_core[w] && --degree[w] < 2) peel.push_back(w);
    }
  }
  return in_core;
}

uint32_t TwoCoreSize(const Graph& graph) {
  const auto membership = TwoCoreMembership(graph);
  return static_cast<uint32_t>(
      std::count(membership.begin(), membership.end(), true));
}

Graph LargestConnectedComponent(const Graph& graph,
                                std::vector<Vertex>* old_to_new) {
  const uint32_t n = graph.vertex_count();
  std::vector<uint32_t> component(n, 0);
  uint32_t component_count = 0;
  std::vector<uint32_t> sizes;
  std::deque<Vertex> queue;
  std::vector<bool> visited(n, false);
  for (Vertex start = 0; start < n; ++start) {
    if (visited[start]) continue;
    ++component_count;
    uint32_t size = 0;
    visited[start] = true;
    queue.push_back(start);
    while (!queue.empty()) {
      const Vertex v = queue.front();
      queue.pop_front();
      component[v] = component_count - 1;
      ++size;
      for (const Vertex w : graph.neighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          queue.push_back(w);
        }
      }
    }
    sizes.push_back(size);
  }
  uint32_t best = 0;
  for (uint32_t c = 1; c < component_count; ++c) {
    if (sizes[c] > sizes[best]) best = c;
  }
  std::vector<Vertex> selection;
  selection.reserve(component_count == 0 ? 0 : sizes[best]);
  for (Vertex v = 0; v < n; ++v) {
    if (component[v] == best) selection.push_back(v);
  }
  return InducedSubgraph(graph, selection, old_to_new);
}

Graph CompactLabels(const Graph& graph, std::vector<Label>* label_mapping) {
  std::vector<Label> mapping(graph.label_count(), kInvalidLabel);
  Label next = 0;
  GraphBuilder builder(graph.vertex_count());
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    Label& mapped = mapping[graph.label(v)];
    if (mapped == kInvalidLabel) mapped = next++;
    builder.SetLabel(v, mapped);
  }
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    for (const Vertex w : graph.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  if (label_mapping != nullptr) *label_mapping = std::move(mapping);
  return builder.Build();
}

Graph InducedSubgraph(const Graph& graph, std::span<const Vertex> vertices,
                      std::vector<Vertex>* old_to_new) {
  std::vector<Vertex> mapping(graph.vertex_count(), kInvalidVertex);
  std::vector<Label> labels(vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vertex old = vertices[i];
    SGM_CHECK(old < graph.vertex_count());
    SGM_CHECK_MSG(mapping[old] == kInvalidVertex, "duplicate vertex in selection");
    mapping[old] = static_cast<Vertex>(i);
    labels[i] = graph.label(old);
  }
  // Each edge is emitted once, from its smaller endpoint: the list is
  // duplicate-free, as the Graph constructor requires.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (const Vertex old : vertices) {
    for (const Vertex w : graph.neighbors(old)) {
      if (mapping[w] != kInvalidVertex && old < w) {
        edges.emplace_back(mapping[old], mapping[w]);
      }
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return Graph(std::move(labels), edges);
}

}  // namespace sgm
