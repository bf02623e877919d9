#include "core/rigidity.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace uwp::core {

namespace {

using Mask = std::uint64_t;

constexpr Mask bit(std::size_t v) { return Mask{1} << v; }

constexpr Mask all_nodes(std::size_t n) { return n == kMaxDevices ? ~Mask{0} : bit(n) - 1; }

void check_graph(std::size_t n, const std::vector<Edge>& edges) {
  if (n > kMaxDevices) throw std::invalid_argument("rigidity: more than kMaxDevices nodes");
  for (const Edge& e : edges)
    if (e.first >= n || e.second >= n)
      throw std::invalid_argument("rigidity: edge endpoint out of range");
}

// Node v's neighbours are the set bits of adj[v].
struct LinkGraph {
  std::size_t n = 0;
  std::array<Mask, kMaxDevices> adj{};
};

LinkGraph graph_of(std::size_t n, const std::vector<Edge>& edges) {
  check_graph(n, edges);
  LinkGraph g;
  g.n = n;
  for (const Edge& e : edges) {
    g.adj[e.first] |= bit(e.second);
    g.adj[e.second] |= bit(e.first);
  }
  return g;
}

// Whether the nodes of `alive` are joined by paths inside `alive`:
// breadth-first search over masks from its lowest node.
bool connected(const LinkGraph& g, Mask alive) {
  Mask seen = alive & (~alive + 1);
  Mask frontier = seen;
  while (frontier != 0) {
    Mask next = 0;
    for (Mask f = frontier; f != 0; f &= f - 1) next |= g.adj[std::countr_zero(f)];
    frontier = next & alive & ~seen;
    seen |= frontier;
  }
  return seen == alive;
}

bool complete(const LinkGraph& g) {
  for (std::size_t v = 0; v < g.n; ++v)
    if ((g.adj[v] | bit(v) | ~all_nodes(g.n)) != ~Mask{0}) return false;
  return true;
}

// Whether `alive` stays connected after deleting any `k` of its nodes
// numbered `from` or above.
bool survives_deletions(const LinkGraph& g, Mask alive, std::size_t from, std::size_t k) {
  if (k == 0) return connected(g, alive);
  for (std::size_t v = from; v < g.n; ++v)
    if (!survives_deletions(g, alive & ~bit(v), v + 1, k - 1)) return false;
  return true;
}

// Vertex k-connectivity; for n <= k the graph must be complete.
bool k_connected(const LinkGraph& g, std::size_t k) {
  if (g.n <= k) return complete(g);
  const Mask all = all_nodes(g.n);
  return connected(g, all) && (k <= 1 || survives_deletions(g, all, 0, k - 1));
}

// (2,3) pebble game. Each vertex starts with 2 pebbles. To insert an edge we
// must gather 4 pebbles on its endpoints (enforcing the "no subgraph with
// more than 2n'-3 edges" condition); inserting consumes one pebble and
// orients the edge away from the vertex that paid it. So vertex v holds
// 2 - deg_[v] pebbles, and its out-edges fit in out_[v][0..1].
class PebbleGame {
 public:
  // Try to add edge (u, v) as independent. Returns false if dependent.
  bool add_edge(std::size_t u, std::size_t v) {
    if (u == v) return false;
    while (deg_[u] + deg_[v] > 0) {
      Mask visited_u = bit(u) | bit(v), visited_v = visited_u;
      if (!(pull(u, visited_u) || pull(v, visited_v))) return false;
    }
    out_[u][deg_[u]++] = static_cast<std::uint8_t>(v);
    return true;
  }

 private:
  // DFS from `v` along out-edges, outside `visited`, for a vertex with a free
  // pebble; on success reverse the path, moving the pebble to `v`.
  bool pull(std::size_t v, Mask& visited) {
    for (std::size_t s = 0; s < deg_[v]; ++s) {
      const std::size_t u = out_[v][s];
      if (visited & bit(u)) continue;
      visited |= bit(u);
      if (deg_[u] < 2 || pull(u, visited)) {
        out_[v][s] = out_[v][--deg_[v]];
        out_[u][deg_[u]++] = static_cast<std::uint8_t>(v);
        return true;
      }
    }
    return false;
  }

  std::array<std::uint8_t, kMaxDevices> deg_{};
  std::array<std::array<std::uint8_t, 2>, kMaxDevices> out_{};
};

// The most independent edges a graph on n nodes holds.
constexpr std::size_t full_rank(std::size_t n) { return n < 2 ? 0 : 2 * n - 3; }

// Plays every edge but edges[skip] in order and returns the rank; stops at
// the full rank, past which every edge is dependent. `basis`, if given,
// receives the indices of the independent edges.
std::size_t play(std::size_t n, const std::vector<Edge>& edges, std::size_t skip,
                 std::size_t* basis) {
  PebbleGame game;
  std::size_t rank = 0;
  for (std::size_t i = 0; i < edges.size() && rank < full_rank(n); ++i)
    if (i != skip && game.add_edge(edges[i].first, edges[i].second)) {
      if (basis != nullptr) basis[rank] = i;
      ++rank;
    }
  return rank;
}

// Rank 2n - 3 without any one edge. Dropping an edge outside the first
// game's basis keeps that basis, so only basis edges are replayed.
bool redundantly_rigid(std::size_t n, const std::vector<Edge>& edges) {
  std::array<std::size_t, full_rank(kMaxDevices)> basis{};
  if (play(n, edges, edges.size(), basis.data()) < full_rank(n)) return false;
  for (std::size_t b = 0; b < full_rank(n); ++b)
    if (play(n, edges, basis[b], nullptr) < full_rank(n)) return false;
  return true;
}

}  // namespace

bool is_connected(std::size_t n, const std::vector<Edge>& edges) {
  return k_connected(graph_of(n, edges), 1);
}

bool is_connected(const Matrix& w) {
  LinkGraph g;
  g.n = w.rows();
  if (g.n > kMaxDevices || w.cols() != g.n)
    throw std::invalid_argument("is_connected: weights not square or above kMaxDevices nodes");
  for (std::size_t i = 0; i < g.n; ++i)
    for (std::size_t j = 0; j < g.n; ++j)
      if (w(i, j) > 0.0) g.adj[i] |= bit(j);
  return k_connected(g, 1);
}

bool is_k_connected(std::size_t n, const std::vector<Edge>& edges, std::size_t k) {
  return k_connected(graph_of(n, edges), k);
}

std::size_t rigidity_rank(std::size_t n, const std::vector<Edge>& edges) {
  check_graph(n, edges);
  return play(n, edges, edges.size(), nullptr);
}

bool is_rigid_2d(std::size_t n, const std::vector<Edge>& edges) {
  return rigidity_rank(n, edges) == full_rank(n);
}

bool is_redundantly_rigid_2d(std::size_t n, const std::vector<Edge>& edges) {
  check_graph(n, edges);
  return redundantly_rigid(n, edges);
}

bool is_uniquely_realizable_2d(std::size_t n, const std::vector<Edge>& edges) {
  const LinkGraph g = graph_of(n, edges);
  if (n <= 2) return true;
  if (n == 3) return complete(g);
  // 3-connectivity first: it rejects most graphs for less.
  return k_connected(g, 3) && redundantly_rigid(n, edges);
}

}  // namespace uwp::core
