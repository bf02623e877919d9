#include "core/rigidity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/random.hpp"

// Counting global allocator: a warm rigidity check must not allocate.
namespace {
bool g_count_allocs = false;
long g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace uwp::core {
namespace {

constexpr std::size_t kNoSkip = std::numeric_limits<std::size_t>::max();

// Numeric reference for the pebble game: the rank of the rigidity matrix at
// a generic (random) placement equals the generic rank of the rigidity
// matroid. Row per edge (i, j): [... (pi - pj) at i ..., (pj - pi) at j ...].
class RigidityMatrix {
 public:
  static constexpr std::size_t kCols = 32;  // two per node, up to 16 nodes

  RigidityMatrix(std::size_t n, uwp::Rng& rng) {
    if (n > kCols / 2) throw std::invalid_argument("RigidityMatrix: more than 16 nodes");
    n_ = n;
    for (std::size_t i = 0; i < n; ++i) {
      x_[i] = rng.uniform(-10, 10);
      y_[i] = rng.uniform(-10, 10);
    }
  }

  // Rank of the rows of every edge but edges[skip]. Rows are eliminated one
  // at a time, with partial pivoting, against the rows kept so far; the
  // rank cannot pass 2n - 3 (the three rigid motions), so it stops there.
  std::size_t rank(const std::vector<Edge>& edges, std::size_t skip = kNoSkip) const {
    const std::size_t cols = 2 * n_;
    std::array<std::array<double, kCols>, kCols> kept{};
    std::array<std::size_t, kCols> pivot{};
    std::size_t rank = 0;
    for (std::size_t e = 0; e < edges.size() && rank < full(); ++e) {
      if (e == skip) continue;
      const auto [a, b] = edges[e];
      std::array<double, kCols>& row = kept[rank];
      row.fill(0.0);
      const double dx = x_[a] - x_[b];
      const double dy = y_[a] - y_[b];
      row[2 * a] = dx;
      row[2 * a + 1] = dy;
      row[2 * b] = -dx;
      row[2 * b + 1] = -dy;
      for (std::size_t r = 0; r < rank; ++r) {
        const double f = row[pivot[r]] / kept[r][pivot[r]];
        for (std::size_t c = 0; c < cols; ++c) row[c] -= f * kept[r][c];
      }
      std::size_t best = 0;
      for (std::size_t c = 1; c < cols; ++c)
        if (std::abs(row[c]) > std::abs(row[best])) best = c;
      if (std::abs(row[best]) < 1e-9) continue;
      pivot[rank++] = best;
    }
    return rank;
  }

  bool rigid(const std::vector<Edge>& edges, std::size_t skip = kNoSkip) const {
    return rank(edges, skip) == full();
  }

  // Rigid, and still rigid with any one edge removed.
  bool redundantly_rigid(const std::vector<Edge>& edges) const {
    if (!rigid(edges)) return false;
    for (std::size_t e = 0; e < edges.size(); ++e)
      if (!rigid(edges, e)) return false;
    return true;
  }

 private:
  std::size_t full() const { return n_ < 2 ? 0 : 2 * n_ - 3; }

  std::size_t n_ = 0;
  std::array<double, kCols / 2> x_{}, y_{};
};

std::size_t rigidity_matrix_rank(std::size_t n, const std::vector<Edge>& edges,
                                 uwp::Rng& rng) {
  return RigidityMatrix(n, rng).rank(edges);
}

// Plain vertex-deletion search for vertex k-connectivity: on an adjacency
// matrix, every set of fewer than k deleted nodes must leave the rest
// connected (depth-first search). With n <= k, the graph must be complete.
class BruteConnectivity {
 public:
  static constexpr std::size_t kNodes = 16;

  BruteConnectivity(std::size_t n, const std::vector<Edge>& edges) {
    if (n > kNodes) throw std::invalid_argument("BruteConnectivity: more than 16 nodes");
    n_ = n;
    for (const auto& [a, b] : edges)
      if (a != b) adj_[a][b] = adj_[b][a] = true;
  }

  bool k_connected(std::size_t k) {
    if (n_ <= k) {
      for (std::size_t a = 0; a < n_; ++a)
        for (std::size_t b = a + 1; b < n_; ++b)
          if (!adj_[a][b]) return false;
      return true;
    }
    return survives(0, k == 0 ? 0 : k - 1);
  }

 private:
  bool survives(std::size_t from, std::size_t deletions) {
    if (!connected()) return false;
    for (std::size_t v = from; deletions > 0 && v < n_; ++v) {
      removed_[v] = true;
      const bool ok = survives(v + 1, deletions - 1);
      removed_[v] = false;
      if (!ok) return false;
    }
    return true;
  }

  bool connected() const {
    std::array<bool, kNodes> seen = removed_;
    std::array<std::size_t, kNodes> stack{};
    std::size_t top = 0;
    std::size_t start = 0;
    while (start < n_ && removed_[start]) ++start;
    if (start == n_) return true;
    stack[top++] = start;
    seen[start] = true;
    while (top > 0) {
      const std::size_t v = stack[--top];
      for (std::size_t u = 0; u < n_; ++u)
        if (adj_[v][u] && !seen[u]) {
          seen[u] = true;
          stack[top++] = u;
        }
    }
    for (std::size_t v = 0; v < n_; ++v)
      if (!seen[v]) return false;
    return true;
  }

  std::size_t n_ = 0;
  std::array<std::array<bool, kNodes>, kNodes> adj_{};
  std::array<bool, kNodes> removed_{};
};

std::string describe(std::size_t n, const std::vector<Edge>& edges) {
  std::ostringstream s;
  s << "n=" << n << " edges=";
  for (const auto& [a, b] : edges) s << "(" << a << "," << b << ")";
  return s.str();
}

Matrix weights_of(std::size_t n, const std::vector<Edge>& edges) {
  Matrix w(n, n, 0.0);
  for (const auto& [a, b] : edges) w(a, b) = w(b, a) = 1.0;
  return w;
}

// Every public predicate against the two oracles. Returns whether the graph
// is uniquely realizable.
bool expect_matches_oracles(std::size_t n, const std::vector<Edge>& edges, uwp::Rng& rng) {
  const RigidityMatrix numeric(n, rng);
  BruteConnectivity brute(n, edges);
  const std::string what = describe(n, edges);
  EXPECT_EQ(is_connected(n, edges), brute.k_connected(1)) << what;
  EXPECT_EQ(is_connected(weights_of(n, edges)), brute.k_connected(1)) << what;
  for (std::size_t k = 1; k <= 3; ++k)
    EXPECT_EQ(is_k_connected(n, edges, k), brute.k_connected(k)) << what << " k=" << k;
  EXPECT_EQ(rigidity_rank(n, edges), numeric.rank(edges)) << what;
  EXPECT_EQ(is_rigid_2d(n, edges), numeric.rigid(edges)) << what;
  const bool redundant = numeric.redundantly_rigid(edges);
  EXPECT_EQ(is_redundantly_rigid_2d(n, edges), redundant) << what;
  const bool unique = n <= 2   ? true
                      : n == 3 ? brute.k_connected(3)  // the full triangle
                               : redundant && brute.k_connected(3);
  EXPECT_EQ(is_uniquely_realizable_2d(n, edges), unique) << what;
  return unique;
}

std::vector<Edge> complete_graph(std::size_t n) {
  std::vector<Edge> e;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return e;
}

std::vector<Edge> path_graph(std::size_t n) {
  std::vector<Edge> e;
  for (std::size_t i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return e;
}

TEST(Rigidity, Connectivity) {
  EXPECT_TRUE(is_connected(4, complete_graph(4)));
  EXPECT_TRUE(is_connected(1, {}));
  EXPECT_FALSE(is_connected(3, {{0, 1}}));          // node 2 isolated
  EXPECT_TRUE(is_connected(3, {{0, 1}, {1, 2}}));
}

TEST(Rigidity, KConnectivity) {
  // K4 is 3-connected.
  EXPECT_TRUE(is_k_connected(4, complete_graph(4), 3));
  // A 4-cycle is 2-connected but not 3-connected.
  const std::vector<Edge> cycle4 = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EXPECT_TRUE(is_k_connected(4, cycle4, 2));
  EXPECT_FALSE(is_k_connected(4, cycle4, 3));
  // A path is 1-connected only.
  const std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(is_k_connected(4, path, 1));
  EXPECT_FALSE(is_k_connected(4, path, 2));
}

TEST(Rigidity, TriangleIsRigid) {
  EXPECT_TRUE(is_rigid_2d(3, complete_graph(3)));
}

TEST(Rigidity, FourCycleIsFlexible) {
  // Fig 4a: a 4-cycle deforms continuously.
  EXPECT_FALSE(is_rigid_2d(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
}

TEST(Rigidity, BracedFourCycleIsRigid) {
  EXPECT_TRUE(is_rigid_2d(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}));
}

TEST(Rigidity, RankCountsIndependentEdges) {
  // Laman: 2n - 3 independent edges for rigidity; K4 has 6 edges but rank 5.
  EXPECT_EQ(rigidity_rank(4, complete_graph(4)), 5u);
  EXPECT_EQ(rigidity_rank(3, complete_graph(3)), 3u);
  // Double-banana-style over-braced subgraph: extra edges are dependent.
  std::vector<Edge> tri_plus = complete_graph(3);
  tri_plus.emplace_back(0, 1);  // duplicate edge is dependent
  EXPECT_EQ(rigidity_rank(3, tri_plus), 3u);
}

TEST(Rigidity, LamanCounterexampleRejected) {
  // 6 nodes, 9 edges arranged as two triangles joined by 3 parallel edges
  // (a "prism" is actually rigid); instead test two triangles sharing one
  // vertex + 2 edges: has 2n-3 = 9? n=5, 2n-3=7. Two triangles sharing a
  // vertex have 6 edges and are flexible (hinge).
  const std::vector<Edge> hinge = {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}};
  EXPECT_FALSE(is_rigid_2d(5, hinge));
}

TEST(Rigidity, RedundantRigidity) {
  // K4 stays rigid after removing any edge.
  EXPECT_TRUE(is_redundantly_rigid_2d(4, complete_graph(4)));
  // A minimally rigid graph (Laman graph) is not redundantly rigid.
  const std::vector<Edge> braced = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  EXPECT_TRUE(is_rigid_2d(4, braced));
  EXPECT_FALSE(is_redundantly_rigid_2d(4, braced));
}

TEST(Rigidity, UniqueRealizability) {
  // Complete graphs are uniquely realizable.
  EXPECT_TRUE(is_uniquely_realizable_2d(4, complete_graph(4)));
  EXPECT_TRUE(is_uniquely_realizable_2d(5, complete_graph(5)));
  // The partial-reflection case (Fig 4b): rigid but a cut pair allows a
  // mirror flip -> not 3-connected -> not uniquely realizable.
  const std::vector<Edge> flip_case = {{0, 1}, {1, 2}, {2, 0}, {1, 3}, {2, 3},
                                       {3, 4}, {2, 4}};
  EXPECT_TRUE(is_rigid_2d(5, flip_case));
  EXPECT_FALSE(is_uniquely_realizable_2d(5, flip_case));
}

TEST(Rigidity, SmallCases) {
  EXPECT_TRUE(is_uniquely_realizable_2d(1, {}));
  EXPECT_TRUE(is_uniquely_realizable_2d(2, {{0, 1}}));
  EXPECT_TRUE(is_uniquely_realizable_2d(3, complete_graph(3)));
  EXPECT_FALSE(is_uniquely_realizable_2d(3, {{0, 1}, {1, 2}}));
  // A duplicated link is still only two of the triangle's three sides.
  EXPECT_FALSE(is_uniquely_realizable_2d(3, {{0, 1}, {1, 0}, {1, 2}}));
}

TEST(Rigidity, PebbleGameMatchesRigidityMatrixRankOnRandomGraphs) {
  // Property check: the combinatorial (2,3) pebble game and the numeric
  // rigidity-matrix rank at a generic placement must agree on every random
  // graph (Laman's theorem). Sweep sizes and densities.
  uwp::Rng rng(2718);
  for (std::size_t n : {4u, 5u, 6u, 7u, 8u}) {
    for (double p : {0.3, 0.5, 0.8}) {
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<Edge> edges;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = i + 1; j < n; ++j)
            if (rng.bernoulli(p)) edges.emplace_back(i, j);
        const std::size_t pebble = rigidity_rank(n, edges);
        const std::size_t numeric = rigidity_matrix_rank(n, edges, rng);
        EXPECT_EQ(pebble, numeric)
            << "n=" << n << " p=" << p << " edges=" << edges.size();
      }
    }
  }
}

// Every graph on at most 5 nodes, each also with one link repeated
// (reversed) and a self-loop added.
TEST(Rigidity, EverySmallGraphMatchesTheOracles) {
  uwp::Rng rng(31);
  std::size_t unique = 0, graphs = 0;
  for (std::size_t n = 0; n <= 5; ++n) {
    const std::vector<Edge> pairs = complete_graph(n);
    for (std::size_t mask = 0; mask < (std::size_t{1} << pairs.size()); ++mask) {
      std::vector<Edge> edges;
      for (std::size_t p = 0; p < pairs.size(); ++p)
        if (mask >> p & 1) edges.push_back(pairs[p]);
      unique += expect_matches_oracles(n, edges, rng);
      if (n == 0) continue;
      if (!edges.empty()) edges.emplace_back(edges.front().second, edges.front().first);
      edges.emplace_back(n - 1, n - 1);
      unique += expect_matches_oracles(n, edges, rng);
      graphs += 2;
    }
  }
  EXPECT_EQ(graphs, 2u * (1 + 2 + 8 + 64 + 1024));
  // Uniquely realizable: every graph on n <= 2 nodes (1 + 1 + 2), the
  // triangle, K4, and on 5 nodes K5, its 10 one-edge deletions and its 15
  // wheels (two disjoint edges deleted): 32 graphs, each twice but for n = 0.
  EXPECT_EQ(unique, 63u);
}

TEST(Rigidity, RandomGraphsUpTo16NodesMatchTheOracles) {
  uwp::Rng rng(0x516u);
  std::size_t unique = 0;
  constexpr int kGraphs = 20000;
  for (int g = 0; g < kGraphs; ++g) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(6, 16));
    // Between a spanning tree's n - 1 links and 3n: around the 2n - 2
    // that redundant rigidity needs.
    std::vector<Edge> pairs = complete_graph(n);
    const std::size_t links = std::min(
        pairs.size(), static_cast<std::size_t>(rng.uniform_int(
                          static_cast<std::int64_t>(n) - 1, 3 * static_cast<std::int64_t>(n))));
    for (std::size_t i = 0; i < links; ++i)
      std::swap(pairs[i], pairs[i + static_cast<std::size_t>(rng.uniform_int(
                                            0, static_cast<std::int64_t>(pairs.size() - i) - 1))]);
    pairs.resize(links);
    unique += expect_matches_oracles(n, pairs, rng);
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_GT(unique, std::size_t{kGraphs / 10});
  EXPECT_LT(unique, std::size_t{kGraphs * 9 / 10});
}

TEST(Rigidity, CapacityIsSixtyFourNodes) {
  const std::vector<Edge> k64 = complete_graph(kMaxDevices);
  EXPECT_TRUE(is_connected(kMaxDevices, k64));
  EXPECT_TRUE(is_k_connected(kMaxDevices, k64, 3));
  EXPECT_EQ(rigidity_rank(kMaxDevices, k64), 2 * kMaxDevices - 3);
  EXPECT_TRUE(is_redundantly_rigid_2d(kMaxDevices, k64));
  EXPECT_TRUE(is_uniquely_realizable_2d(kMaxDevices, k64));

  const std::vector<Edge> path = path_graph(kMaxDevices);
  EXPECT_TRUE(is_connected(kMaxDevices, path));
  EXPECT_TRUE(is_connected(weights_of(kMaxDevices, path)));
  EXPECT_FALSE(is_k_connected(kMaxDevices, path, 2));
  EXPECT_EQ(rigidity_rank(kMaxDevices, path), kMaxDevices - 1);
  EXPECT_FALSE(is_rigid_2d(kMaxDevices, path));
  EXPECT_FALSE(is_uniquely_realizable_2d(kMaxDevices, path));
  std::vector<Edge> split = path;
  split.erase(split.begin() + 40);
  EXPECT_FALSE(is_connected(kMaxDevices, split));
  EXPECT_FALSE(is_connected(weights_of(kMaxDevices, split)));

  const std::size_t over = kMaxDevices + 1;
  const std::vector<Edge> k65 = complete_graph(over);
  EXPECT_THROW(is_connected(over, k65), std::invalid_argument);
  EXPECT_THROW(is_connected(weights_of(over, k65)), std::invalid_argument);
  EXPECT_THROW(is_k_connected(over, k65, 3), std::invalid_argument);
  EXPECT_THROW(rigidity_rank(over, k65), std::invalid_argument);
  EXPECT_THROW(is_rigid_2d(over, k65), std::invalid_argument);
  EXPECT_THROW(is_redundantly_rigid_2d(over, k65), std::invalid_argument);
  EXPECT_THROW(is_uniquely_realizable_2d(over, k65), std::invalid_argument);
  EXPECT_THROW(is_connected(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(is_connected(Matrix(3, 4)), std::invalid_argument);
}

TEST(Rigidity, WarmChecksAllocateNothing) {
  const std::vector<Edge> k8 = complete_graph(8);
  const std::vector<Edge> k64 = complete_graph(kMaxDevices);
  const std::vector<Edge> path = path_graph(kMaxDevices);
  const std::vector<Edge> five = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {3, 4}};
  const Matrix w = weights_of(8, k8);
  const auto run = [&] {
    std::size_t yes = 0;
    for (const auto& [n, edges] : {std::pair{std::size_t{8}, &k8},
                                   std::pair{kMaxDevices, &k64},
                                   std::pair{kMaxDevices, &path},
                                   std::pair{std::size_t{5}, &five}}) {
      yes += is_connected(n, *edges);
      for (std::size_t k = 1; k <= 3; ++k) yes += is_k_connected(n, *edges, k);
      yes += rigidity_rank(n, *edges);
      yes += is_rigid_2d(n, *edges);
      yes += is_redundantly_rigid_2d(n, *edges);
      yes += is_uniquely_realizable_2d(n, *edges);
    }
    return yes + is_connected(w);
  };
  const std::size_t warm = run();
  g_allocs = 0;
  g_count_allocs = true;
  const std::size_t again = run();
  g_count_allocs = false;
  EXPECT_EQ(g_allocs, 0);
  EXPECT_EQ(again, warm);
}

TEST(Rigidity, CompleteMinusOneEdgeOnFive) {
  // K5 minus an edge is still redundantly rigid and 3-connected.
  std::vector<Edge> edges = complete_graph(5);
  edges.pop_back();
  EXPECT_TRUE(is_uniquely_realizable_2d(5, edges));
}

TEST(Rigidity, WheelGraphUniquelyRealizable) {
  // Wheel W5: hub 0 connected to rim 1-4, rim forms a cycle. Redundantly
  // rigid and 3-connected.
  const std::vector<Edge> wheel = {{0, 1}, {0, 2}, {0, 3}, {0, 4},
                                   {1, 2}, {2, 3}, {3, 4}, {4, 1}};
  EXPECT_TRUE(is_uniquely_realizable_2d(5, wheel));
}

}  // namespace
}  // namespace uwp::core
