// Graph rigidity and unique realizability (§2.1.2). A 2D framework is
// uniquely determined by its pairwise distances iff the graph is redundantly
// rigid and 3-connected (Hendrickson / Jackson-Jordan, cited as [41]).
// Rigidity is tested with the (2,3) pebble game, the combinatorial
// counterpart of Laman's theorem; the outlier-detection loop uses these
// predicates to refuse to drop link subsets that would make the topology
// ambiguous.
//
// Every check keeps one 64-bit neighbour mask per node and allocates
// nothing. Each throws std::invalid_argument for more than kMaxDevices nodes
// or an edge endpoint >= n. Duplicate edges and self-loops are allowed.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/matrix.hpp"

namespace uwp::core {

// Most devices a localization round takes: the width of a neighbour mask.
// The spec and wire caps (sim::kMaxGroupSize, fleet::kMaxWireDevices) equal it.
inline constexpr std::size_t kMaxDevices = 64;

using Edge = std::pair<std::size_t, std::size_t>;

// Connectivity of the graph on `n` nodes.
bool is_connected(std::size_t n, const std::vector<Edge>& edges);

// Whether the w(i, j) > 0 links of the square, symmetric weight matrix `w`
// join all of its nodes (the diagonal is ignored).
bool is_connected(const Matrix& w);

// Vertex k-connectivity: the graph stays connected after deleting any k-1
// vertices. Brute force over deletion sets — fine for dive-group sizes. For
// n <= k the graph must be complete (K_n is (n-1)-connected at most).
bool is_k_connected(std::size_t n, const std::vector<Edge>& edges, std::size_t k);

// Generic 2D rigidity via the (2,3) pebble game: true iff the edge set
// contains a spanning Laman subgraph (rank == 2n - 3).
bool is_rigid_2d(std::size_t n, const std::vector<Edge>& edges);

// Redundant rigidity: still rigid after removal of any single edge.
bool is_redundantly_rigid_2d(std::size_t n, const std::vector<Edge>& edges);

// Unique realizability in 2D: n <= 2 trivially; n == 3 requires the full
// triangle; n >= 4 requires redundant rigidity and 3-connectivity.
bool is_uniquely_realizable_2d(std::size_t n, const std::vector<Edge>& edges);

// Number of independent edges found by the pebble game (the generic rank of
// the rigidity matroid); exposed for tests and diagnostics.
std::size_t rigidity_rank(std::size_t n, const std::vector<Edge>& edges);

}  // namespace uwp::core
