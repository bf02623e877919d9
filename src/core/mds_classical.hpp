// Classical (Torgerson) multidimensional scaling, used to initialize SMACOF.
// Missing entries (zero weight) are completed with graph shortest-path
// distances (the Isomap trick) before double centering.
#pragma once

#include <vector>

#include "util/geometry.hpp"
#include "util/linalg.hpp"
#include "util/matrix.hpp"

namespace uwp::core {

// Classical MDS embedding into 2D from a complete distance matrix.
std::vector<Vec2> classical_mds_2d(const Matrix& dist);

// Convenience: completion + embedding for weighted problems.
std::vector<Vec2> classical_mds_2d_weighted(const Matrix& dist, const Matrix& weights);

// Reusable scratch for the workspace variants below (bit-identical to the
// allocating forms; no steady-state heap traffic).
struct ClassicalMdsWorkspace {
  Matrix completed;  // shortest-path-completed distances
  Matrix d2, b;      // squared distances, double-centered Gram matrix
  std::vector<double> row_mean;
  EigenWorkspace eigen;
};

// Complete a partially observed distance matrix into `out` by all-pairs
// shortest paths over the observed links. Unreachable pairs fall back to the
// largest observed distance (keeps the Gram matrix bounded). Throws
// std::invalid_argument on a shape mismatch.
void shortest_path_completion_into(Matrix& out, const Matrix& dist,
                                   const Matrix& weights);

void classical_mds_2d_into(std::vector<Vec2>& out, const Matrix& dist,
                           ClassicalMdsWorkspace& ws);
void classical_mds_2d_weighted_into(std::vector<Vec2>& out, const Matrix& dist,
                                    const Matrix& weights, ClassicalMdsWorkspace& ws);

}  // namespace uwp::core
