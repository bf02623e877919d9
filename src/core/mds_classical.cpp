#include "core/mds_classical.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/linalg.hpp"
#include "util/simd_kernels.hpp"

namespace uwp::core {

void shortest_path_completion_into(Matrix& out, const Matrix& dist,
                                   const Matrix& weights) {
  const std::size_t n = dist.rows();
  if (dist.cols() != n || weights.rows() != n || weights.cols() != n)
    throw std::invalid_argument("shortest_path_completion: shape mismatch");
  constexpr double kInf = 1e18;
  out.assign(n, n, kInf);
  double max_obs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out(i, i) = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && weights(i, j) > 0.0) {
        out(i, j) = dist(i, j);
        max_obs = std::max(max_obs, dist(i, j));
      }
    }
  }
  // Floyd-Warshall.
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        out(i, j) = std::min(out(i, j), out(i, k) + out(k, j));
  // Unreachable pairs: cap at the largest observed distance.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (out(i, j) >= kInf) out(i, j) = max_obs;
}

std::vector<Vec2> classical_mds_2d(const Matrix& dist) {
  ClassicalMdsWorkspace ws;
  std::vector<Vec2> out;
  classical_mds_2d_into(out, dist, ws);
  return out;
}

void classical_mds_2d_into(std::vector<Vec2>& out, const Matrix& dist,
                           ClassicalMdsWorkspace& ws) {
  const std::size_t n = dist.rows();
  if (dist.cols() != n) throw std::invalid_argument("classical_mds_2d: not square");
  out.assign(n, Vec2{});
  if (n == 0) return;
  // Double centering: B = -1/2 J D^2 J.
  Matrix& d2 = ws.d2;
  d2.assign(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d2(i, j) = dist(i, j) * dist(i, j);
  std::vector<double>& row_mean = ws.row_mean;
  row_mean.assign(n, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row_mean[i] =
        kernels::row_sum<simd::ActiveOps>(d2.row(i).data(), n) / static_cast<double>(n);
    total += row_mean[i];
  }
  total /= static_cast<double>(n);
  Matrix& b = ws.b;
  b.assign(n, n);
  for (std::size_t i = 0; i < n; ++i)
    kernels::center_row<simd::ActiveOps>(b.row(i).data(), d2.row(i).data(), row_mean[i],
                                         row_mean.data(), total, n);

  eigen_symmetric_into(b, ws.eigen.eig, ws.eigen);
  const EigenResult& eig = ws.eigen.eig;
  for (std::size_t axis = 0; axis < 2 && axis < eig.values.size(); ++axis) {
    const double l = std::max(eig.values[axis], 0.0);
    const double s = std::sqrt(l);
    for (std::size_t i = 0; i < n; ++i) {
      const double coord = s * eig.vectors(i, axis);
      if (axis == 0)
        out[i].x = coord;
      else
        out[i].y = coord;
    }
  }
}

std::vector<Vec2> classical_mds_2d_weighted(const Matrix& dist, const Matrix& weights) {
  ClassicalMdsWorkspace ws;
  std::vector<Vec2> out;
  classical_mds_2d_weighted_into(out, dist, weights, ws);
  return out;
}

void classical_mds_2d_weighted_into(std::vector<Vec2>& out, const Matrix& dist,
                                    const Matrix& weights, ClassicalMdsWorkspace& ws) {
  shortest_path_completion_into(ws.completed, dist, weights);
  classical_mds_2d_into(out, ws.completed, ws);
}

}  // namespace uwp::core
