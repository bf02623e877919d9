#include "core/projection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uwp::core {

Matrix project_to_2d(const Matrix& dist3d, std::span<const double> depths) {
  Matrix out;
  project_to_2d_into(out, dist3d, depths);
  return out;
}

void project_to_2d_into(Matrix& out, const Matrix& dist3d,
                        std::span<const double> depths) {
  const std::size_t n = dist3d.rows();
  if (dist3d.cols() != n || depths.size() != n)
    throw std::invalid_argument("project_to_2d: shape mismatch");
  out.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dh = depths[i] - depths[j];
      const double sq = dist3d(i, j) * dist3d(i, j) - dh * dh;
      // A finite negative radicand clamps to zero; a NaN or -inf one (an inf
      // depth) turns into NaN, so a non-finite input reaches the solver
      // instead of reading as 0 m.
      const double d = sq < 0.0 && std::isfinite(sq) ? 0.0 : std::sqrt(sq);
      out(i, j) = out(j, i) = d;
    }
  }
}

Matrix lift_to_3d(const Matrix& dist2d, std::span<const double> depths) {
  const std::size_t n = dist2d.rows();
  if (dist2d.cols() != n || depths.size() != n)
    throw std::invalid_argument("lift_to_3d: shape mismatch");
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dh = depths[i] - depths[j];
      out(i, j) = out(j, i) = std::hypot(dist2d(i, j), dh);
    }
  }
  return out;
}

}  // namespace uwp::core
