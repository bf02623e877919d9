// Weighted SMACOF (Scaling by MAjorizing a COmplicated Function) — the MDS
// solver at the heart of the topology estimation (§2.1.2). Minimizes the
// weighted stress
//   S(X) = sum_{i<j} w_ij (d_ij - ||x_i - x_j||)^2
// by iterating the Guttman transform X <- V^+ B(X) X, which majorizes S and
// decreases it monotonically. Zero weights encode missing links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/mds_classical.hpp"
#include "util/geometry.hpp"
#include "util/matrix.hpp"
#include "util/random.hpp"

namespace uwp::core {

struct SmacofOptions {
  int max_iterations = 500;
  // Stop at the first Guttman iteration that lowers the RMS link residual
  // sqrt(S / #links) (normalized_stress, meters) by no more than this. Far
  // below the 0.5-0.9 m ranging noise, so a finer rule buys no accuracy;
  // a non-finite stress also stops the solve.
  double tolerance_m = 1e-4;
  // Random restarts tried in addition to the classical-MDS start; the best
  // (lowest stress) solution wins. Guards against local minima when links
  // are missing.
  int random_restarts = 2;
  // Scale of random initial layouts (meters).
  double init_spread = 30.0;
};

struct SmacofResult {
  std::vector<Vec2> positions;
  double stress = 0.0;             // raw weighted stress (m^2)
  double normalized_stress = 0.0;  // sqrt(stress / #links): RMS residual, m
  int iterations = 0;
  std::size_t num_links = 0;
};

// Weighted raw stress of a configuration.
double weighted_stress(const std::vector<Vec2>& x, const Matrix& dist, const Matrix& w);

// Run SMACOF on the (projected 2D) distance matrix `dist` with weight matrix
// `w` (symmetric, non-negative; w_ij = 0 for missing links). If `init` is
// given it is used as the primary start; otherwise classical MDS with
// shortest-path completion seeds the solve. `rng` drives random restarts.
SmacofResult smacof_2d(const Matrix& dist, const Matrix& w, const SmacofOptions& opts,
                       uwp::Rng& rng,
                       const std::optional<std::vector<Vec2>>& init = std::nullopt);

// The i < j, w > 0 link set of a weight/distance matrix pair, flattened into
// padded struct-of-arrays form for the SIMD kernels (gather indices + per-link
// weight and measured distance). Pad links reference node 0 with zero weight
// and distance so their kernel contributions are exact +0.0.
struct LinkSoA {
  std::vector<std::uint32_t> i, j;
  std::vector<double> w, d;
  std::size_t count = 0;   // real links
  std::size_t padded = 0;  // count rounded up to simd::kLanes
};

// Reusable scratch for smacof_2d_into: every buffer of a solve, V^+
// included (see smacof_v_pinv), so a warm workspace solves without heap
// traffic.
struct SmacofWorkspace {
  Matrix v, v_pinv;                // V and V^+, or Cholesky L and L^-1
  LinkSoA links;                   // per-call link SoA
  std::vector<double> vp_pad;      // padded V^+ plane
  std::vector<double> x, y;        // SoA iterate (padded, pad lanes zero)
  std::vector<double> bx_x, bx_y;  // B(X) X product (padded)
  std::vector<double> b_pad;       // padded Guttman B matrix
  std::vector<double> dij;         // per-link ||x_i - x_j|| cache (padded)
  std::vector<double> bvals;       // per-link B off-diagonal values (padded)
  std::vector<std::vector<Vec2>> starts;
  SmacofResult scratch;            // per-start solve buffer
  ClassicalMdsWorkspace mds;       // classical-MDS seed + eigen scratch
};

// V^+ of the Guttman transform for the symmetric weights `w`: the
// pseudo-inverse of V = diag(sum_j w_ij) - W as a padded row-major plane of
// row stride simd::padded(n), pad entries exactly zero. When the w > 0 links
// join every node (checked exactly, by is_connected), V's null space is
// exactly the constant vector and V^+ = (V + 11^T/n)^-1 - 11^T/n comes from a
// scalar Cholesky factorization. A disconnected graph, or weights whose
// factorization breaks down (non-finite ones, or negative ones that leave
// V + 11^T/n indefinite), takes the Jacobi pseudo_inverse_symmetric path,
// bit for bit. The diagonal of `w` is ignored. The pointer is valid until the next call with this workspace.
// Throws std::invalid_argument above kMaxDevices nodes.
const double* smacof_v_pinv(const Matrix& w, SmacofWorkspace& ws);

// Workspace variant of smacof_2d: bit-identical results, all scratch in `ws`
// and `out` (no steady-state allocation). `init` may be null.
void smacof_2d_into(SmacofResult& out, const Matrix& dist, const Matrix& w,
                    const SmacofOptions& opts, uwp::Rng& rng,
                    const std::vector<Vec2>* init, SmacofWorkspace& ws);

}  // namespace uwp::core
