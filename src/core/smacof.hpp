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
  // Stop when the relative stress decrease drops below this.
  double rel_tolerance = 1e-9;
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

// Reusable scratch for smacof_2d_into. V^+ lives in the calling thread's
// memo when the weights are a 0/1 link pattern (see smacof_v_pinv), so a
// workspace holds only per-call buffers: `v`/`v_pinv`/`vp_pad` are filled
// on a memo miss or for weights the memo does not key.
struct SmacofWorkspace {
  Matrix v, v_pinv;
  LinkSoA links;                   // per-call link SoA
  std::vector<double> vp_pad;      // padded copy of v_pinv (uncached weights)
  std::vector<double> x, y;        // SoA iterate (padded, pad lanes zero)
  std::vector<double> bx_x, bx_y;  // B(X) X product (padded)
  std::vector<double> b_pad;       // padded Guttman B matrix
  std::vector<double> dij;         // per-link ||x_i - x_j|| cache (padded)
  std::vector<double> bvals;       // per-link B off-diagonal values (padded)
  std::vector<std::vector<Vec2>> starts;
  SmacofResult scratch;            // per-start solve buffer
  ClassicalMdsWorkspace mds;       // classical-MDS seed + eigen scratch
};

// V^+ of the Guttman transform for weights `w`: the pseudo-inverse of
// V = diag(sum_j w_ij) - W as a padded row-major plane of row stride
// simd::padded(n), pad entries exactly zero. When `w` is n <= 8 and every
// off-diagonal weight is exactly 0.0 or 1.0 and symmetric, V^+ is a pure
// function of (n, link mask), and the plane comes from a bounded per-thread
// memo (2,048 sets x 4 ways, LRU within a set, 512 B per plane, so at most
// 4 MB per solving thread); the diagonal of `w` is ignored, as V never reads
// it. Any other `w` is decomposed on every call. Either way the bits are
// those of pseudo_inverse_symmetric(V). The pointer is valid until the next
// call on this thread or with this workspace.
const double* smacof_v_pinv(const Matrix& w, SmacofWorkspace& ws);

// The calling thread's V^+ memo counters: lookups served from the memo,
// lookups that computed and stored a plane, and calls whose weights the
// memo does not key.
struct VPinvMemoStats {
  std::uint64_t hits = 0, misses = 0, uncached = 0;
};
VPinvMemoStats v_pinv_memo_stats();

// Workspace variant of smacof_2d: bit-identical results, all scratch in `ws`
// and `out` (no steady-state allocation). `init` may be null.
void smacof_2d_into(SmacofResult& out, const Matrix& dist, const Matrix& w,
                    const SmacofOptions& opts, uwp::Rng& rng,
                    const std::vector<Vec2>* init, SmacofWorkspace& ws);

}  // namespace uwp::core
