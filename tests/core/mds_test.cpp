#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/mds_classical.hpp"
#include "core/smacof.hpp"
#include "util/linalg.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace uwp::core {
namespace {

Matrix distance_matrix(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d(i, j) = distance(pts[i], pts[j]);
  return d;
}

std::vector<Vec2> random_points(std::size_t n, uwp::Rng& rng, double spread = 20.0) {
  std::vector<Vec2> pts(n);
  for (Vec2& p : pts) p = {rng.uniform(-spread, spread), rng.uniform(-spread, spread)};
  return pts;
}

TEST(ShortestPathCompletion, FillsMissingViaHops) {
  // Chain 0-1-2 with d(0,1)=3, d(1,2)=4; missing (0,2) completes to 7.
  Matrix d(3, 3, 0.0);
  d(0, 1) = d(1, 0) = 3.0;
  d(1, 2) = d(2, 1) = 4.0;
  Matrix w(3, 3, 0.0);
  w(0, 1) = w(1, 0) = 1.0;
  w(1, 2) = w(2, 1) = 1.0;
  Matrix full;
  shortest_path_completion_into(full, d, w);
  EXPECT_DOUBLE_EQ(full(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(full(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(full(0, 0), 0.0);
}

TEST(ShortestPathCompletion, UnreachableCapsAtMaxObserved) {
  Matrix d(3, 3, 0.0);
  d(0, 1) = d(1, 0) = 5.0;
  Matrix w(3, 3, 0.0);
  w(0, 1) = w(1, 0) = 1.0;  // node 2 disconnected
  Matrix full;
  shortest_path_completion_into(full, d, w);
  EXPECT_DOUBLE_EQ(full(0, 2), 5.0);
}

TEST(ClassicalMds, RecoversExactConfiguration) {
  uwp::Rng rng(1);
  const std::vector<Vec2> truth = random_points(6, rng);
  const std::vector<Vec2> est = classical_mds_2d(distance_matrix(truth));
  EXPECT_LT(aligned_rmse(est, truth), 1e-6);
}

TEST(ClassicalMds, CollinearPointsStayCollinear) {
  const std::vector<Vec2> truth = {{0, 0}, {5, 0}, {10, 0}, {15, 0}};
  const std::vector<Vec2> est = classical_mds_2d(distance_matrix(truth));
  EXPECT_LT(aligned_rmse(est, truth), 1e-6);
}

TEST(Smacof, ExactDistancesGiveExactTopology) {
  uwp::Rng rng(2);
  for (std::size_t n : {4u, 5u, 6u, 8u}) {
    const std::vector<Vec2> truth = random_points(n, rng);
    const Matrix d = distance_matrix(truth);
    const Matrix w = Matrix::ones(n, n);
    const SmacofResult res = smacof_2d(d, w, {}, rng);
    EXPECT_LT(aligned_rmse(res.positions, truth), 1e-4) << "n=" << n;
    EXPECT_LT(res.normalized_stress, 1e-4);
  }
}

TEST(Smacof, StressDecreasesMonotonicallyToConvergence) {
  uwp::Rng rng(3);
  const std::vector<Vec2> truth = random_points(6, rng);
  Matrix d = distance_matrix(truth);
  // Perturb distances to create a non-trivial problem.
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i + 1; j < 6; ++j) {
      d(i, j) += rng.uniform(-0.5, 0.5);
      d(j, i) = d(i, j);
    }
  SmacofOptions opts;
  opts.random_restarts = 0;
  const SmacofResult res = smacof_2d(d, Matrix::ones(6, 6), opts, rng);
  EXPECT_GT(res.iterations, 1);
  EXPECT_GE(res.stress, 0.0);
}

TEST(Smacof, MissingLinksStillLocalizable) {
  // Wheel topology: uniquely realizable with several links missing.
  uwp::Rng rng(4);
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {0, 10}, {-10, 0}, {0, -10}};
  Matrix d = distance_matrix(truth);
  Matrix w = Matrix::ones(5, 5);
  // Remove two non-adjacent rim chords that K5 has but the wheel doesn't.
  w(1, 3) = w(3, 1) = 0.0;
  w(2, 4) = w(4, 2) = 0.0;
  const SmacofResult res = smacof_2d(d, w, {}, rng);
  EXPECT_LT(aligned_rmse(res.positions, truth), 0.1);
  EXPECT_EQ(res.num_links, 8u);
}

TEST(Smacof, NoisyDistancesBoundedError) {
  uwp::Rng rng(5);
  const std::vector<Vec2> truth = random_points(6, rng, 25.0);
  Matrix d = distance_matrix(truth);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i + 1; j < 6; ++j) {
      d(i, j) = std::max(0.1, d(i, j) + rng.symmetric(0.8));
      d(j, i) = d(i, j);
    }
  const SmacofResult res = smacof_2d(d, Matrix::ones(6, 6), {}, rng);
  // Fig 6a scale: with eps_1d = 0.8 m the mean 2D error is ~1 m.
  EXPECT_LT(aligned_rmse(res.positions, truth), 2.5);
}

TEST(Smacof, NormalizedStressIsRmsResidual) {
  uwp::Rng rng(6);
  const std::vector<Vec2> truth = random_points(5, rng);
  const Matrix d = distance_matrix(truth);
  const Matrix w = Matrix::ones(5, 5);
  const SmacofResult res = smacof_2d(d, w, {}, rng);
  EXPECT_NEAR(res.normalized_stress,
              std::sqrt(res.stress / static_cast<double>(res.num_links)), 1e-12);
}

TEST(Smacof, InitOverrideRespected) {
  uwp::Rng rng(7);
  const std::vector<Vec2> truth = random_points(5, rng);
  const Matrix d = distance_matrix(truth);
  SmacofOptions opts;
  opts.random_restarts = 0;
  opts.max_iterations = 0;  // no iterations: output == init
  const SmacofResult res = smacof_2d(d, Matrix::ones(5, 5), opts, rng,
                                     std::make_optional(truth));
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.positions[i].x, truth[i].x);
    EXPECT_DOUBLE_EQ(res.positions[i].y, truth[i].y);
  }
}

TEST(Smacof, DegenerateSizes) {
  uwp::Rng rng(8);
  EXPECT_TRUE(smacof_2d(Matrix(0, 0), Matrix(0, 0), {}, rng).positions.empty());
  const SmacofResult one = smacof_2d(Matrix(1, 1), Matrix(1, 1), {}, rng);
  ASSERT_EQ(one.positions.size(), 1u);
  EXPECT_THROW(smacof_2d(Matrix(3, 2), Matrix(3, 3), {}, rng), std::invalid_argument);
}

TEST(Smacof, WeightedStressIgnoresMissingLinks) {
  const std::vector<Vec2> x = {{0, 0}, {3, 0}, {0, 4}};
  Matrix d(3, 3, 0.0);
  d(0, 1) = d(1, 0) = 3.0;
  d(0, 2) = d(2, 0) = 4.0;
  d(1, 2) = d(2, 1) = 99.0;  // wildly wrong but weight 0
  Matrix w = Matrix::ones(3, 3);
  w(1, 2) = w(2, 1) = 0.0;
  EXPECT_NEAR(weighted_stress(x, d, w), 0.0, 1e-12);
}


TEST(Smacof, HugeToleranceStopsAfterOneIteration) {
  uwp::Rng rng(9);
  const std::vector<Vec2> truth = random_points(6, rng);
  SmacofOptions opts;
  opts.random_restarts = 0;
  opts.tolerance_m = 1e9;
  const SmacofResult res = smacof_2d(distance_matrix(truth), Matrix::ones(6, 6), opts, rng,
                                     std::make_optional(random_points(6, rng)));
  EXPECT_EQ(res.iterations, 1);
}

// --- V^+ ---------------------------------------------------------------------

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// pseudo_inverse_symmetric of V = diag(sum_j w_ij) - W, padded to the row
// stride smacof_v_pinv uses.
std::vector<double> reference_plane(const Matrix& w) {
  const std::size_t n = w.rows();
  Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      v(i, j) = -w(i, j);
      diag += w(i, j);
    }
    v(i, i) = diag;
  }
  const Matrix pinv = pseudo_inverse_symmetric(v);
  const std::size_t np = simd::padded(n);
  std::vector<double> plane(np * np, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) plane[i * np + j] = pinv(i, j);
  return plane;
}

// A random symmetric pattern over n nodes: each link present with
// probability `density`, weight 1 or uniform in [0.2, 5]. When `connected`,
// a random spanning tree is added first.
Matrix random_pattern(std::size_t n, double density, bool weighted, bool connected,
                      uwp::Rng& rng) {
  Matrix w(n, n, 0.0);
  const auto weight = [&] { return weighted ? rng.uniform(0.2, 5.0) : 1.0; };
  for (std::size_t i = 1; connected && i < n; ++i) {
    const auto parent =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    w(i, parent) = w(parent, i) = weight();
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.uniform(0.0, 1.0) < density) w(i, j) = w(j, i) = weight();
  return w;
}

TEST(VPinv, CholeskyMatchesPseudoInverse) {
  uwp::Rng rng(21);
  SmacofWorkspace ws;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 12; ++n) sizes.push_back(n);
  sizes.push_back(24);
  for (const std::size_t n : sizes)
    for (const bool weighted : {false, true})
      for (const double density : {0.0, 0.3, 1.0}) {
        const Matrix w = random_pattern(n, density, weighted, true, rng);
        const std::vector<double> ref = reference_plane(w);
        const double* plane = smacof_v_pinv(w, ws);
        double scale = 0.0;
        for (const double x : ref) scale = std::max(scale, std::abs(x));
        for (std::size_t k = 0; k < ref.size(); ++k)
          EXPECT_LE(std::abs(plane[k] - ref[k]), 1e-12 * scale)
              << "n=" << n << " weighted=" << weighted << " density=" << density
              << " entry " << k;
      }
}

TEST(VPinv, DisconnectedPatternsEqualJacobiBitForBit) {
  uwp::Rng rng(22);
  SmacofWorkspace ws;
  for (std::size_t n = 2; n <= 12; ++n)
    for (const bool weighted : {false, true}) {
      // Two connected blocks with no link between them, or an isolated node.
      const auto cut =
          static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
      Matrix w = random_pattern(n, 0.5, weighted, true, rng);
      for (std::size_t i = 0; i < cut; ++i)
        for (std::size_t j = cut; j < n; ++j) w(i, j) = w(j, i) = 0.0;
      const std::vector<double> ref = reference_plane(w);
      const double* plane = smacof_v_pinv(w, ws);
      for (std::size_t k = 0; k < ref.size(); ++k)
        EXPECT_TRUE(bit_equal(plane[k], ref[k]))
            << "n=" << n << " cut=" << cut << " entry " << k;
    }
}

TEST(VPinv, DiagonalIsIgnored) {
  uwp::Rng rng(23);
  SmacofWorkspace ws;
  for (const bool connected : {true, false}) {
    Matrix w = random_pattern(8, connected ? 0.4 : 0.0, true, connected, rng);
    const std::size_t np = simd::padded(8);
    const std::vector<double> zero_diag(smacof_v_pinv(w, ws),
                                        smacof_v_pinv(w, ws) + np * np);
    for (std::size_t i = 0; i < 8; ++i) w(i, i) = 1.0 + static_cast<double>(i);
    const double* plane = smacof_v_pinv(w, ws);
    for (std::size_t k = 0; k < np * np; ++k)
      EXPECT_TRUE(bit_equal(plane[k], zero_diag[k])) << "connected=" << connected;
  }
}

}  // namespace
}  // namespace uwp::core
