#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
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


// --- per-thread V^+ memo ----------------------------------------------------

// Runs `f` on a fresh thread, whose V^+ memo starts empty.
template <class F>
void on_cold_thread(F f) {
  std::thread t(f);
  t.join();
}

// K8 with links {0-3, 2-5, 6-7} dropped: a candidate pattern of Algorithm 1.
Matrix k8_minus_three() {
  Matrix w = Matrix::ones(8, 8);
  for (std::size_t i = 0; i < 8; ++i) w(i, i) = 0.0;
  for (const auto& [a, b] : {std::pair{0, 3}, std::pair{2, 5}, std::pair{6, 7}})
    w(a, b) = w(b, a) = 0.0;
  return w;
}

bool bit_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_bit_identical(const SmacofResult& a, const SmacofResult& b) {
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_TRUE(bit_equal(a.positions[i].x, b.positions[i].x)) << "node " << i;
    EXPECT_TRUE(bit_equal(a.positions[i].y, b.positions[i].y)) << "node " << i;
  }
  EXPECT_TRUE(bit_equal(a.stress, b.stress));
  EXPECT_EQ(a.iterations, b.iterations);
}

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

void expect_plane_is_reference(const double* plane, const Matrix& w) {
  const std::vector<double> ref = reference_plane(w);
  for (std::size_t k = 0; k < ref.size(); ++k)
    EXPECT_TRUE(bit_equal(plane[k], ref[k])) << "entry " << k;
}

TEST(VPinvMemo, ColdAndWarmThreadsSolveBitIdentically) {
  uwp::Rng prng(21);
  const Matrix d = distance_matrix(random_points(8, prng));
  const Matrix w = k8_minus_three();
  const auto solve = [&] {
    uwp::Rng rng(22);
    return smacof_2d(d, w, {}, rng);
  };
  SmacofResult cold;
  on_cold_thread([&] {
    cold = solve();
    const VPinvMemoStats st = v_pinv_memo_stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 0u);
  });
  on_cold_thread([&] {
    solve();
    const SmacofResult warm = solve();
    const VPinvMemoStats st = v_pinv_memo_stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    expect_bit_identical(cold, warm);
  });
}

TEST(VPinvMemo, EvictedPatternRecomputesIdentically) {
  uwp::Rng prng(23);
  const Matrix d = distance_matrix(random_points(8, prng));
  const Matrix first = k8_minus_three();
  on_cold_thread([&] {
    uwp::Rng rng(24);
    const SmacofResult before = smacof_2d(d, first, {}, rng);
    // Every K8-minus-4 pattern: 20,475 distinct keys, far past the 8,192
    // slots, so the first pattern's set overflows and LRU evicts it.
    SmacofWorkspace ws;
    Matrix w = Matrix::ones(8, 8);
    std::vector<std::pair<std::size_t, std::size_t>> links;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = i + 1; j < 8; ++j) links.emplace_back(i, j);
    std::size_t filled = 0;
    for (std::size_t a = 0; a < links.size(); ++a)
      for (std::size_t b = a + 1; b < links.size(); ++b)
        for (std::size_t c = b + 1; c < links.size(); ++c)
          for (std::size_t e = c + 1; e < links.size(); ++e) {
            for (const std::size_t l : {a, b, c, e})
              w(links[l].first, links[l].second) = w(links[l].second, links[l].first) = 0.0;
            smacof_v_pinv(w, ws);
            ++filled;
            for (const std::size_t l : {a, b, c, e})
              w(links[l].first, links[l].second) = w(links[l].second, links[l].first) = 1.0;
          }
    EXPECT_EQ(filled, 20475u);
    const VPinvMemoStats filled_stats = v_pinv_memo_stats();
    EXPECT_EQ(filled_stats.misses, 1u + filled);

    uwp::Rng rng_again(24);
    const SmacofResult after = smacof_2d(d, first, {}, rng_again);
    EXPECT_EQ(v_pinv_memo_stats().misses, filled_stats.misses + 1) << "not evicted";
    expect_bit_identical(before, after);
    expect_plane_is_reference(smacof_v_pinv(first, ws), first);
  });
}

TEST(VPinvMemo, DiagonalIsIgnored) {
  const Matrix zero_diag = k8_minus_three();
  Matrix one_diag = zero_diag;
  for (std::size_t i = 0; i < 8; ++i) one_diag(i, i) = 1.0;
  on_cold_thread([&] {
    SmacofWorkspace ws;
    smacof_v_pinv(zero_diag, ws);
    const double* plane = smacof_v_pinv(one_diag, ws);
    const VPinvMemoStats st = v_pinv_memo_stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    expect_plane_is_reference(plane, one_diag);
    // Matrix::ones, the fully connected round, is keyed too.
    smacof_v_pinv(Matrix::ones(5, 5), ws);
    plane = smacof_v_pinv(Matrix::ones(5, 5), ws);
    EXPECT_EQ(v_pinv_memo_stats().hits, 2u);
    expect_plane_is_reference(plane, Matrix::ones(5, 5));
  });
}

TEST(VPinvMemo, UnkeyedWeightsTakeTheUncachedPath) {
  Matrix half = k8_minus_three();
  half(1, 4) = half(4, 1) = 0.5;
  Matrix negative_zero = k8_minus_three();
  negative_zero(0, 3) = negative_zero(3, 0) = -0.0;
  Matrix asymmetric = k8_minus_three();
  asymmetric(0, 3) = 1.0;
  Matrix nine = Matrix::ones(9, 9);
  nine(2, 7) = nine(7, 2) = 0.0;
  on_cold_thread([&] {
    SmacofWorkspace ws;
    std::uint64_t calls = 0;
    for (const Matrix* w : {&half, &negative_zero, &asymmetric, &nine}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        expect_plane_is_reference(smacof_v_pinv(*w, ws), *w);
        ++calls;
      }
    }
    const VPinvMemoStats st = v_pinv_memo_stats();
    EXPECT_EQ(st.uncached, calls);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);
  });
}

}  // namespace
}  // namespace uwp::core
