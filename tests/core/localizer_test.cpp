#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/projection.hpp"
#include "util/random.hpp"

namespace uwp::core {
namespace {

struct Truth {
  std::vector<Vec3> positions;  // leader at origin
};

// Build exact measurement input from ground-truth 3D positions.
LocalizationInput exact_input(const Truth& t) {
  const std::size_t n = t.positions.size();
  LocalizationInput in;
  in.distances = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      in.distances(i, j) = distance(t.positions[i], t.positions[j]);
  in.weights = Matrix::ones(n, n);
  in.depths.resize(n);
  for (std::size_t i = 0; i < n; ++i) in.depths[i] = t.positions[i].z;
  in.pointing_bearing_rad = bearing(t.positions[1].xy());
  // Perfect votes from the true geometry.
  for (std::size_t i = 2; i < n; ++i) {
    const double side =
        side_of_line(t.positions[i].xy(), {0, 0}, t.positions[1].xy());
    in.votes.push_back({i, side > 0 ? 1 : -1});
  }
  return in;
}

Truth five_device_truth() {
  return {{{0, 0, 1.5},
           {8, 2, 2.0},
           {3, 11, 1.0},
           {-7, 6, 2.5},
           {-4, -9, 3.0}}};
}

TEST(Projection, RoundTripWithDepths) {
  const Truth t = five_device_truth();
  const std::size_t n = t.positions.size();
  Matrix d3(n, n);
  std::vector<double> depths(n);
  for (std::size_t i = 0; i < n; ++i) depths[i] = t.positions[i].z;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d3(i, j) = distance(t.positions[i], t.positions[j]);
  const Matrix d2 = project_to_2d(d3, depths);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(d2(i, j), distance(t.positions[i].xy(), t.positions[j].xy()), 1e-9);
  const Matrix lifted = lift_to_3d(d2, depths);
  EXPECT_LT(lifted.max_abs_diff(d3), 1e-9);
}

TEST(Projection, NegativeRadicandClampsToZero) {
  Matrix d3(2, 2, 0.0);
  d3(0, 1) = d3(1, 0) = 1.0;
  const std::vector<double> depths = {0.0, 5.0};  // depth gap > distance
  const Matrix d2 = project_to_2d(d3, depths);
  EXPECT_DOUBLE_EQ(d2(0, 1), 0.0);
}

TEST(Projection, ShapeValidation) {
  EXPECT_THROW(project_to_2d(Matrix(3, 2), std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(project_to_2d(Matrix(3, 3), std::vector<double>(2, 0.0)),
               std::invalid_argument);
}

TEST(Localizer, ExactInputExactOutput) {
  const Truth t = five_device_truth();
  uwp::Rng rng(1);
  const Localizer loc;
  const LocalizationResult res = loc.localize(exact_input(t), rng);
  ASSERT_EQ(res.positions.size(), 5u);
  // Leader at the origin.
  EXPECT_NEAR(res.positions[0].x, 0.0, 1e-9);
  EXPECT_NEAR(res.positions[0].y, 0.0, 1e-9);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(res.positions[i].x, t.positions[i].x, 0.05) << "node " << i;
    EXPECT_NEAR(res.positions[i].y, t.positions[i].y, 0.05) << "node " << i;
    EXPECT_DOUBLE_EQ(res.positions[i].z, t.positions[i].z);
  }
  EXPECT_FALSE(res.outliers_suspected);
}

TEST(Localizer, NoisyInputBoundedError) {
  const Truth t = five_device_truth();
  uwp::Rng rng(2);
  LocalizationInput in = exact_input(t);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j) {
      in.distances(i, j) = std::max(0.5, in.distances(i, j) + rng.symmetric(0.8));
      in.distances(j, i) = in.distances(i, j);
    }
  for (double& h : in.depths) h += rng.symmetric(0.4);
  const Localizer loc;
  const LocalizationResult res = loc.localize(in, rng);
  for (std::size_t i = 1; i < 5; ++i) {
    const double err = distance(res.positions[i].xy(), t.positions[i].xy());
    EXPECT_LT(err, 3.0) << "node " << i;
  }
}

TEST(Localizer, MissingLinkHandled) {
  const Truth t = five_device_truth();
  uwp::Rng rng(3);
  LocalizationInput in = exact_input(t);
  in.weights(2, 4) = in.weights(4, 2) = 0.0;  // one link lost
  const Localizer loc;
  const LocalizationResult res = loc.localize(in, rng);
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_LT(distance(res.positions[i].xy(), t.positions[i].xy()), 0.5);
}

TEST(Localizer, OccludedLinkRecoveredByOutlierDetection) {
  const Truth t = five_device_truth();
  uwp::Rng rng(4);
  LocalizationInput in = exact_input(t);
  in.distances(0, 1) += 6.0;
  in.distances(1, 0) = in.distances(0, 1);
  const Localizer loc;
  const LocalizationResult res = loc.localize(in, rng);
  EXPECT_TRUE(res.outliers_suspected);
  ASSERT_FALSE(res.dropped_links.empty());
  EXPECT_EQ(res.dropped_links[0], (Edge{0, 1}));
  for (std::size_t i = 1; i < 5; ++i)
    EXPECT_LT(distance(res.positions[i].xy(), t.positions[i].xy()), 1.0);
}

TEST(Localizer, WrongFlipWithInvertedVotes) {
  // All votes inverted: the result should be the mirror image.
  const Truth t = five_device_truth();
  uwp::Rng rng(5);
  LocalizationInput in = exact_input(t);
  for (MicVote& v : in.votes) v.mic_sign = -v.mic_sign;
  const Localizer loc;
  const LocalizationResult res = loc.localize(in, rng);
  // Node 2 ends up on the wrong side of the leader->1 line.
  const double true_side = side_of_line(t.positions[2].xy(), {0, 0}, t.positions[1].xy());
  const double est_side =
      side_of_line(res.positions[2].xy(), {0, 0}, res.positions[1].xy());
  EXPECT_LT(true_side * est_side, 0.0);
}

TEST(Localizer, PointingErrorRotatesResult) {
  const Truth t = five_device_truth();
  uwp::Rng rng(6);
  LocalizationInput in = exact_input(t);
  const double eps = uwp::deg_to_rad(10.0);
  in.pointing_bearing_rad += eps;
  const Localizer loc;
  const LocalizationResult res = loc.localize(in, rng);
  // Node 1 sits exactly on the (wrong) pointed bearing; its error is
  // approximately |P1| * eps.
  const double expected = t.positions[1].xy().norm() * eps;
  const double err = distance(res.positions[1].xy(), t.positions[1].xy());
  EXPECT_NEAR(err, expected, 0.3);
}

TEST(Localizer, InputValidation) {
  uwp::Rng rng(7);
  const Localizer loc;
  LocalizationInput in;
  in.distances = Matrix(1, 1);
  in.weights = Matrix(1, 1);
  in.depths = {0.0};
  EXPECT_THROW(loc.localize(in, rng), std::invalid_argument);

  in.distances = Matrix(3, 3);
  in.weights = Matrix(3, 3);
  in.depths = {0.0, 1.0};  // wrong length
  EXPECT_THROW(loc.localize(in, rng), std::invalid_argument);

  in.distances = Matrix(kMaxDevices + 1, kMaxDevices + 1);
  in.weights = Matrix(kMaxDevices + 1, kMaxDevices + 1);
  in.depths.assign(kMaxDevices + 1, 0.0);
  EXPECT_THROW(loc.localize(in, rng), std::invalid_argument);
}

TEST(Localizer, ThreeDeviceMinimumGroup) {
  // §5: the approach needs >= 3 divers; with exactly 3 (triangle) it works.
  uwp::Rng rng(8);
  Truth t;
  t.positions = {{0, 0, 1.0}, {6, 1, 2.0}, {2, 7, 1.5}};
  const Localizer loc;
  const LocalizationResult res = loc.localize(exact_input(t), rng);
  for (std::size_t i = 1; i < 3; ++i)
    EXPECT_LT(distance(res.positions[i].xy(), t.positions[i].xy()), 0.1);
}

// One NaN or inf distance in an 8-device full-link round used to send every
// solve to the iteration cap (3,683 solves, ~1.8M iterations). Now each of
// the base solve's three starts stops after one iteration, no candidate is
// searched, and the Localizer fails the round instead of reporting NaNs.
TEST(Localizer, NonFiniteDistanceCostsOneIterationPerStartAndFails) {
  Truth t;
  uwp::Rng place(9);
  t.positions.push_back({0, 0, 1.5});
  for (int i = 1; i < 8; ++i)
    t.positions.push_back({place.uniform(-15, 15), place.uniform(-15, 15), 2.0});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    LocalizationInput in = exact_input(t);
    in.distances(3, 6) = in.distances(6, 3) = bad;
    const Matrix d2 = project_to_2d(in.distances, in.depths);
    const OutlierOptions opts;
    OutlierWorkspace ws;
    OutlierResult out;
    uwp::Rng rng(10);
    localize_with_outlier_detection_into(out, d2, in.weights, opts, rng, ws);
    EXPECT_LE(out.iterations, 1 + opts.smacof.random_restarts) << bad;
    EXPECT_FALSE(std::isfinite(out.normalized_stress)) << bad;
    EXPECT_TRUE(out.dropped_links.empty()) << bad;
    EXPECT_THROW(Localizer().localize(in, rng), std::domain_error) << bad;
  }
}

}  // namespace
}  // namespace uwp::core
