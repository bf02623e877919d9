#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/ambiguity.hpp"
#include "core/outlier_detection.hpp"
#include "util/random.hpp"

namespace uwp::core {
namespace {

Matrix distance_matrix(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d(i, j) = distance(pts[i], pts[j]);
  return d;
}

// Runs Algorithm 1 on a fresh workspace from the given rng seed.
OutlierResult localize(const Matrix& d, const Matrix& w, const OutlierOptions& opts,
                       std::uint64_t seed) {
  uwp::Rng rng(seed);
  OutlierWorkspace ws;
  OutlierResult out;
  localize_with_outlier_detection_into(out, d, w, opts, rng, ws);
  return out;
}

TEST(Subsets, EnumerationCounts) {
  EXPECT_EQ(subsets_of_size(5, 1).size(), 5u);
  EXPECT_EQ(subsets_of_size(5, 2).size(), 10u);
  EXPECT_EQ(subsets_of_size(10, 3).size(), 120u);
  EXPECT_EQ(subsets_of_size(3, 3).size(), 1u);
  EXPECT_TRUE(subsets_of_size(2, 3).empty());
}

TEST(Subsets, ElementsAreSortedAndUnique) {
  for (const auto& s : subsets_of_size(6, 3)) {
    ASSERT_EQ(s.size(), 3u);
    EXPECT_LT(s[0], s[1]);
    EXPECT_LT(s[1], s[2]);
    EXPECT_LT(s[2], 6u);
  }
}

TEST(OutlierDetection, CleanDataPassesThrough) {
  const std::vector<Vec2> truth = {{0, 0}, {8, 1}, {3, 9}, {-6, 4}, {-2, -7}};
  const Matrix d = distance_matrix(truth);
  const OutlierResult res = localize(d, Matrix::ones(5, 5), {}, 1);
  EXPECT_FALSE(res.outliers_suspected);
  EXPECT_TRUE(res.dropped_links.empty());
  EXPECT_LT(aligned_rmse(res.positions, truth), 0.05);
}

TEST(OutlierDetection, SingleCorruptedLinkFoundAndDropped) {
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {4, 9}, {-7, 5}, {-3, -8}};
  Matrix d = distance_matrix(truth);
  // Occluded link 0-1: multipath adds ~7 m.
  d(0, 1) = d(1, 0) = d(0, 1) + 7.0;
  const OutlierResult res = localize(d, Matrix::ones(5, 5), {}, 2);
  EXPECT_TRUE(res.outliers_suspected);
  ASSERT_EQ(res.dropped_links.size(), 1u);
  EXPECT_EQ(res.dropped_links[0], (Edge{0, 1}));
  EXPECT_LT(aligned_rmse(res.positions, truth), 0.5);
  EXPECT_LT(res.normalized_stress, 1.5);
}

TEST(OutlierDetection, OutlierErrorBelowTriangleInequalityStillCaught) {
  // The paper notes occlusion errors often do NOT break the triangle
  // inequality; stress-based detection must still catch them.
  const std::vector<Vec2> truth = {{0, 0}, {12, 0}, {6, 10}, {-8, 6}, {-4, -9}};
  Matrix d = distance_matrix(truth);
  const double bumped = d(0, 1) + 4.0;  // 16 m: within 0-2-1 path (~22 m)
  d(0, 1) = d(1, 0) = bumped;
  EXPECT_LT(bumped, d(0, 2) + d(2, 1));  // triangle inequality intact
  const OutlierResult res = localize(d, Matrix::ones(5, 5), {}, 3);
  EXPECT_TRUE(res.outliers_suspected);
  ASSERT_FALSE(res.dropped_links.empty());
  EXPECT_EQ(res.dropped_links[0], (Edge{0, 1}));
}

TEST(OutlierDetection, RefusesDropsThatBreakRealizability) {
  // With only 2n-3 + 1 links, dropping the "outlier" would leave a graph
  // that is not uniquely realizable -> the drop must not be attempted even
  // if it would reduce stress.
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {5, 8}, {-5, 8}};
  Matrix d = distance_matrix(truth);
  Matrix w = Matrix::ones(4, 4);
  // K4 has 6 edges and is redundantly rigid; removing any one edge leaves a
  // Laman graph which is NOT redundantly rigid -> no drop is allowed.
  d(0, 1) = d(1, 0) = d(0, 1) + 6.0;  // corrupt one link anyway
  const OutlierResult res = localize(d, w, {}, 4);
  EXPECT_TRUE(res.outliers_suspected);
  EXPECT_TRUE(res.dropped_links.empty());
}

TEST(OutlierDetection, MaxOutlierBudgetRespected) {
  const std::vector<Vec2> truth = {{0, 0},  {12, 0}, {5, 11}, {-9, 6},
                                   {-5, -9}, {8, -7}};
  Matrix d = distance_matrix(truth);
  // Corrupt 4 links; only up to 3 may be dropped.
  d(0, 1) = d(1, 0) = d(0, 1) + 8.0;
  d(2, 3) = d(3, 2) = d(2, 3) + 7.0;
  d(4, 5) = d(5, 4) = d(4, 5) + 9.0;
  d(1, 4) = d(4, 1) = d(1, 4) + 6.0;
  OutlierOptions opts;
  opts.max_outliers = 3;
  const OutlierResult res = localize(d, Matrix::ones(6, 6), opts, 5);
  EXPECT_LE(res.dropped_links.size(), 3u);
}

TEST(Ambiguity, TranslateLeaderToOrigin) {
  std::vector<Vec2> pts = {{3, 4}, {5, 6}, {-1, 0}};
  translate_leader_to_origin_inplace(pts);
  EXPECT_DOUBLE_EQ(pts[0].x, 0.0);
  EXPECT_DOUBLE_EQ(pts[0].y, 0.0);
  EXPECT_DOUBLE_EQ(pts[1].x, 2.0);
  EXPECT_DOUBLE_EQ(pts[2].y, -4.0);
}

TEST(Ambiguity, RotationPutsNodeOneOnBearing) {
  std::vector<Vec2> pts = {{0, 0}, {5, 5}, {10, 0}};
  const double target = uwp::deg_to_rad(90.0);
  resolve_rotation_inplace(pts, target);
  EXPECT_NEAR(bearing(pts[1]), target, 1e-12);
  // Distances preserved.
  EXPECT_NEAR(distance(pts[0], pts[2]), 10.0, 1e-12);
  EXPECT_NEAR(pts[1].norm(), std::sqrt(50.0), 1e-12);
}

TEST(Ambiguity, RotationRequiresLeaderAtOrigin) {
  std::vector<Vec2> pts = {{1, 1}, {5, 5}};
  EXPECT_THROW(resolve_rotation_inplace(pts, 0.0), std::invalid_argument);
}

std::vector<Vec2> flipped(const std::vector<Vec2>& pts) {
  std::vector<Vec2> out;
  flip_configuration_into(out, pts);
  return out;
}

TEST(Ambiguity, FlipConfigurationMirrorsAcrossLeaderLine) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<Vec2> mirror = flipped(pts);
  EXPECT_NEAR(mirror[0].x, 0.0, 1e-12);
  EXPECT_NEAR(mirror[1].x, 10.0, 1e-12);  // axis nodes fixed
  EXPECT_NEAR(mirror[2].y, -3.0, 1e-12);
  EXPECT_NEAR(mirror[3].y, 4.0, 1e-12);
}

TEST(Ambiguity, VoteScoreCountsConsistentSides) {
  // Node 2 left (+1 vote with mic_sign +1), node 3 right.
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, -1}};
  EXPECT_DOUBLE_EQ(flip_vote_score(pts, votes), 2.0);
  // Mirrored configuration scores -2.
  EXPECT_DOUBLE_EQ(flip_vote_score(flipped(pts), votes), -2.0);
}

TEST(Ambiguity, VotesFlipAMirroredConfigurationBack) {
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, -1}};
  // Feed the mirrored configuration; the votes must prefer its mirror,
  // which is the truth again.
  const std::vector<Vec2> mirrored = flipped(truth);
  const std::vector<Vec2> back = flipped(mirrored);
  EXPECT_GT(flip_vote_score(back, votes), flip_vote_score(mirrored, votes));
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(back[i].x, truth[i].x, 1e-9);
    EXPECT_NEAR(back[i].y, truth[i].y, 1e-9);
  }
}

TEST(Ambiguity, MajorityVoteOverridesMinorityError) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}, {7, 6}};
  // Node 3's vote is wrong (says left, actually right); majority correct.
  const std::vector<MicVote> votes = {{2, 1}, {3, 1}, {4, 1}};
  EXPECT_GT(flip_vote_score(pts, votes), flip_vote_score(flipped(pts), votes));
}

TEST(Ambiguity, TieScoresEqually) {
  // One vote right, one wrong: the localizer keeps the original on a tie.
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, 1}};
  EXPECT_DOUBLE_EQ(flip_vote_score(pts, votes), flip_vote_score(flipped(pts), votes));
}

TEST(Ambiguity, VotesOnAxisNodesIgnored) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}};
  const std::vector<MicVote> votes = {{0, 1}, {1, -1}};  // invalid voters
  EXPECT_DOUBLE_EQ(flip_vote_score(pts, votes), 0.0);
}

}  // namespace
}  // namespace uwp::core
