#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>

#include "util/random.hpp"
#include "util/stats.hpp"

// Counting global allocator: the steady-state tracker must not allocate.
namespace {
bool g_count_allocs = false;
long g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace uwp::core {
namespace {

TEST(DiverTrack, FirstMeasurementInitializes) {
  DiverTrack track;
  EXPECT_FALSE(track.initialized());
  EXPECT_TRUE(track.update({3.0, -2.0}));
  EXPECT_TRUE(track.initialized());
  EXPECT_NEAR(track.position().x, 3.0, 1e-12);
  EXPECT_NEAR(track.position().y, -2.0, 1e-12);
  EXPECT_NEAR(track.speed(), 0.0, 1e-12);
}

TEST(DiverTrack, PredictBeforeInitIsNoop) {
  DiverTrack track;
  track.predict(5.0);
  EXPECT_FALSE(track.initialized());
}

TEST(DiverTrack, SmoothsNoisyStationaryMeasurements) {
  TrackerConfig cfg;
  cfg.measurement_sigma_m = 0.9;
  DiverTrack track(cfg);
  uwp::Rng rng(1);
  const Vec2 truth{10.0, 5.0};
  std::vector<double> raw_err, filt_err;
  for (int round = 0; round < 150; ++round) {
    track.predict(5.0);
    const Vec2 measured{truth.x + rng.normal(0.0, 0.9), truth.y + rng.normal(0.0, 0.9)};
    raw_err.push_back(distance(measured, truth));
    track.update(measured);
    if (round >= 10) filt_err.push_back(distance(track.position(), truth));
  }
  // The filter should clearly beat the raw per-round noise (steady-state
  // ratio ~0.7 at the default process noise).
  EXPECT_LT(uwp::mean(filt_err), 0.8 * uwp::mean(raw_err));
}

TEST(DiverTrack, TracksConstantVelocitySwimmer) {
  DiverTrack track;
  uwp::Rng rng(2);
  const Vec2 v{0.4, 0.2};  // 45 cm/s, the paper's mobility range
  for (int round = 0; round < 30; ++round) {
    const double t = 5.0 * round;
    track.predict(round == 0 ? 0.0 : 5.0);
    track.update({v.x * t + rng.normal(0.0, 0.5), v.y * t + rng.normal(0.0, 0.5)});
  }
  EXPECT_NEAR(track.velocity().x, v.x, 0.15);
  EXPECT_NEAR(track.velocity().y, v.y, 0.15);
  // Coasting prediction stays close for one missed round.
  const Vec2 before = track.position();
  track.predict(5.0);
  const Vec2 coasted = track.position();
  EXPECT_NEAR(distance(coasted, before), 5.0 * v.norm(), 0.8);
}

TEST(DiverTrack, GateRejectsWildOutlier) {
  DiverTrack track;
  for (int i = 0; i < 10; ++i) {
    track.predict(5.0);
    track.update({5.0, 5.0});
  }
  const Vec2 before = track.position();
  EXPECT_FALSE(track.update({500.0, -300.0}));  // a broken round
  EXPECT_NEAR(distance(track.position(), before), 0.0, 1e-9);
  // A sane follow-up is accepted.
  EXPECT_TRUE(track.update({5.2, 4.9}));
}

TEST(DiverTrack, UncertaintyGrowsWhileCoasting) {
  DiverTrack track;
  track.update({0.0, 0.0});
  track.predict(5.0);
  track.update({0.1, 0.0});
  const double sigma_fresh = track.position_sigma();
  for (int i = 0; i < 12; ++i) track.predict(5.0);
  EXPECT_GT(track.position_sigma(), 2.0 * sigma_fresh);
}

TEST(DiverTrack, VelocityDecaysWithoutUpdates) {
  TrackerConfig cfg;
  cfg.velocity_decay_tau_s = 10.0;
  DiverTrack track(cfg);
  track.update({0, 0});
  track.predict(5.0);
  track.update({2.5, 0.0});  // implies ~0.5 m/s
  const double v0 = track.speed();
  ASSERT_GT(v0, 0.1);
  for (int i = 0; i < 10; ++i) track.predict(5.0);
  EXPECT_LT(track.speed(), 0.05 * v0 + 1e-3);
}

TEST(DiverTrack, WarmPredictAndUpdateAllocateNothing) {
  DiverTrack track;
  track.update({0.0, 0.0});
  track.predict(5.0);
  track.update({0.4, 0.2});  // warm: every scratch buffer has its shape
  uwp::Rng rng(3);
  g_allocs = 0;
  g_count_allocs = true;
  for (int round = 0; round < 100; ++round) {
    track.predict(5.0);
    track.update({0.1 * round + rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)});
  }
  g_count_allocs = false;
  EXPECT_EQ(g_allocs, 0);
  EXPECT_TRUE(track.initialized());
}

TEST(GroupTracker, PerDeviceIndependence) {
  GroupTracker group(4);
  std::vector<std::optional<Vec2>> round(4);
  round[1] = Vec2{1.0, 0.0};
  round[3] = Vec2{-2.0, 4.0};  // device 2 missing this round
  group.update(round);
  EXPECT_TRUE(group.track(1).initialized());
  EXPECT_FALSE(group.track(2).initialized());
  EXPECT_TRUE(group.track(3).initialized());
  EXPECT_NEAR(group.track(3).position().y, 4.0, 1e-12);
}

TEST(GroupTracker, Validation) {
  EXPECT_THROW(GroupTracker(1), std::invalid_argument);
  GroupTracker group(3);
  EXPECT_THROW(group.track(0), std::invalid_argument);
  EXPECT_THROW(group.track(3), std::invalid_argument);
}

}  // namespace
}  // namespace uwp::core
