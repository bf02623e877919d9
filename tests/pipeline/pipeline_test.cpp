// Behavior tests for the pipeline layer: the MeasurementModel front-ends,
// RoundPipeline's chain, and the shared ArrivalErrorModel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "fleet/wire.hpp"
#include "pipeline/arrival_error.hpp"
#include "pipeline/closed_form.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/deployment.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace uwp;
using namespace uwp::pipeline;

ClosedFormScene test_scene(std::size_t n = 5) {
  ClosedFormScene scene;
  Rng place(7);
  scene.positions.push_back({0, 0, 1.5});
  scene.positions.push_back({8, 1, 2.0});
  for (std::size_t i = 2; i < n; ++i)
    scene.positions.push_back(
        {place.uniform(-15, 15), place.uniform(-15, 15), place.uniform(1, 4)});
  scene.connectivity = Matrix(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) scene.connectivity(i, i) = 0.0;
  scene.audio.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scene.audio[i].speaker_start_s = 0.13 * static_cast<double>(i);
    scene.audio[i].mic_start_s = 0.05 + 0.09 * static_cast<double>(i);
  }
  scene.protocol.num_devices = n;
  return scene;
}

PipelineOptions test_options(const ClosedFormScene& scene) {
  PipelineOptions opts;
  opts.protocol = scene.protocol;
  return opts;
}

TEST(ArrivalErrorModel, FailureAndDeterminism) {
  ArrivalErrorModel model;
  model.detection_failure_prob = 1.0;
  Rng rng(1);
  EXPECT_TRUE(std::isnan(model.sample_seconds(20.0, 1500.0, rng)));

  model.detection_failure_prob = 0.0;
  Rng a(2), b(2);
  const double ea = model.sample_seconds(20.0, 1500.0, a);
  const double eb = model.sample_seconds(20.0, 1500.0, b);
  EXPECT_TRUE(std::isfinite(ea));
  EXPECT_EQ(ea, eb);  // same stream, same draw

  // Sigma grows with range: far links are noisier on average.
  Rng c(3);
  double near_acc = 0.0, far_acc = 0.0;
  for (int i = 0; i < 2000; ++i) near_acc += std::abs(model.sample_seconds(1.0, 1500.0, c));
  for (int i = 0; i < 2000; ++i) far_acc += std::abs(model.sample_seconds(500.0, 1500.0, c));
  EXPECT_GT(far_acc, near_acc);
}

TEST(FastMeasurementModel, ProducesCompleteMeasurement) {
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  FastMeasurementModel model(test_scene(), arrival);
  RoundMeasurement m;
  Rng rng(11);
  model.measure(m, rng);

  const std::size_t n = model.size();
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(m.depths.size(), n);
  EXPECT_EQ(m.truth_xy.size(), n);
  EXPECT_EQ(m.truth_pos.size(), n);
  // Leader-origin frame.
  EXPECT_EQ(m.truth_xy[0].x, 0.0);
  EXPECT_EQ(m.truth_xy[0].y, 0.0);
  // Full connectivity, no failures: everyone heard everyone.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_GT(m.protocol.heard(i, j), 0.0) << i << "," << j;
  // Votes come from divers 2..n-1 only.
  for (const core::MicVote& v : m.votes) EXPECT_GE(v.node, 2u);
}

TEST(FastMeasurementModel, MovingADeviceUpdatesTruthAndProtocol) {
  FastMeasurementModel model(test_scene(), {});
  RoundMeasurement m;
  Rng rng(12);
  model.measure(m, rng);
  const Vec2 before = m.truth_xy[2];

  model.positions()[2] = model.positions()[2] + Vec3{5.0, 0.0, 0.0};
  model.measure(m, rng);
  EXPECT_NEAR(m.truth_xy[2].x - before.x, 5.0, 1e-12);
}

TEST(RoundPipeline, RunRoundLocalizesCleanMeasurement) {
  const ClosedFormScene scene = test_scene();
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  arrival.sigma_m = 0.1;
  FastMeasurementModel model(scene, arrival);
  RoundPipeline pipe(test_options(scene));

  RoundMeasurement m;
  Rng rng(21);
  model.measure(m, rng);
  const RoundOutput& out = pipe.run_round(m, rng);
  ASSERT_TRUE(out.localized);
  EXPECT_EQ(out.error_2d.size(), 5u);
  EXPECT_EQ(out.error_2d[0], 0.0);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_TRUE(std::isfinite(out.error_2d[i]));
    EXPECT_LT(out.error_2d[i], 10.0);
  }
  // The exposed localizer input mirrors the solved ranging data.
  EXPECT_LT(out.localizer_input.distances.max_abs_diff(out.ranging.distances), 1e-12);
  EXPECT_LT(out.localizer_input.weights.max_abs_diff(out.ranging.weights), 1e-12);
  // Ranging diagnostics cover every measured link.
  std::size_t measured = 0;
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j)
      if (out.ranging.weights(i, j) > 0.0) ++measured;
  EXPECT_EQ(out.ranging_errors.size(), measured);
  // Tracking is off by default: no tracked errors.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(std::isnan(out.tracked_error_2d[i]));
}

TEST(RoundPipeline, TrackingFusesRoundsAndCoasts) {
  const ClosedFormScene scene = test_scene();
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  FastMeasurementModel model(scene, arrival);
  PipelineOptions opts = test_options(scene);
  opts.track = true;
  RoundPipeline pipe(opts);

  RoundMeasurement m;
  Rng rng(31);
  for (int r = 0; r < 3; ++r) {
    model.measure(m, rng);
    pipe.run_round(m, rng, r == 0 ? 0.0 : 5.0);
  }
  ASSERT_TRUE(pipe.tracker().track(2).initialized());
  const double sigma_before = pipe.tracker().track(2).position_sigma();
  pipe.coast(30.0);
  EXPECT_GT(pipe.tracker().track(2).position_sigma(), sigma_before);

  pipe.reset();
  EXPECT_FALSE(pipe.tracker().track(2).initialized());
}

// A finite but absurd dt (1e200 s) overflows the tracker's motion model.
// The track must restart instead of gating and warm-starting from inf/NaN:
// every localized round keeps finite errors and stress, and later rounds
// cost what the same rounds cost in a clean session.
TEST(RoundPipeline, HugeDtResetsTheTrackInsteadOfPoisoningIt) {
  const ClosedFormScene scene = test_scene(7);
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  PipelineOptions opts = test_options(scene);
  opts.track = true;
  constexpr int kRounds = 8;
  constexpr int kHostile = 3;

  const auto run = [&](double hostile_dt, std::vector<std::int64_t>& iterations) {
    FastMeasurementModel model(scene, arrival);
    RoundPipeline pipe(opts);
    RoundMeasurement m;
    Rng meas_rng(41), solve_rng(43);
    for (int r = 0; r < kRounds; ++r) {
      model.measure(m, meas_rng);
      const double dt = r == 0 ? 0.0 : (r == kHostile ? hostile_dt : 5.0);
      const RoundOutput& out = pipe.run_round(m, solve_rng, dt);
      ASSERT_TRUE(out.localized) << "round " << r;
      EXPECT_TRUE(std::isfinite(out.localization.normalized_stress)) << "round " << r;
      for (std::size_t i = 0; i < scene.protocol.num_devices; ++i) {
        EXPECT_TRUE(std::isfinite(out.error_2d[i])) << "round " << r << " device " << i;
        EXPECT_TRUE(std::isfinite(out.tracked_error_2d[i]) || i == 0)
            << "round " << r << " device " << i;
      }
      iterations.push_back(out.localization.solver_iterations);
    }
  };
  std::vector<std::int64_t> clean, hostile;
  run(5.0, clean);
  run(1e200, hostile);
  ASSERT_EQ(hostile.size(), clean.size());
  const std::int64_t cold = clean[0];  // round 0 seeds from cold classical MDS
  for (int r = 0; r < kRounds; ++r)
    EXPECT_LE(hostile[r], std::max(clean[r], cold) * 2) << "round " << r;
}

// A NaN depth makes every projected distance of its device NaN. The round
// must end localized=false with no positions, the tracker must coast
// through it, and the next clean round localizes again.
// A NaN or inf depth, as it arrives off the wire, fails its round: no
// projected distance reads as a clamped 0 m.
TEST(RoundPipeline, NonFiniteDistanceFailsTheRoundAndTheTrackerCoasts) {
  const ClosedFormScene scene = test_scene(8);
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  PipelineOptions opts = test_options(scene);
  opts.track = true;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double depth : {std::nan(""), inf, -inf}) {
    SCOPED_TRACE(depth);
    FastMeasurementModel model(scene, arrival);
    RoundPipeline pipe(opts);
    RoundMeasurement m;
    Rng rng(51);
    model.measure(m, rng);
    ASSERT_TRUE(pipe.run_round(m, rng).localized);
    const Vec2 before = pipe.tracker().track(3).position();

    model.measure(m, rng);
    m.depths[3] = depth;
    std::vector<std::uint8_t> bytes;
    fleet::encode_measurement(m, bytes);
    std::size_t pos = 0;
    fleet::decode_measurement(bytes, pos, m);
    const RoundOutput& bad = pipe.run_round(m, rng, 1.0);
    EXPECT_FALSE(bad.localized);
    for (std::size_t i = 1; i < 8; ++i) EXPECT_TRUE(std::isnan(bad.error_2d[i]));
    // Coasting: the track moved only by its motion model, and stays finite.
    const Vec2 coasted = pipe.tracker().track(3).position();
    EXPECT_TRUE(std::isfinite(coasted.x) && std::isfinite(coasted.y));
    EXPECT_LT(distance(coasted, before), 1.0);

    model.measure(m, rng);
    const RoundOutput& next = pipe.run_round(m, rng, 1.0);
    ASSERT_TRUE(next.localized);
    for (std::size_t i = 1; i < 8; ++i) EXPECT_LT(next.error_2d[i], 10.0);
  }
}

// Every result of a round as bits, so NaN entries compare equal too.
std::vector<std::uint64_t> output_bits(const RoundOutput& out) {
  std::vector<std::uint64_t> bits = {
      out.localized, static_cast<std::uint64_t>(out.localization.solver_iterations),
      out.localization.dropped_links.size()};
  const auto add = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
  for (const double v : out.ranging.distances.data()) add(v);
  for (const double v : out.ranging.weights.data()) add(v);
  for (const Vec3& p : out.localization.positions) {
    add(p.x);
    add(p.y);
    add(p.z);
  }
  add(out.localization.normalized_stress);
  for (const double v : out.error_2d) add(v);
  for (const double v : out.tracked_error_2d) add(v);
  return bits;
}

// An inf timestamp is a missing one, exactly like the NaN of a failed
// detection: the round is bit-identical either way, and the bad slot costs
// its two-way link, not the round.
TEST(RoundPipeline, InfTimestampIsMissingLikeNaN) {
  const ClosedFormScene scene = test_scene(8);
  ArrivalErrorModel arrival;
  arrival.detection_failure_prob = 0.0;
  PipelineOptions opts = test_options(scene);
  opts.track = true;
  const auto run = [&](double bad) {
    FastMeasurementModel model(scene, arrival);
    RoundPipeline pipe(opts);
    RoundMeasurement m;
    Rng rng(51);
    model.measure(m, rng);
    pipe.run_round(m, rng);
    model.measure(m, rng);
    m.protocol.timestamps(3, 6) = bad;
    return pipe.run_round(m, rng, 1.0);
  };
  const RoundOutput inf = run(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(inf.localized);
  EXPECT_EQ(inf.ranging.two_way_links, 27u);
  EXPECT_EQ(output_bits(inf), output_bits(run(std::nan(""))));
}

// The waveform front-end and the one-shot ScenarioRunner wrapper agree
// bitwise: the adapter rewire did not change the waveform path either.
TEST(WaveformModel, ContextMatchesRunRound) {
  Rng setup(51);
  const sim::Deployment dep = sim::make_dock_testbed(setup);
  const sim::ScenarioRunner runner(dep);
  sim::RoundOptions opts;
  opts.waveform_phy = true;

  Rng rng_a(52);
  const sim::RoundResult a = runner.run_round(opts, rng_a);

  sim::ScenarioRoundContext ctx(runner, opts);
  Rng rng_b(52);
  const sim::RoundResult b = ctx.run(rng_b);

  ASSERT_EQ(a.ok, b.ok);
  ASSERT_EQ(a.error_2d.size(), b.error_2d.size());
  for (std::size_t i = 0; i < a.error_2d.size(); ++i)
    EXPECT_EQ(a.error_2d[i], b.error_2d[i]) << i;
  EXPECT_EQ(a.localization.normalized_stress, b.localization.normalized_stress);
}

}  // namespace
