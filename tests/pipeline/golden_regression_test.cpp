// Golden regression for the solver stack: proto::RangingSolver and
// core::Localizer outputs on the fixed-seed fixtures in golden_fixtures.hpp,
// captured (hexfloat) and re-pinned once when the SIMD solver kernels and
// cross-round warm starts landed; every path — the allocating wrappers, a
// cold workspace, and a warm (reused) workspace — must reproduce them bit
// for bit, on every backend (AVX2/NEON/UWP_SIMD=off share these bits: the
// kernels fix the 4-lane blocking and reduction order). Driver-level
// goldens (sim fast round, DES multi-round run) pin the pipeline adapters
// the same way.
#include "golden_fixtures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "des/scenario.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace uwp;

// --- Goldens captured pre-refactor (hexfloat, bit-exact) --------------------

const double kRangingDistances[] = {
    0x0p+0, 0x1.1fe422d4766c3p+3, 0x1.23b35fc845ab8p+3, 0x1.8e5e0a72f051p+3, 0x1.7e95c4ca03755p+3, 0x0p+0,
    0x1.1fe422d4766c3p+3, 0x0p+0, 0x1.d8ecd7f2116c4p+3, 0x1.0422d4766bf6fp+3, 0x1.41a1f58d0faccp+4, 0x1.1db6db6db6da5p+4,
    0x1.23b35fc845ab8p+3, 0x1.d8ecd7f2116c4p+3, 0x0p+0, 0x1.3a8ecd7f21159p+4, 0x1.0397829cbc156p+4, 0x1.e9406f74ae269p+4,
    0x1.8e5e0a72f051p+3, 0x1.0422d4766bf6fp+3, 0x1.3a8ecd7f21159p+4, 0x0p+0, 0x1.3335fc845a8f2p+4, 0x1.5099406f74aeep+4,
    0x1.7e95c4ca03755p+3, 0x1.41a1f58d0faccp+4, 0x1.0397829cbc156p+4, 0x1.3335fc845a8f2p+4, 0x0p+0, 0x1.351d9afe422c9p+5,
    0x0p+0, 0x1.1db6db6db6da5p+4, 0x1.e9406f74ae269p+4, 0x1.5099406f74aeep+4, 0x1.351d9afe422c9p+5, 0x0p+0,
};
const double kRangingWeights[] = {
    0, 1, 1, 1, 1, 0,
    1, 0, 1, 1, 1, 1,
    1, 1, 0, 1, 1, 1,
    1, 1, 1, 0, 1, 1,
    1, 1, 1, 1, 0, 1,
    0, 1, 1, 1, 1, 0,
};

const double kClean_xy[] = {
    0x0p+0, 0x0p+0,
    0x1.00f2a3bf9db2dp+3, 0x1.54eba61c2a111p+0,
    -0x1.a6b18691f6192p+2, 0x1.9b7bdd49980dp+2,
    0x1.68411fb2c176cp+3, 0x1.390319112e07dp+3,
    0x1.ca1a99484afb8p+1, -0x1.145155c01737ep+3,
    -0x1.1453e9cdf2082p+3, -0x1.707aef5656a61p+2,
};
const double kClean_stress = 0x1.519ee60a672edp-3;

const double kOutlier_xy[] = {
    -0x0p+0, 0x0p+0,
    0x1.ba3198d55a63bp+2, 0x1.23689f0566e54p+1,
    -0x1.653c487b3d48ap+2, 0x1.9a52b689452c8p+2,
    0x1.92242004b7246p+3, 0x1.0d0e30e923279p+3,
    0x1.1f65f73ccb55dp+2, -0x1.f69561d4389adp+2,
    -0x1.eab8ff51a1bd4p+2, -0x1.9971d4d9f7092p+2,
    0x1.c57ae153c71ccp+3, -0x1.d81f7c0331c32p+1,
};
const double kOutlier_stress = 0x1.4bfc587692109p-4;

const double kPruned_xy[] = {
    0x0p+0, 0x0p+0,
    0x1.4094d8ae4c786p+3, 0x1.04160c7b8d24p+1,
    0x1.3d95e2cd68f4dp+4, 0x1.c653092c71f04p+0,
    0x1.b378957b38371p+4, 0x1.732ce4ecf18ap-1,
    0x1.20fcfc5b6235ep+5, 0x1.fac9d8009db8p-3,
    0x1.e99dd96f247p+0, 0x1.20dd0b205694ep+3,
    0x1.33dc53768d6f1p+3, 0x1.2a0a62a924b93p+3,
    0x1.34b9f6edd6d9fp+4, 0x1.158eb33544e48p+3,
    0x1.a595461b038fep+4, 0x1.2e39e58cd5e0ap+3,
    0x1.260e1baef71bdp+5, 0x1.6b72ccc0a371ep+3,
    -0x1.4705e365fadp-2, 0x1.368aa576ca02ap+4,
    0x1.3b4ae25810762p+3, 0x1.2791d6ce8ec97p+4,
    0x1.195826d3b7fddp+4, 0x1.27f15d911ce02p+4,
    0x1.b1e497bfde80ap+4, 0x1.419332b9c0796p+4,
    0x1.23c8443eccd4p+5, 0x1.47d26789da16fp+4,
    -0x1.4fc39e94e6bfp+0, 0x1.b74e55eb2f2d9p+4,
    0x1.0b8093a1fa01p+3, 0x1.c7673237139f9p+4,
    0x1.19181573da9cfp+4, 0x1.b566b2f1dbeb6p+4,
    0x1.b07ae0526bdccp+4, 0x1.ccb4d96b0e0c4p+4,
    0x1.16bfe35349455p+5, 0x1.d4186979264dep+4,
};
const double kPruned_stress = 0x1.5f50281146254p-4;

// Driver-level goldens: sim::ScenarioRunner fast round (deployment Rng(77),
// round Rng(78)) and a 6-node 4-round DES run (Rng(55)).
const double kSimFastError2d[] = {0x0p+0, 0x1.b35c261eb4941p-2, 0x1.901e16612fa92p+0,
                                  0x1.446734d02804bp+1, 0x1.1629cfc12add4p+2};
const double kSimFastStress = 0x1.43c1135f64471p-3;
const double kSimFastD03 = 0x1.05f469ccb42c6p+4;
const double kDesErrors[] = {
    0x1.5320a5c5bb0a5p-1, 0x1.3d2fdcda7e358p-1, 0x1.a2b7771e3049bp-1,
    0x1.a778897fb42b9p-1, 0x1.fea1e2a528dc6p-1, 0x1.17c5fd7564bb2p-1,
    0x1.a2cf41f03e4f5p-2, 0x1.4fbbc5433b5f2p-1, 0x1.1b9e6d72d5f1bp-1,
    0x1.aec483f6aef27p-2, 0x1.d192a3b929c6bp+0, 0x1.503346634b4e7p+1,
    0x1.27a4f9a57316p+1,  0x1.32252bf3fa9bap+1, 0x1.8d2d6daac1bf6p+1,
    0x1.3da3ff65e8982p+1, 0x1.80e5efdc9d34bp+1, 0x1.a1cb66660d50bp+1,
    0x1.6856167c60e5cp+1, 0x1.c46e9de41eb27p+1};
const double kDesTracked[] = {
    0x1.5320a5c5bb0a5p-1, 0x1.3d2fdcda7e358p-1, 0x1.a2b7771e3049bp-1,
    0x1.a778897fb42b9p-1, 0x1.fea1e2a528dc6p-1, 0x1.0ce5be8684511p-1,
    0x1.d043e358426d1p-3, 0x1.53876bbe08e24p-1, 0x1.27ac7b86bb72ap-1,
    0x1.ae0f6bf7a4de4p-2, 0x1.721b742002d17p+0, 0x1.07a88f4273d0ap+1,
    0x1.bab0ca3601ee1p+0, 0x1.c1f453cb6adb9p+0, 0x1.43ed377a35c6ep+1,
    0x1.e5c334bcdc885p-1, 0x1.b11295038f8fep+1, 0x1.500da199dae59p+0,
    0x1.f95e68b81d278p-1, 0x1.f23f357f7b077p+1};

void expect_matrix_eq(const Matrix& m, const double* golden, std::size_t n) {
  ASSERT_EQ(m.rows(), n);
  ASSERT_EQ(m.cols(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(m(i, j), golden[i * n + j]) << "entry (" << i << ", " << j << ")";
}

void expect_positions_eq(const core::LocalizationResult& res, const double* golden_xy) {
  for (std::size_t i = 0; i < res.positions.size(); ++i) {
    EXPECT_EQ(res.positions[i].x, golden_xy[2 * i]) << "x of device " << i;
    EXPECT_EQ(res.positions[i].y, golden_xy[2 * i + 1]) << "y of device " << i;
  }
}

TEST(GoldenRanging, SolveMatchesPreRefactorCapture) {
  const proto::ProtocolRun run = golden::fixture_protocol_run();
  const proto::RangingSolver solver(golden::fixture_protocol_config());

  const proto::RangingSolution sol = solver.solve(run);
  EXPECT_EQ(sol.two_way_links, 12u);
  EXPECT_EQ(sol.one_way_links, 2u);
  expect_matrix_eq(sol.distances, kRangingDistances, 6);
  expect_matrix_eq(sol.weights, kRangingWeights, 6);

  // Warm reuse: solving twice into the same buffers changes nothing.
  proto::RangingSolution reused;
  solver.solve_into(reused, run);
  solver.solve_into(reused, run);
  EXPECT_EQ(reused.two_way_links, 12u);
  EXPECT_EQ(reused.one_way_links, 2u);
  expect_matrix_eq(reused.distances, kRangingDistances, 6);
}

struct LocalizerGoldenCase {
  core::LocalizationInput input;
  core::LocalizerOptions opts;
  const double* xy;
  double stress;
  bool flipped;
  int margin;
  bool outliers;
  std::vector<core::Edge> dropped;
};

void check_localizer_case(const LocalizerGoldenCase& c) {
  const core::Localizer loc(c.opts);
  // Cold allocating path.
  {
    Rng rng(99);
    const core::LocalizationResult res = loc.localize(c.input, rng);
    expect_positions_eq(res, c.xy);
    EXPECT_EQ(res.normalized_stress, c.stress);
    EXPECT_EQ(res.flipped, c.flipped);
    EXPECT_EQ(res.flip_vote_margin, c.margin);
    EXPECT_EQ(res.outliers_suspected, c.outliers);
    ASSERT_EQ(res.dropped_links.size(), c.dropped.size());
    for (std::size_t i = 0; i < c.dropped.size(); ++i)
      EXPECT_EQ(res.dropped_links[i], c.dropped[i]);
  }
  // Workspace path, cold then warm: identical both times.
  core::LocalizerWorkspace ws;
  core::LocalizationResult res;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(99);
    loc.localize_into(res, c.input, rng, ws);
    expect_positions_eq(res, c.xy);
    EXPECT_EQ(res.normalized_stress, c.stress) << "pass " << pass;
    EXPECT_EQ(res.flipped, c.flipped) << "pass " << pass;
    ASSERT_EQ(res.dropped_links.size(), c.dropped.size()) << "pass " << pass;
  }
}

TEST(GoldenLocalizer, CleanFullGraph) {
  check_localizer_case({golden::fixture_clean_input(), {}, kClean_xy, kClean_stress,
                        false, 4, false, {}});
}

TEST(GoldenLocalizer, ExhaustiveOutlierSearch) {
  check_localizer_case({golden::fixture_outlier_input(), {}, kOutlier_xy,
                        kOutlier_stress, false, 6, true, {{2, 3}, {2, 5}}});
}

TEST(GoldenLocalizer, PrunedWarmStartSearch) {
  check_localizer_case({golden::fixture_pruned_input(), golden::fixture_pruned_options(),
                        kPruned_xy, kPruned_stress, true, 32, true,
                        {{3, 11}, {7, 15}}});
}

// The parallel search must reduce to the exact serial result, solver
// iterations included.
void check_search_threads_case(LocalizerGoldenCase c) {
  const auto solver_iterations = [&c] {
    Rng rng(99);
    return core::Localizer(c.opts).localize(c.input, rng).solver_iterations;
  };
  const std::int64_t serial_iterations = solver_iterations();
  c.opts.outlier.search_threads = 4;
  check_localizer_case(c);
  EXPECT_EQ(solver_iterations(), serial_iterations);
}

TEST(GoldenLocalizer, PrunedSearchBitIdenticalWithSearchThreads) {
  // Twice in one process: the second pass finds the V^+ planes the first
  // computed on this thread in its memo, and the goldens must still hold.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "first pass" : "memo-warm pass");
    check_search_threads_case({golden::fixture_pruned_input(),
                               golden::fixture_pruned_options(), kPruned_xy,
                               kPruned_stress, true, 32, true, {{3, 11}, {7, 15}}});
    check_search_threads_case({golden::fixture_outlier_input(), {}, kOutlier_xy,
                               kOutlier_stress, false, 6, true, {{2, 3}, {2, 5}}});
  }
}

TEST(GoldenScenario, SimFastRoundMatchesPreRefactorCapture) {
  Rng setup(77);
  const sim::Deployment dep = sim::make_dock_testbed(setup);
  const sim::ScenarioRunner runner(dep);
  sim::RoundOptions opts;
  opts.waveform_phy = false;

  // One-shot wrapper.
  {
    Rng rng(78);
    const sim::RoundResult res = runner.run_round(opts, rng);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.ranging.two_way_links, 10u);
    EXPECT_EQ(res.ranging.one_way_links, 0u);
    ASSERT_EQ(res.error_2d.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(res.error_2d[i], kSimFastError2d[i]);
    EXPECT_EQ(res.localization.normalized_stress, kSimFastStress);
    EXPECT_EQ(res.ranging.distances(0, 3), kSimFastD03);
    EXPECT_EQ(res.ranging_errors.size(), 10u);
  }
  // Reusable context, run twice from a fresh Rng: warm workspaces must not
  // leak state between rounds.
  sim::ScenarioRoundContext ctx(runner, opts);
  sim::RoundResult res;
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(78);
    ctx.run_into(res, rng);
    ASSERT_TRUE(res.ok) << "pass " << pass;
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(res.error_2d[i], kSimFastError2d[i]) << "pass " << pass;
    EXPECT_EQ(res.localization.normalized_stress, kSimFastStress) << "pass " << pass;
  }
}

TEST(GoldenScenario, DesRunMatchesPreRefactorCapture) {
  des::DesScenarioConfig cfg;
  cfg.protocol.num_devices = 6;
  cfg.rounds = 4;
  cfg.arrival.detection_failure_prob = 0.02;
  std::vector<Vec3> origins = {{0, 0, 1},   {9, 2, 2},   {-5, 7, 1.5},
                               {11, -6, 3}, {-8, -9, 2}, {6, 14, 1}};
  auto mob = std::make_shared<des::LawnmowerMobility>(origins);
  des::LawnmowerTrack track;
  track.direction = {0.0, 1.0, 0.0};
  track.span_m = 5.0;
  track.speed_mps = 0.35;
  mob->set_track(2, track);
  std::vector<audio::AudioTimingConfig> audio(6);
  for (std::size_t i = 0; i < 6; ++i) {
    audio[i].speaker_start_s = 0.17 * static_cast<double>(i);
    audio[i].mic_start_s = 0.06 + 0.11 * static_cast<double>(i);
    audio[i].speaker_skew_ppm = (i % 2 ? 1.0 : -1.0) * static_cast<double>(i);
  }
  Matrix conn(6, 6, 1.0);
  for (std::size_t i = 0; i < 6; ++i) conn(i, i) = 0.0;
  const des::DesScenario scenario(cfg, mob, std::move(audio), std::move(conn));

  Rng rng(55);
  const des::DesScenarioResult res = scenario.run(rng);
  EXPECT_EQ(res.localized_rounds, 4u);
  EXPECT_EQ(res.total_deliveries, 120u);
  ASSERT_EQ(res.errors.size(), 20u);
  ASSERT_EQ(res.tracked_errors.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(res.errors[i], kDesErrors[i]) << "error " << i;
    EXPECT_EQ(res.tracked_errors[i], kDesTracked[i]) << "tracked " << i;
  }
}

// The workspace-reusing sweep path (per-worker ScenarioRoundContext through
// pipeline::RoundPipeline) must stay bit-identical between the serial
// reference and any thread count.
TEST(GoldenSweep, PipelineSweepBitIdenticalAcrossThreadCounts) {
  Rng setup(12);
  const sim::Deployment dep = sim::make_dock_testbed(setup);
  const sim::ScenarioRunner runner(dep);
  sim::RoundOptions opts;
  opts.waveform_phy = false;

  const auto sweep_with = [&](std::size_t threads) {
    sim::SweepOptions so;
    so.trials = 48;
    so.master_seed = 4242;
    so.threads = threads;
    return sim::SweepRunner(so).run(
        [&]() { return std::make_shared<sim::ScenarioRoundContext>(runner, opts); },
        [](std::size_t, Rng& rng, void* ctx) {
          auto* context = static_cast<sim::ScenarioRoundContext*>(ctx);
          sim::RoundResult res;
          context->run_into(res, rng);
          return res.error_2d;
        });
  };

  const sim::SweepResult serial = sweep_with(1);
  const sim::SweepResult parallel = sweep_with(4);
  EXPECT_EQ(serial.threads_used, 1u);
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i)
    EXPECT_EQ(serial.samples[i], parallel.samples[i]) << i;  // bitwise
}

}  // namespace
