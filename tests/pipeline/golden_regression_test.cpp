// Golden regression for the solver stack: proto::RangingSolver and
// core::Localizer outputs on the fixed-seed fixtures in golden_fixtures.hpp,
// captured (hexfloat), re-pinned when the SIMD solver kernels and
// cross-round warm starts landed, and again when SMACOF moved to a stop rule
// in meters with a Cholesky V^+; every path — the allocating wrappers, a
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
    0x1.0111336982754p+3, 0x1.5514329cc1fdep+0,
    -0x1.a6bdb4ae75cfcp+2, 0x1.9b7acd69c526ep+2,
    0x1.67bb5344bb32cp+3, 0x1.398fc0c5680ep+3,
    0x1.cae093ce44dap+1, -0x1.14372de2a2b08p+3,
    -0x1.142f4f7f37facp+3, -0x1.70ceeffb2ed5dp+2,
};
const double kClean_stress = 0x1.51c0baca0201fp-3;

const double kOutlier_xy[] = {
    0x0p+0, -0x0p+0,
    0x1.bad8b3beee9cap+2, 0x1.23d6be9d69c89p+1,
    -0x1.61a4f36cb2e2p+2, 0x1.9e90ee8358b4p+2,
    0x1.910abe17d054dp+3, 0x1.0e6fc46a0207bp+3,
    0x1.213c4d0f5e5e4p+2, -0x1.f5863932c8a1ep+2,
    -0x1.e859315d0d952p+2, -0x1.9cf910c26e134p+2,
    0x1.c64c26587d1e6p+3, -0x1.d31aac55d7fc5p+1,
};
const double kOutlier_stress = 0x1.4fb005909c6b1p-4;

const double kPruned_xy[] = {
    0x0p+0, 0x0p+0,
    0x1.40b7f2ece0f56p+3, 0x1.043286fa6ef2bp+1,
    0x1.3dae08f928d23p+4, 0x1.c925d9d851cfp+0,
    0x1.b39e15e313c41p+4, 0x1.7ef402c6673cp-1,
    0x1.21272ef825354p+5, 0x1.32ce484799bap-2,
    0x1.e86ad22c4ccfcp+0, 0x1.20bcbcadc60e5p+3,
    0x1.33bb26685527ep+3, 0x1.29fdf8d8be44fp+3,
    0x1.34b147503eeffp+4, 0x1.15cefec04354dp+3,
    0x1.a582ef52deab9p+4, 0x1.2ed307d4517c2p+3,
    0x1.2602995aa6f3fp+5, 0x1.6cda010088d21p+3,
    -0x1.56c3ce2012d1p-2, 0x1.3675d9fb1ab8p+4,
    0x1.3ac9039218762p+3, 0x1.278a41ff0710ep+4,
    0x1.19174f32311cap+4, 0x1.280751ef9d324p+4,
    0x1.b19b0c731a7eep+4, 0x1.41e791b7938a8p+4,
    0x1.239e4e7faf55cp+5, 0x1.4882aa68291fap+4,
    -0x1.53d5cf6efcd08p+0, 0x1.b7631df7a0171p+4,
    0x1.0aae806605b46p+3, 0x1.c765c035bed8ep+4,
    0x1.18abceee213e4p+4, 0x1.b5885de47ffc4p+4,
    0x1.afff62c15c474p+4, 0x1.cd134caae20aep+4,
    0x1.167740cf265b3p+5, 0x1.d4c11708bf941p+4,
};
const double kPruned_stress = 0x1.600438cdffac6p-4;

// Driver-level goldens: sim::ScenarioRunner fast round (deployment Rng(77),
// round Rng(78)) and a 6-node 4-round DES run (Rng(55)).
const double kSimFastError2d[] = {0x0p+0, 0x1.b57224de63cf2p-2, 0x1.74ceef380a5efp+0,
                                  0x1.2bdca9da0011p+1, 0x1.0241b11cb94b1p+2};
const double kSimFastStress = 0x1.4499e6f89a4dfp-3;
const double kSimFastD03 = 0x1.05f469ccb42c6p+4;
const double kDesErrors[] = {
    0x1.536cf77726d3ep-1, 0x1.3c8c04f097164p-1, 0x1.a242c6f07b2dp-1,
    0x1.a8e2ef0d02dabp-1, 0x1.fb90605456aa8p-1, 0x1.172c9ce5482eap-1,
    0x1.a5e582fdd2e66p-2, 0x1.4917d971899c8p-1, 0x1.0cbd499ebc5cap-1,
    0x1.ad98aed04a5aep-2, 0x1.d1a110eed3ap+0, 0x1.4f261ea47de6ep+1,
    0x1.28c6da578a6d9p+1, 0x1.32e9fb31a5504p+1, 0x1.8c8068b652543p+1,
    0x1.3da9a2bb97b8bp+1, 0x1.80be73f11f298p+1, 0x1.a2d9e1fcfd6fap+1,
    0x1.6a9de7264ab98p+1, 0x1.c4007656148a5p+1,
};
const double kDesTracked[] = {
    0x1.536cf77726d3ep-1, 0x1.3c8c04f097164p-1, 0x1.a242c6f07b2dp-1,
    0x1.a8e2ef0d02dabp-1, 0x1.fb90605456aa8p-1, 0x1.0c7a8dccbbacp-1,
    0x1.d6b7db61c8bc6p-3, 0x1.4d6e93406bdfbp-1, 0x1.1a5127de30b4dp-1,
    0x1.ae4c2102769e5p-2, 0x1.722a64688092bp+0, 0x1.06ca1103a2328p+1,
    0x1.bd29d002bf1abp+0, 0x1.c5d66fccde0c1p+0, 0x1.42fce6d12d85fp+1,
    0x1.e5c5f79b5700bp-1, 0x1.afc42f65d2a8fp+1, 0x1.5076a8735103fp+0,
    0x1.fcdf3ab3c127bp-1, 0x1.f0dd425880945p+1,
};

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
