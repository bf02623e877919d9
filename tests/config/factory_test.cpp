// Pins the tentpole contract: a driver built from a ScenarioSpec is the
// driver a hand-wired main would construct — workload field for field,
// fleet runs bit for bit — and every committed example spec stays loadable
// and true to its declared shape.
#include "config/factory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "config/spec.hpp"
#include "fleet/wire.hpp"

#ifndef UWP_SPEC_DIR
#define UWP_SPEC_DIR "examples/specs"
#endif

namespace uwp::config {
namespace {

void expect_workload_field_equal(const sim::GroupScenario& a,
                                 const sim::GroupScenario& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.kind, b.kind);
  ASSERT_EQ(a.scene.positions.size(), b.scene.positions.size());
  for (std::size_t i = 0; i < a.scene.positions.size(); ++i) {
    EXPECT_EQ(a.scene.positions[i].x, b.scene.positions[i].x);
    EXPECT_EQ(a.scene.positions[i].y, b.scene.positions[i].y);
    EXPECT_EQ(a.scene.positions[i].z, b.scene.positions[i].z);
  }
  ASSERT_EQ(a.scene.audio.size(), b.scene.audio.size());
  for (std::size_t i = 0; i < a.scene.audio.size(); ++i) {
    EXPECT_EQ(a.scene.audio[i].speaker_skew_ppm, b.scene.audio[i].speaker_skew_ppm);
    EXPECT_EQ(a.scene.audio[i].mic_skew_ppm, b.scene.audio[i].mic_skew_ppm);
    EXPECT_EQ(a.scene.audio[i].speaker_start_s, b.scene.audio[i].speaker_start_s);
    EXPECT_EQ(a.scene.audio[i].mic_start_s, b.scene.audio[i].mic_start_s);
  }
  EXPECT_EQ(a.scene.protocol.num_devices, b.scene.protocol.num_devices);
  ASSERT_EQ(a.motion.size(), b.motion.size());
  for (std::size_t i = 0; i < a.motion.size(); ++i) {
    EXPECT_EQ(a.motion[i].span_m, b.motion[i].span_m);
    EXPECT_EQ(a.motion[i].speed_mps, b.motion[i].speed_mps);
    EXPECT_EQ(a.motion[i].phase_s, b.motion[i].phase_s);
    EXPECT_EQ(a.motion[i].waypoints.size(), b.motion[i].waypoints.size());
  }
  EXPECT_EQ(a.arrival.detection_failure_prob, b.arrival.detection_failure_prob);
  EXPECT_EQ(a.sound_speed_error_mps, b.sound_speed_error_mps);
  EXPECT_EQ(a.dropout_prob, b.dropout_prob);
  EXPECT_EQ(a.admit_tick, b.admit_tick);
  EXPECT_EQ(a.lifetime_rounds, b.lifetime_rounds);
  EXPECT_EQ(a.round_period_s, b.round_period_s);
}

TEST(SpecFactory, WorkloadReproducesMakeWorkloadFieldForField) {
  sim::WorkloadParams params;
  params.sessions = 64;
  params.seed = 0xAB17u;
  params.min_group_size = 4;
  params.max_group_size = 7;
  params.min_rounds = 3;
  params.max_rounds = 6;
  params.admit_spread_ticks = 5;
  params.include_des = true;

  ScenarioSpec spec;
  spec.mode = RunMode::kFleet;
  spec.fleet.workload = params;

  // Through the JSON round trip, not just the in-memory struct.
  const ScenarioSpec reloaded = parse_spec(write_spec(spec));
  const std::vector<sim::GroupScenario> from_spec = make_workload(reloaded);
  const std::vector<sim::GroupScenario> programmatic = sim::make_workload(params);

  ASSERT_EQ(from_spec.size(), programmatic.size());
  for (std::size_t i = 0; i < from_spec.size(); ++i)
    expect_workload_field_equal(from_spec[i], programmatic[i]);
  // The digest covers EVERY field bit for bit; the explicit checks above
  // just localize a failure.
  EXPECT_EQ(fleet::workload_digest(from_spec), fleet::workload_digest(programmatic));
}

TEST(SpecFactory, FleetRunFromSpecBitIdenticalToProgrammatic) {
  sim::WorkloadParams params;
  params.sessions = 48;
  params.seed = 0x5EEDu;
  params.min_rounds = 2;
  params.max_rounds = 4;
  fleet::FleetOptions fo;
  fo.master_seed = 0xCAFEu;
  fo.shards = 2;

  ScenarioSpec spec;
  spec.mode = RunMode::kFleet;
  spec.fleet.options = fo;
  spec.fleet.workload = params;

  const fleet::FleetService programmatic(fo, sim::make_workload(params));
  const fleet::FleetResult want = programmatic.run();

  // Spec-built, through the serialized form — and at a different shard
  // count, which must not matter (PR 4's determinism contract).
  ScenarioSpec reloaded = parse_spec(write_spec(spec));
  reloaded.fleet.options.shards = 4;
  const fleet::FleetService from_spec = make_fleet_service(reloaded);
  const fleet::FleetResult got = from_spec.run();

  EXPECT_EQ(got.fleet_digest, want.fleet_digest);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.localized, want.localized);
  EXPECT_EQ(got.coasts, want.coasts);
  ASSERT_EQ(got.sessions.size(), want.sessions.size());
  for (std::size_t i = 0; i < got.sessions.size(); ++i)
    EXPECT_TRUE(got.sessions[i].bit_equal(want.sessions[i])) << "session " << i;
  ASSERT_EQ(got.errors.size(), want.errors.size());
  for (std::size_t i = 0; i < got.errors.size(); ++i)
    EXPECT_EQ(got.errors[i], want.errors[i]);
}

TEST(SpecFactory, DesScenarioFromSpecMatchesHandWiredConstruction) {
  ScenarioSpec spec;
  spec.mode = RunMode::kDes;
  spec.deployment.preset = DeploymentPreset::kExplicit;
  spec.deployment.seed = 9;
  for (std::size_t i = 0; i < 6; ++i)
    spec.deployment.positions.push_back(
        {4.0 * static_cast<double>(i), 3.0 * static_cast<double>(i % 2),
         1.0 + 0.3 * static_cast<double>(i)});
  spec.protocol.num_devices = 6;
  spec.des.rounds = 3;
  spec.round.fast_arrival.detection_failure_prob = 0.02;
  MotionSpec m;
  m.node = 2;
  m.motion.axis = {0.0, 1.0, 0.0};
  m.motion.span_m = 4.0;
  m.motion.speed_mps = 0.5;
  spec.des.motion.push_back(m);

  const des::DesScenario from_spec = make_des_scenario(spec);

  // Hand-wire the same scenario from the same deployment.
  const sim::Deployment dep = make_deployment(spec);
  des::DesScenarioConfig cfg;
  cfg.protocol = spec.protocol;
  cfg.rounds = spec.des.rounds;
  cfg.arrival = spec.round.fast_arrival;
  std::vector<Vec3> origins;
  std::vector<audio::AudioTimingConfig> audio;
  for (const sim::ScenarioDevice& dev : dep.devices) {
    origins.push_back(dev.position);
    audio.push_back(dev.audio);
  }
  auto mobility = std::make_shared<des::LawnmowerMobility>(std::move(origins));
  des::LawnmowerTrack track;
  track.direction = m.motion.axis;
  track.span_m = m.motion.span_m;
  track.speed_mps = m.motion.speed_mps;
  mobility->set_track(2, track);
  const des::DesScenario programmatic(cfg, mobility, audio, dep.connectivity);

  EXPECT_EQ(from_spec.round_period_s(), programmatic.round_period_s());
  uwp::Rng rng_a(11), rng_b(11);
  const des::DesScenarioResult a = from_spec.run(rng_a);
  const des::DesScenarioResult b = programmatic.run(rng_b);
  EXPECT_EQ(a.localized_rounds, b.localized_rounds);
  EXPECT_EQ(a.total_deliveries, b.total_deliveries);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (std::size_t i = 0; i < a.errors.size(); ++i) EXPECT_EQ(a.errors[i], b.errors[i]);
}

TEST(SpecFactory, ScenarioRunnerAndSweepComeFromTheBackingStructs) {
  ScenarioSpec spec;
  spec.mode = RunMode::kSweep;
  spec.round.waveform_phy = false;
  spec.sweep.trials = 40;
  spec.sweep.master_seed = 77;
  spec.sweep.threads = 1;

  const sim::ScenarioRunner runner = make_scenario_runner(spec);
  EXPECT_EQ(runner.deployment().size(), 5u);  // dock preset
  EXPECT_EQ(runner.deployment().env.name, "dock");

  const sim::SweepRunner sweep = make_sweep(spec);
  EXPECT_EQ(sweep.options().trials, 40u);
  EXPECT_EQ(sweep.options().master_seed, 77u);

  const sim::RoundOptions opts = make_round_options(spec);
  const sim::SweepResult res = sweep.run(
      [&] { return std::make_shared<sim::ScenarioRoundContext>(runner, opts); },
      [](std::size_t, uwp::Rng& rng, void* ctx) {
        auto* context = static_cast<sim::ScenarioRoundContext*>(ctx);
        sim::RoundResult round;
        context->run_into(round, rng);
        return round.error_2d;
      });
  EXPECT_EQ(res.per_trial.size(), 40u);
  EXPECT_GT(res.summary.count, 0u);
}

TEST(SpecFactory, InvalidSpecsNeverReachADriver) {
  ScenarioSpec spec;
  spec.protocol.num_devices = 9;  // dock preset has 5
  EXPECT_THROW(make_scenario_runner(spec), SpecError);
  EXPECT_THROW(make_des_scenario(spec), SpecError);
  spec = ScenarioSpec{};
  spec.fleet.workload.sessions = 0;
  EXPECT_THROW(make_fleet_service(spec), SpecError);
}

TEST(SpecFactory, TelemetryOptionsScaleWindowToTheModesVirtualClock) {
  ScenarioSpec spec;
  spec.mode = RunMode::kFleet;
  spec.telemetry.enabled = true;
  spec.telemetry.timing = false;
  spec.telemetry.window_ticks = 8;
  spec.fleet.server.tick_period_s = 0.5;

  // Fleet stamps tick indices: the window is the tick count verbatim.
  telemetry::TelemetryOptions fo = make_telemetry_options(spec);
  EXPECT_TRUE(fo.enabled);
  EXPECT_FALSE(fo.timing);
  EXPECT_EQ(fo.window, 8.0);

  // Serve stamps frame t_s (tick_period_s per tick): same windows on the
  // same virtual timeline requires the scale factor.
  spec.mode = RunMode::kServe;
  EXPECT_EQ(make_telemetry_options(spec).window, 4.0);

  spec.telemetry.window_ticks = 0;
  EXPECT_THROW(make_telemetry_options(spec), SpecError);
}

// --- committed example specs -------------------------------------------------

TEST(GoldenSpecs, EveryCommittedSpecLoadsAndValidates) {
  const char* files[] = {"quickstart.json",      "sweep_dock_fast.json",
                         "des_swarm.json",       "fleet_mixed.json",
                         "fleet_serving.json",   "fleet_static.json",
                         "fleet_lawnmower.json", "fleet_waypoint.json",
                         "fleet_dropout_churn.json", "fleet_packet_des.json",
                         "fleet_serve_shaped.json", "fleet_telemetry.json"};
  for (const char* f : files) {
    SCOPED_TRACE(f);
    const ScenarioSpec spec = load_spec(std::string(UWP_SPEC_DIR) + "/" + f);
    EXPECT_FALSE(spec.name.empty());
    // Normalization is stable: serialize -> parse -> bit-equal.
    EXPECT_TRUE(bit_equal(spec, parse_spec(write_spec(spec))));
  }
}

TEST(GoldenSpecs, OneForcedFleetPerGroupScenarioKind) {
  const std::map<std::string, sim::GroupScenarioKind> per_kind = {
      {"fleet_static.json", sim::GroupScenarioKind::kStatic},
      {"fleet_lawnmower.json", sim::GroupScenarioKind::kLawnmower},
      {"fleet_waypoint.json", sim::GroupScenarioKind::kWaypoint},
      {"fleet_dropout_churn.json", sim::GroupScenarioKind::kDropoutChurn},
      {"fleet_packet_des.json", sim::GroupScenarioKind::kPacketDes},
  };
  for (const auto& [file, kind] : per_kind) {
    SCOPED_TRACE(file);
    const ScenarioSpec spec = load_spec(std::string(UWP_SPEC_DIR) + "/" + file);
    EXPECT_EQ(spec.mode, RunMode::kFleet);
    const std::vector<sim::GroupScenario> workload = make_workload(spec);
    ASSERT_FALSE(workload.empty());
    for (const sim::GroupScenario& sc : workload) EXPECT_EQ(sc.kind, kind);
  }
}

TEST(GoldenSpecs, ForcedKindNeverShiftsTheSessionGeometryStreams) {
  // The same (seed, session_id) must describe the same group geometry and
  // clocks whether the kind was drawn or forced: every draw *before* the
  // kind-dependent branch (kind, size, topology, audio, arrival) is shared.
  sim::WorkloadParams mixed;
  mixed.sessions = 32;
  mixed.seed = 0x77u;
  sim::WorkloadParams forced = mixed;
  forced.force_kind = static_cast<int>(sim::GroupScenarioKind::kStatic);
  const auto a = sim::make_workload(mixed);
  const auto b = sim::make_workload(forced);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].scene.positions.size(), b[i].scene.positions.size());
    for (std::size_t d = 0; d < a[i].scene.positions.size(); ++d) {
      EXPECT_EQ(a[i].scene.positions[d].x, b[i].scene.positions[d].x);
      EXPECT_EQ(a[i].scene.positions[d].y, b[i].scene.positions[d].y);
      EXPECT_EQ(a[i].scene.audio[d].speaker_start_s, b[i].scene.audio[d].speaker_start_s);
    }
    EXPECT_EQ(a[i].arrival.detection_failure_prob,
              b[i].arrival.detection_failure_prob);
    EXPECT_EQ(b[i].kind, sim::GroupScenarioKind::kStatic);
  }
}

}  // namespace
}  // namespace uwp::config
