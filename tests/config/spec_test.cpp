#include "config/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace uwp::config {
namespace {

// A spec with every section exercised: explicit geometry, motion of both
// shapes disallowed by validation but legal to serialize, forced fleet kind,
// non-default doubles everywhere. Randomized per call.
ScenarioSpec random_spec(uwp::Rng& rng, bool include_nan) {
  ScenarioSpec s;
  s.name = "random_" + std::to_string(rng.uniform_int(0, 1 << 30));
  s.mode = static_cast<RunMode>(rng.uniform_int(0, 4));
  s.deployment.preset = static_cast<DeploymentPreset>(rng.uniform_int(0, 3));
  s.deployment.environment = static_cast<EnvironmentPreset>(rng.uniform_int(0, 3));
  s.deployment.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) |
                      (static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) << 34);
  s.deployment.devices = static_cast<std::size_t>(rng.uniform_int(2, 12));
  const std::size_t npos = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < npos; ++i)
    s.deployment.positions.push_back(
        {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0), rng.uniform(0.0, 10.0)});
  s.deployment.random_audio = rng.bernoulli(0.5);

  s.round.waveform_phy = rng.bernoulli(0.5);
  s.round.fast_arrival.sigma_m = rng.uniform(0.0, 1.0);
  s.round.fast_arrival.sigma_per_m = rng.uniform(0.0, 0.05);
  s.round.fast_arrival.detection_failure_prob = rng.uniform(0.0, 1.0);
  s.round.quantize_payload = rng.bernoulli(0.5);
  s.round.sound_speed_error_mps =
      include_nan && rng.bernoulli(0.3) ? std::numeric_limits<double>::quiet_NaN()
                                        : rng.uniform(-50.0, 50.0);
  s.round.mic_mode = static_cast<phy::MicMode>(rng.uniform_int(0, 2));
  s.round.depth_sensor.bias_m = rng.uniform(-0.5, 0.5);
  s.round.depth_sensor.noise_sigma_m = rng.uniform(0.0, 0.3);
  s.round.depth_sensor.quantization_m = rng.uniform(0.0, 0.1);
  s.round.pointing.sigma_deg = rng.uniform(0.0, 20.0);
  s.round.pointing.sigma_per_meter_deg = rng.uniform(0.0, 1.0);
  s.round.localizer.outlier.stress_threshold = rng.uniform(0.1, 2.0);
  s.round.localizer.outlier.drop_ratio = rng.uniform(0.0, 1.0);
  s.round.localizer.outlier.max_outliers = static_cast<int>(rng.uniform_int(0, 5));
  s.round.localizer.outlier.max_suspect_links =
      static_cast<std::size_t>(rng.uniform_int(1, 100));
  s.round.localizer.outlier.smacof.max_iterations =
      static_cast<int>(rng.uniform_int(1, 1000));
  s.round.localizer.outlier.smacof.tolerance_m = rng.uniform(1e-6, 1e-2);
  s.round.localizer.outlier.smacof.random_restarts =
      static_cast<int>(rng.uniform_int(0, 5));
  s.round.localizer.outlier.smacof.init_spread = rng.uniform(1.0, 100.0);

  s.protocol.num_devices = static_cast<std::size_t>(rng.uniform_int(2, 12));
  s.protocol.delta0_s = rng.uniform(0.1, 1.0);
  s.protocol.t_packet_s = rng.uniform(0.05, 0.5);
  s.protocol.t_guard_s = rng.uniform(0.01, 0.1);
  s.protocol.sound_speed_mps = rng.uniform(1400.0, 1600.0);
  s.protocol.fs_hz = rng.uniform(8000.0, 48000.0);

  s.des.rounds = static_cast<std::size_t>(rng.uniform_int(1, 20));
  s.des.round_period_s = rng.uniform(0.0, 10.0);
  s.des.max_range_m = rng.uniform(0.0, 100.0);
  s.des.ideal_arrivals = rng.bernoulli(0.5);
  s.des.tracker.accel_noise = rng.uniform(0.001, 0.1);
  s.des.tracker.measurement_sigma_m = rng.uniform(0.1, 2.0);
  s.des.tracker.velocity_decay_tau_s = rng.uniform(5.0, 60.0);
  s.des.tracker.gate_sigmas = rng.uniform(2.0, 8.0);
  const std::size_t nmotion = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < nmotion; ++i) {
    MotionSpec m;
    m.node = static_cast<std::size_t>(rng.uniform_int(0, 11));
    if (rng.bernoulli(0.5)) {
      m.motion.axis = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0};
      m.motion.span_m = rng.uniform(1.0, 10.0);
      m.motion.phase_s = rng.uniform(0.0, 60.0);
    } else {
      const std::size_t wps = static_cast<std::size_t>(rng.uniform_int(2, 4));
      for (std::size_t w = 0; w < wps; ++w)
        m.motion.waypoints.push_back(
            {rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0), rng.uniform(0.0, 5.0)});
    }
    m.motion.speed_mps = rng.uniform(0.1, 1.0);
    s.des.motion.push_back(std::move(m));
  }

  s.sweep.trials = static_cast<std::size_t>(rng.uniform_int(1, 5000));
  s.sweep.master_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  s.sweep.threads = static_cast<std::size_t>(rng.uniform_int(0, 16));

  s.fleet.options.master_seed =
      static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) << 20;
  s.fleet.options.shards = static_cast<std::size_t>(rng.uniform_int(0, 8));
  s.fleet.options.measure_latency = rng.bernoulli(0.5);
  s.fleet.workload.sessions = static_cast<std::size_t>(rng.uniform_int(1, 500));
  s.fleet.workload.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  s.fleet.workload.min_group_size = static_cast<std::size_t>(rng.uniform_int(4, 6));
  s.fleet.workload.max_group_size = static_cast<std::size_t>(rng.uniform_int(6, 10));
  s.fleet.workload.min_rounds = static_cast<std::size_t>(rng.uniform_int(1, 4));
  s.fleet.workload.max_rounds = static_cast<std::size_t>(rng.uniform_int(4, 12));
  s.fleet.workload.admit_spread_ticks =
      static_cast<std::size_t>(rng.uniform_int(0, 16));
  s.fleet.workload.include_des = rng.bernoulli(0.5);
  s.fleet.workload.force_kind = static_cast<int>(rng.uniform_int(-1, 4));

  s.fleet.server.options.workers = static_cast<std::size_t>(rng.uniform_int(0, 16));
  s.fleet.server.options.queue_depth = static_cast<std::size_t>(rng.uniform_int(1, 256));
  s.fleet.server.tick_period_s = rng.uniform(0.1, 5.0);
  s.fleet.server.transport_capacity = static_cast<std::size_t>(rng.uniform_int(1, 512));
  auto& shaping = s.fleet.server.options.shaping;
  shaping.policy = rng.uniform_int(0, 1) == 0 ? fleet::AdmissionPolicy::kAdmitAll
                                              : fleet::AdmissionPolicy::kDefer;
  shaping.ingest_shards = static_cast<std::size_t>(rng.uniform_int(1, 16));
  shaping.queue_depth = static_cast<std::size_t>(rng.uniform_int(1, 64));
  shaping.drain_rounds_per_s = rng.uniform(0.5, 64.0);
  shaping.rate_rounds_per_s = rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.0, 64.0);
  shaping.burst_rounds = rng.uniform(1.0, 16.0);
  shaping.feedback_threshold = rng.uniform(0.0, 1.0);
  shaping.defer_delay_s = rng.uniform(0.01, 2.0);
  shaping.max_defers = static_cast<std::size_t>(rng.uniform_int(0, 16));

  s.telemetry.enabled = rng.bernoulli(0.5);
  s.telemetry.timing = rng.bernoulli(0.5);
  s.telemetry.window_ticks = static_cast<std::size_t>(rng.uniform_int(1, 64));
  s.telemetry.trace.enabled = rng.bernoulli(0.5);
  s.telemetry.trace.max_spans = static_cast<std::size_t>(rng.uniform_int(1, 1 << 20));
  s.telemetry.flight.capacity = static_cast<std::size_t>(rng.uniform_int(0, 1 << 10));
  s.telemetry.flight.max_dumps = static_cast<std::size_t>(rng.uniform_int(0, 64));
  s.telemetry.flight.evict_storm = static_cast<std::size_t>(rng.uniform_int(1, 64));
  s.telemetry.flight.shed_burst = static_cast<std::size_t>(rng.uniform_int(1, 64));
  s.telemetry.flight.localize_failures =
      static_cast<std::size_t>(rng.uniform_int(1, 64));

  s.control.enabled = rng.bernoulli(0.5);
  s.control.config.rate_step = rng.uniform(1.01, 3.0);
  s.control.config.rate_max_multiplier = rng.uniform(1.0, 8.0);
  return s;
}

TEST(SpecRoundTrip, DefaultSpecSurvivesBothFormats) {
  const ScenarioSpec spec;
  for (const bool hexfloat : {false, true}) {
    const ScenarioSpec back = parse_spec(write_spec(spec, hexfloat));
    EXPECT_TRUE(bit_equal(spec, back)) << "hexfloat=" << hexfloat;
  }
}

// The writer's key order and formatting, pinned byte for byte: the field
// lists in spec.cpp decide both, and a reordered list must fail here.
TEST(SpecRoundTrip, DefaultSpecMatchesGolden) {
  std::ifstream in(UWP_DEFAULT_SPEC_JSON, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << UWP_DEFAULT_SPEC_JSON;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(write_spec(ScenarioSpec{}), golden.str());
}

TEST(SpecRoundTrip, InvalidIntFieldsSerializeVerbatimNotClamped) {
  // Serialization is full fidelity even for values validation rejects; the
  // round trip must not launder -1 into 0 (and bit_equal must see the
  // difference).
  ScenarioSpec spec;
  spec.round.localizer.outlier.smacof.max_iterations = -1;
  const ScenarioSpec back = parse_spec(write_spec(spec));
  EXPECT_EQ(back.round.localizer.outlier.smacof.max_iterations, -1);
  EXPECT_TRUE(bit_equal(spec, back));
  EXPECT_FALSE(bit_equal(spec, ScenarioSpec{}));
}

TEST(SpecRoundTrip, RandomSpecsFieldEqualIncludingNanAndHexfloat) {
  uwp::Rng rng(0x5EEDC0DEu);
  for (int i = 0; i < 50; ++i) {
    const ScenarioSpec spec = random_spec(rng, /*include_nan=*/true);
    for (const bool hexfloat : {false, true}) {
      const ScenarioSpec back = parse_spec(write_spec(spec, hexfloat));
      ASSERT_TRUE(bit_equal(spec, back)) << "spec " << i << " hexfloat=" << hexfloat;
    }
  }
}

TEST(SpecRoundTrip, SaveLoadFile) {
  uwp::Rng rng(7);
  ScenarioSpec spec = random_spec(rng, /*include_nan=*/false);
  // Make it valid so load_spec (which validates) accepts it.
  spec = ScenarioSpec{};
  spec.name = "file_trip";
  const char* path = "spec_roundtrip_test.json";
  save_spec(spec, path);
  const ScenarioSpec back = load_spec(path);
  std::remove(path);
  EXPECT_TRUE(bit_equal(spec, back));
}

// --- parse-time failures (type/shape errors carry the field's path) ---------

void expect_parse_error(const std::string& json, const std::string& path_substr) {
  try {
    parse_spec(json);
    FAIL() << "expected SpecError for " << json;
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(path_substr), std::string::npos)
        << "what(): " << e.what();
  }
}

TEST(SpecParse, UnknownAndMistypedFieldsFailWithPaths) {
  expect_parse_error(R"({"des_fraction": 0.5})", "des_fraction");
  expect_parse_error(R"({"fleet": {"workload": {"des_fraction": 0.5}}})",
                     "fleet.workload.des_fraction");
  expect_parse_error(R"({"round": {"waveform_phy": "yes"}})", "round.waveform_phy");
  expect_parse_error(R"({"round": {"arrival": {"sigma_m": true}}})",
                     "round.arrival.sigma_m");
  expect_parse_error(R"({"mode": "turbo"})", "mode");
  expect_parse_error(R"({"deployment": {"preset": "moonbase"}})", "deployment.preset");
  expect_parse_error(R"({"deployment": {"positions": [[1, 2]]}})",
                     "deployment.positions[0]");
  expect_parse_error(R"({"des": {"motion": [{"axis": "up"}]}})", "des.motion[0].axis");
  expect_parse_error(R"({"fleet": {"workload": {"kind_mix": "chaotic"}}})",
                     "fleet.workload.kind_mix");
  // "shed" is no policy: defer with max_defers = 0 sheds the same rounds.
  expect_parse_error(R"({"fleet": {"server": {"shaping": {"policy": "shed"}}}})",
                     "fleet.server.shaping.policy");
  expect_parse_error(R"({"sweep": {"trials": -3}})", "sweep.trials");
  expect_parse_error(R"({"sweep": 17})", "sweep");
  expect_parse_error(R"({"telemetry": {"window": 4}})", "telemetry.window");
  expect_parse_error(R"({"telemetry": {"enabled": 1}})", "telemetry.enabled");
  expect_parse_error(R"({"telemetry": {"trace": {"max_span": 1}}})",
                     "telemetry.trace.max_span");
  expect_parse_error(R"({"telemetry": {"flight": {"capacity": true}}})",
                     "telemetry.flight.capacity");
}

// Keys of retired features must fail loudly, not be ignored: the control
// keys of the solver and arena tuners (and their policy gates), the size
// of the telemetry event ring, SMACOF's relative stop rule and the
// Algorithm-1 search fan-out.
TEST(SpecParse, RemovedKeysAreUnknownFields) {
  const char* const removed[] = {
      "control.solver",          "control.solver_iters_high",
      "control.solver_iters_low", "control.max_search_threads",
      "control.arena",           "control.shaper",
      "control.evict_storm",     "control.retain_base",
      "control.retain_max",      "telemetry.ring_capacity",
      "round.localizer.outlier.smacof.rel_tolerance",
      "round.localizer.outlier.search_threads"};
  for (const std::string path : removed) {
    // {"a": {"b": {"key": 1}}} for the dotted path a.b.key.
    std::string json, closing;
    for (std::size_t begin = 0, end = 0; begin <= path.size(); begin = end + 1) {
      end = std::min(path.find('.', begin), path.size());
      json += R"({")" + path.substr(begin, end - begin) + R"(": )";
      closing += '}';
    }
    json += "1" + closing;
    try {
      parse_spec(json);
      ADD_FAILURE() << "expected SpecError for " << json;
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("unknown field"), std::string::npos) << what;
    }
  }
}

// --- validation failures (range/consistency errors, one per field) ----------

void expect_invalid(const ScenarioSpec& spec, const std::string& path_substr) {
  const std::vector<std::string> errors = validate(spec);
  for (const std::string& e : errors)
    if (e.find(path_substr) != std::string::npos) {
      EXPECT_THROW(validate_or_throw(spec), SpecError);
      return;
    }
  ADD_FAILURE() << "no validation error mentioning \"" << path_substr << "\"; got "
                << errors.size() << " errors"
                << (errors.empty() ? "" : ", first: " + errors[0]);
}

TEST(SpecValidate, DefaultAndExampleShapesAreValid) {
  EXPECT_TRUE(validate(ScenarioSpec{}).empty());
}

TEST(SpecValidate, EachRejectedFieldReportsItsPath) {
  {
    ScenarioSpec s;
    s.name.clear();
    expect_invalid(s, "name");
  }
  {
    ScenarioSpec s;
    s.deployment.preset = DeploymentPreset::kAnalytical;
    s.deployment.devices = 1;
    expect_invalid(s, "deployment.devices");
  }
  {
    ScenarioSpec s;
    s.deployment.preset = DeploymentPreset::kExplicit;
    expect_invalid(s, "deployment.positions");
  }
  for (const std::size_t devices :
       {std::size_t{65}, std::size_t{513}, std::size_t{20000}}) {
    // Above the wire codec's device cap: every driver sizes n x n matrices
    // from the deployment's device count.
    ScenarioSpec s;
    s.protocol.num_devices = devices;
    s.deployment.preset = DeploymentPreset::kAnalytical;
    s.deployment.devices = devices;
    expect_invalid(s, "deployment.devices: must be <= 64");
    s.deployment.preset = DeploymentPreset::kExplicit;
    s.deployment.positions.assign(devices, Vec3{0, 0, 1});
    expect_invalid(s, "deployment.positions: must be <= 64");
  }
  {
    ScenarioSpec s;  // positions on a non-explicit preset
    s.deployment.positions.push_back({0, 0, 1});
    expect_invalid(s, "deployment.positions");
  }
  {
    ScenarioSpec s;
    s.round.fast_arrival.detection_failure_prob = 1.5;
    expect_invalid(s, "round.arrival.detection_failure_prob");
  }
  {
    ScenarioSpec s;
    s.round.fast_arrival.sigma_m = -0.1;
    expect_invalid(s, "round.arrival.sigma_m");
  }
  {
    ScenarioSpec s;
    s.round.sound_speed_error_mps = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(s, "round.sound_speed_error_mps");
  }
  {
    ScenarioSpec s;
    s.round.depth_sensor.noise_sigma_m = -0.2;
    expect_invalid(s, "round.depth_sensor.noise_sigma_m");
  }
  {
    ScenarioSpec s;
    s.round.pointing.sigma_deg = std::numeric_limits<double>::infinity();
    expect_invalid(s, "round.pointing.sigma_deg");
  }
  {
    ScenarioSpec s;
    s.des.tracker.measurement_sigma_m = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(s, "des.tracker.measurement_sigma_m");
  }
  {
    ScenarioSpec s;
    s.round.localizer.outlier.stress_threshold = 0.0;
    expect_invalid(s, "round.localizer.outlier.stress_threshold");
  }
  {
    ScenarioSpec s;
    s.round.localizer.outlier.smacof.max_iterations = 0;
    expect_invalid(s, "round.localizer.outlier.smacof.max_iterations");
  }
  for (const double tol : {0.0, -1e-4, std::numeric_limits<double>::quiet_NaN()}) {
    ScenarioSpec s;
    s.round.localizer.outlier.smacof.tolerance_m = tol;
    expect_invalid(s, "round.localizer.outlier.smacof.tolerance_m");
  }
  {
    ScenarioSpec s;
    s.protocol.num_devices = 7;  // dock preset deploys 5
    expect_invalid(s, "protocol.num_devices");
  }
  {
    ScenarioSpec s;
    s.protocol.t_guard_s = 0.0;
    expect_invalid(s, "protocol.t_guard_s");
  }
  {
    ScenarioSpec s;
    s.des.rounds = 0;
    expect_invalid(s, "des.rounds");
  }
  {
    ScenarioSpec s;
    MotionSpec m;
    m.node = 99;
    m.motion.span_m = 2.0;
    m.motion.speed_mps = 0.3;
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0].node");
  }
  {
    ScenarioSpec s;
    MotionSpec m;
    m.motion.span_m = 2.0;
    m.motion.speed_mps = 0.3;
    m.motion.waypoints = {{0, 0, 1}, {1, 0, 1}};
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0]");
  }
  {
    ScenarioSpec s;
    MotionSpec m;
    m.motion.span_m = 2.0;
    m.motion.speed_mps = 0.0;
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0].speed_mps");
  }
  {
    ScenarioSpec s;
    MotionSpec m;
    m.motion.span_m = std::numeric_limits<double>::quiet_NaN();
    m.motion.speed_mps = 0.3;
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0].span_m");
  }
  {
    ScenarioSpec s;  // neither a lawnmower nor a waypoint track
    MotionSpec m;
    m.motion.speed_mps = 0.3;
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0]");
  }
  {
    ScenarioSpec s;
    MotionSpec m;
    m.motion.waypoints = {{0, 0, 1},
                          {std::numeric_limits<double>::infinity(), 0, 1}};
    m.motion.speed_mps = 0.3;
    s.des.motion.push_back(m);
    expect_invalid(s, "des.motion[0].waypoints[1]");
  }
  {
    ScenarioSpec s;
    s.sweep.trials = 0;
    expect_invalid(s, "sweep.trials");
  }
  {
    ScenarioSpec s;
    s.sweep.threads = 100000000;
    expect_invalid(s, "sweep.threads");
  }
  {
    ScenarioSpec s;
    s.fleet.options.shards = 100000000;
    expect_invalid(s, "fleet.shards");
  }
  {
    ScenarioSpec s;
    s.fleet.workload.sessions = 0;
    expect_invalid(s, "fleet.workload.sessions");
  }
  {
    ScenarioSpec s;
    s.fleet.workload.min_group_size = 3;
    expect_invalid(s, "fleet.workload.min_group_size");
  }
  {
    ScenarioSpec s;
    s.fleet.workload.max_group_size = 3;  // < min (4)
    expect_invalid(s, "fleet.workload.max_group_size");
  }
  for (const std::size_t devices :
       {std::size_t{65}, std::size_t{513}, std::size_t{1} << 20}) {
    // Above the wire codec's device cap: the generator would size n x n
    // matrices from it.
    ScenarioSpec s;
    s.fleet.workload.max_group_size = devices;
    expect_invalid(s, "fleet.workload.max_group_size: must be <= 64");
  }
  {
    ScenarioSpec s;
    s.fleet.workload.max_rounds = 0;
    expect_invalid(s, "fleet.workload.max_rounds");
  }
  {
    ScenarioSpec s;
    s.fleet.workload.force_kind = 9;
    expect_invalid(s, "fleet.workload.kind_mix");
  }
}

TEST(SpecValidate, TelemetryFieldsReportTheirPaths) {
  {
    ScenarioSpec s;
    s.telemetry.window_ticks = 0;
    expect_invalid(s, "telemetry.window_ticks");
  }
  {
    ScenarioSpec s;
    s.telemetry.trace.max_spans = 0;
    expect_invalid(s, "telemetry.trace.max_spans");
  }
  {
    ScenarioSpec s;
    s.telemetry.flight.capacity = (std::size_t{1} << 20) + 1;
    expect_invalid(s, "telemetry.flight.capacity");
  }
  {
    ScenarioSpec s;
    s.telemetry.flight.shed_burst = 0;
    expect_invalid(s, "telemetry.flight.shed_burst");
  }
}

TEST(SpecValidate, ControlIsServeOnly) {
  ScenarioSpec s;
  s.mode = RunMode::kServe;
  s.telemetry.enabled = true;
  s.control.enabled = true;
  EXPECT_TRUE(validate(s).empty());
  for (const RunMode mode : {RunMode::kFleet, RunMode::kRound}) {
    s.mode = mode;
    expect_invalid(s, "control.enabled");
  }
}

TEST(SpecValidate, AllErrorsAreCollectedNotJustTheFirst) {
  ScenarioSpec s;
  s.name.clear();
  s.sweep.trials = 0;
  s.des.rounds = 0;
  EXPECT_GE(validate(s).size(), 3u);
}

}  // namespace
}  // namespace uwp::config
