#include "config/factory.hpp"

#include <memory>
#include <utility>

#include "channel/environment.hpp"
#include "des/mobility.hpp"

namespace uwp::config {

namespace {

channel::Environment environment_preset(EnvironmentPreset preset) {
  switch (preset) {
    case EnvironmentPreset::kPool:
      return channel::make_pool();
    case EnvironmentPreset::kDock:
      return channel::make_dock();
    case EnvironmentPreset::kViewpoint:
      return channel::make_viewpoint();
    case EnvironmentPreset::kBoathouse:
      return channel::make_boathouse();
  }
  return channel::make_dock();
}

sim::Deployment deployment_from_positions(const ScenarioSpec& spec,
                                          std::vector<Vec3> positions,
                                          uwp::Rng& rng) {
  sim::Deployment dep;
  dep.env = environment_preset(spec.deployment.environment);
  for (Vec3& p : positions) {
    sim::ScenarioDevice dev;
    dev.position = p;
    if (spec.deployment.random_audio) dev.audio = sim::random_audio_timing(rng);
    dep.devices.push_back(dev);
  }
  dep.protocol.num_devices = dep.devices.size();
  dep.connect_all();
  return dep;
}

}  // namespace

sim::Deployment make_deployment(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  uwp::Rng rng(spec.deployment.seed);
  sim::Deployment dep;
  switch (spec.deployment.preset) {
    case DeploymentPreset::kDock:
      dep = sim::make_dock_testbed(rng);
      break;
    case DeploymentPreset::kBoathouse:
      dep = sim::make_boathouse_testbed(rng);
      break;
    case DeploymentPreset::kAnalytical:
      dep = deployment_from_positions(
          spec,
          sim::random_analytical_topology(spec.deployment.devices, rng).positions,
          rng);
      break;
    case DeploymentPreset::kExplicit:
      dep = deployment_from_positions(spec, spec.deployment.positions, rng);
      break;
  }
  // Protocol timing from the spec; the true sound speed is environment
  // physics and stays with the deployment (ScenarioRunner::scene overrides
  // it from env for the acoustic drivers).
  dep.protocol.delta0_s = spec.protocol.delta0_s;
  dep.protocol.t_packet_s = spec.protocol.t_packet_s;
  dep.protocol.t_guard_s = spec.protocol.t_guard_s;
  dep.protocol.fs_hz = spec.protocol.fs_hz;
  return dep;
}

sim::ScenarioRunner make_scenario_runner(const ScenarioSpec& spec) {
  return sim::ScenarioRunner(make_deployment(spec));
}

sim::RoundOptions make_round_options(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  return spec.round;
}

des::DesScenario make_des_scenario(const ScenarioSpec& spec) {
  const sim::Deployment dep = make_deployment(spec);  // validates
  const std::size_t n = dep.size();

  des::DesScenarioConfig cfg;
  cfg.protocol = spec.protocol;  // DES is protocol-level: spec speed wholesale
  cfg.protocol.num_devices = n;
  cfg.rounds = spec.des.rounds;
  cfg.round_period_s = spec.des.round_period_s;
  cfg.max_range_m = spec.des.max_range_m;
  cfg.ideal_arrivals = spec.des.ideal_arrivals;
  cfg.arrival = spec.round.fast_arrival;
  cfg.quantize_payload = spec.round.quantize_payload;
  cfg.sound_speed_error_mps = spec.round.sound_speed_error_mps;
  cfg.depth_sensor = spec.round.depth_sensor;
  cfg.pointing = spec.round.pointing;
  cfg.localizer = spec.round.localizer;
  cfg.tracker = spec.des.tracker;

  std::vector<Vec3> origins;
  std::vector<audio::AudioTimingConfig> audio;
  for (const sim::ScenarioDevice& dev : dep.devices) {
    origins.push_back(dev.position);
    audio.push_back(dev.audio);
  }

  // Mobility: validated to be all-lawnmower or all-waypoint (or static).
  bool waypoint = false;
  for (const MotionSpec& m : spec.des.motion)
    if (m.motion.waypoints.size() >= 2) waypoint = true;
  std::shared_ptr<const des::MobilityModel> mobility;
  if (spec.des.motion.empty()) {
    mobility = std::make_shared<des::StaticMobility>(std::move(origins));
  } else if (waypoint) {
    auto mob = std::make_shared<des::WaypointMobility>(std::move(origins));
    for (const MotionSpec& m : spec.des.motion) {
      des::WaypointTrack track;
      track.waypoints = m.motion.waypoints;
      track.speed_mps = m.motion.speed_mps;
      mob->set_track(m.node, std::move(track));
    }
    mobility = std::move(mob);
  } else {
    auto mob = std::make_shared<des::LawnmowerMobility>(std::move(origins));
    for (const MotionSpec& m : spec.des.motion) {
      des::LawnmowerTrack track;
      track.direction = m.motion.axis;
      track.span_m = m.motion.span_m;
      track.speed_mps = m.motion.speed_mps;
      track.phase_s = m.motion.phase_s;
      mob->set_track(m.node, track);
    }
    mobility = std::move(mob);
  }

  return des::DesScenario(std::move(cfg), std::move(mobility), std::move(audio),
                          dep.connectivity);
}

sim::WorkloadParams workload_params(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  return spec.fleet.workload;
}

std::vector<sim::GroupScenario> make_workload(const ScenarioSpec& spec) {
  return sim::make_workload(workload_params(spec));
}

fleet::FleetService make_fleet_service(const ScenarioSpec& spec) {
  return fleet::FleetService(spec.fleet.options, make_workload(spec));
}

fleet::Server make_fleet_server(const ScenarioSpec& spec) {
  fleet::ServerOptions opts = spec.fleet.server.options;
  opts.master_seed = spec.fleet.options.master_seed;
  opts.measure_latency = spec.fleet.options.measure_latency;
  return fleet::Server(opts, make_workload(spec));
}

sim::SweepRunner make_sweep(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  return sim::SweepRunner(spec.sweep);
}

telemetry::TelemetryOptions make_telemetry_options(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  telemetry::TelemetryOptions opts;
  opts.enabled = spec.telemetry.enabled;
  opts.timing = spec.telemetry.timing;
  // Counter windows are specified in scheduler ticks. The fleet service
  // stamps virtual time in tick units; the serve path stamps frame t_s,
  // which advances tick_period_s per tick — scale so both modes window the
  // same virtual timeline and their counter sections stay comparable.
  opts.window = static_cast<double>(spec.telemetry.window_ticks);
  if (spec.mode == RunMode::kServe) opts.window *= spec.fleet.server.tick_period_s;
  opts.trace = spec.telemetry.trace.enabled;
  opts.trace_max_spans = spec.telemetry.trace.max_spans;
  opts.flight = spec.telemetry.flight;
  return opts;
}

control::ControlConfig make_control_config(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  return spec.control.config;
}

control::ShardControls make_control_baseline(const ScenarioSpec& spec) {
  validate_or_throw(spec);
  control::ShardControls base;
  // The shaper knobs start at the configured shaping section (the tuner is
  // inert when that section's rate is 0).
  const fleet::ShaperOptions& sh = spec.fleet.server.options.shaping;
  base.shaper_rate = sh.rate_rounds_per_s;
  base.shaper_burst = sh.burst_rounds;
  base.shaper_max_defers = sh.max_defers;
  return base;
}

}  // namespace uwp::config
