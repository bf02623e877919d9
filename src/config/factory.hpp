// Factories: one validated ScenarioSpec constructs any driver in the stack.
// Every factory validates first (throwing SpecError with the full
// path-qualified error list) and then builds exactly the object a hand-wired
// main would have: the spec's backing structs are passed through untouched,
// so spec-built runs are bit-identical to programmatic ones (pinned by
// tests/config/factory_test.cpp).
#pragma once

#include <vector>

#include "config/spec.hpp"
#include "control/engine.hpp"
#include "des/scenario.hpp"
#include "fleet/service.hpp"
#include "sim/deployment.hpp"
#include "sim/fleet_workload.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "telemetry/collector.hpp"

namespace uwp::config {

// The deployment the spec describes: the named testbed (dock/boathouse,
// audio clocks drawn from deployment.seed), a random analytical topology,
// or the explicit position list; protocol timing knobs applied from
// spec.protocol (the true sound speed stays environment-derived for the
// acoustic drivers).
sim::Deployment make_deployment(const ScenarioSpec& spec);

// Closed-form/waveform driver: ScenarioRunner over make_deployment plus the
// spec's per-round options.
sim::ScenarioRunner make_scenario_runner(const ScenarioSpec& spec);
sim::RoundOptions make_round_options(const ScenarioSpec& spec);

// Packet-level driver: DesScenario over the same deployment geometry, with
// mobility assembled from des.motion (static / lawnmower / waypoint) and the
// shared round-model knobs (arrival errors, sensors, localizer) from
// spec.round.
des::DesScenario make_des_scenario(const ScenarioSpec& spec);

// Fleet driver: the workload mix (sim::make_workload on the spec's backing
// WorkloadParams — field-for-field identical to the programmatic call) and
// a FleetService serving it.
sim::WorkloadParams workload_params(const ScenarioSpec& spec);
std::vector<sim::GroupScenario> make_workload(const ScenarioSpec& spec);
fleet::FleetService make_fleet_service(const ScenarioSpec& spec);

// Serving front-end over the same workload: fleet::Server configured from
// fleet.server, with master_seed and measure_latency mirrored from
// fleet.options so the streamed run is comparable (bit-identical when
// shaping is off) to make_fleet_service's.
fleet::Server make_fleet_server(const ScenarioSpec& spec);

// Monte-Carlo sweep configured from spec.sweep.
sim::SweepRunner make_sweep(const ScenarioSpec& spec);

// Collector options from the telemetry section. The spec's window_ticks is
// converted to the mode's virtual-time unit: fleet runs stamp tick indices,
// serve runs stamp frame t_s (tick_period_s per tick), so the serve window
// is scaled by tick_period_s — same windows on the same virtual timeline.
telemetry::TelemetryOptions make_telemetry_options(const ScenarioSpec& spec);

// Shaper-tuner config from the control section. The fold's window length
// is the collector's (telemetry.window_ticks): the engine consumes the
// counter plane's own windows, so the two cannot be sized apart.
control::ControlConfig make_control_config(const ScenarioSpec& spec);

// The knob bundle the control fold starts from, seeded from
// fleet.server.options.shaping.
control::ShardControls make_control_baseline(const ScenarioSpec& spec);

}  // namespace uwp::config
