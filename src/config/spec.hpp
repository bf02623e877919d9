// ScenarioSpec: the one declarative description every driver is built from.
// A spec is configs-as-data — channel/environment, deployment geometry,
// mobility, arrival-error mode, sensors, solver/localizer, protocol timing,
// DES toggles, and the fleet workload mix — serialized as JSON with exact
// (bit-level) double round trips and validated with path-qualified errors
// ("fleet.workload.max_group_size: must be >= min_group_size").
//
// The programmatic option structs the drivers already take
// (sim::RoundOptions, proto::ProtocolConfig, des-style toggles,
// sim::SweepOptions, fleet::FleetOptions, sim::WorkloadParams) are the
// spec's *backing fields*, so a driver built from a spec is the same object
// a hand-wired main would construct — bit-identical results, pinned by
// tests/config/. Factories live in config/factory.hpp; the uwp_run CLI
// (tools/uwp_run.cpp) is the standard way to execute a spec file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/json.hpp"
#include "core/tracker.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "proto/slot_schedule.hpp"
#include "sim/fleet_workload.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/geometry.hpp"

namespace uwp::config {

// Thrown on structural spec errors (bad type, unknown key, bad enum string,
// failed validation); `path()` is the dotted field path, "" for file-level
// problems.
class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& path, const std::string& what)
      : std::runtime_error(path.empty() ? what : path + ": " + what), path_(path) {}

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Which driver uwp_run executes by default (overridable with --mode).
enum class RunMode : std::uint8_t {
  kRound = 0,  // one localization round through sim::ScenarioRunner
  kSweep = 1,  // Monte-Carlo sweep of rounds via sim::SweepRunner
  kDes = 2,    // packet-level multi-round des::DesScenario
  kFleet = 3,  // many-session fleet::FleetService serving run
  kServe = 4,  // the same workload streamed through fleet::Server
};
const char* to_string(RunMode mode);

enum class DeploymentPreset : std::uint8_t {
  kDock = 0,        // sim::make_dock_testbed (Fig 17a)
  kBoathouse = 1,   // sim::make_boathouse_testbed (Fig 17b)
  kAnalytical = 2,  // sim::random_analytical_topology(devices)
  kExplicit = 3,    // positions given verbatim in the spec
};
const char* to_string(DeploymentPreset preset);

// channel::Environment presets (§3 sites). Only consulted for analytical /
// explicit deployments; the dock and boathouse testbeds carry their own.
enum class EnvironmentPreset : std::uint8_t {
  kPool = 0,
  kDock = 1,
  kViewpoint = 2,
  kBoathouse = 3,
};
const char* to_string(EnvironmentPreset preset);

struct DeploymentSpec {
  DeploymentPreset preset = DeploymentPreset::kDock;
  EnvironmentPreset environment = EnvironmentPreset::kDock;
  // Seed for every deployment-time draw: preset audio-clock offsets/skews,
  // analytical topology geometry.
  std::uint64_t seed = 2023;
  std::size_t devices = 5;           // kAnalytical: N including the leader
  std::vector<Vec3> positions;       // kExplicit: z = depth (m)
  // kAnalytical/kExplicit: draw per-device audio clocks with
  // sim::random_audio_timing (true) or run ideal zero-offset clocks (false).
  bool random_audio = true;
};

// One device's closed-form or DES motion (backing sim::GroupMotion).
struct MotionSpec {
  std::size_t node = 0;
  sim::GroupMotion motion;
};

// Packet-level DES toggles; everything the DES shares with the closed form
// (arrival errors, sensors, localizer, quantization) lives in `round`.
struct DesSpec {
  std::size_t rounds = 10;
  double round_period_s = 0.0;  // 0 = auto (worst-case relay round trip)
  double max_range_m = 0.0;     // medium range gate (0 = connectivity only)
  bool ideal_arrivals = false;  // cross-validation setting
  core::TrackerConfig tracker{};
  std::vector<MotionSpec> motion;  // lawnmower or waypoint tracks, by node
};

// Serve-mode knobs (fleet.server): the ingest server's worker/queue shape
// and the admission/shaping policy. The server's master_seed and
// measure_latency always mirror fleet.options — one seed drives both the
// synchronous and the streamed run of a workload, which is what makes the
// serve-vs-fleet bit-identity checkable from one spec.
struct ServeSpec {
  fleet::ServerOptions options{};
  // Virtual seconds per feeder tick (the ingest clock's granularity).
  double tick_period_s = 1.0;
  // RingBufferTransport capacity for the in-process serve driver.
  std::size_t transport_capacity = 256;
};

struct FleetSpec {
  fleet::FleetOptions options{};
  sim::WorkloadParams workload{};
  ServeSpec server{};
};

// Telemetry section (fleet/serve modes): configures the telemetry::Collector
// a run attaches to its shard/worker loops. Counters are windowed on the
// workload's virtual clock, so the emitted "counters" section is
// bit-identical at any shard/worker/thread count; spans and queue-depth
// samples ride the lossy ring and land in the run-varying "timing" section
// (src/telemetry/README.md spells out the contract).
struct TelemetrySpec {
  bool enabled = false;
  // false: keep counters but skip every clock read (no span histograms) —
  // the near-zero-overhead setting for production-shaped benchmarks.
  bool timing = true;
  // Counter window width in scheduler ticks. Serve mode scales it by
  // fleet.server.tick_period_s so both modes window the same virtual
  // timeline (make_telemetry_options).
  std::size_t window_ticks = 16;
  // Per-stream event ring capacity (rounded up to a power of two). Overflow
  // drops events — counted, never blocking the hot path.
  std::size_t ring_capacity = 1 << 15;
  // Causal round traces (telemetry.trace{}): per-round spans chaining
  // ingest -> queue -> pipeline stages, exported as Chrome
  // trace-event JSON by `uwp_run --trace-spans-out` (which force-enables
  // this). Span structure is deterministic; wall-clock timing is not.
  struct TraceSpec {
    bool enabled = false;
    // Per-stream recorded-span cap (safety valve for soak runs).
    std::size_t max_spans = 1 << 20;
  };
  TraceSpec trace{};
  // Flight recorder (telemetry.flight{}): bounded per-stream ring of
  // recently drained events, dumped on anomaly triggers. Thresholds are
  // counter deltas per telemetry window.
  struct FlightSpec {
    std::size_t capacity = 256;  // retained events per stream; 0 disables
    std::size_t max_dumps = 4;   // dump budget per stream
    std::size_t evict_storm = 8;
    std::size_t shed_burst = 16;
    std::size_t localize_failures = 8;
  };
  FlightSpec flight{};
};

// Control section (serve mode only): the self-tuning control plane
// (src/control/README.md). When enabled (requires telemetry.enabled), the
// ingest server folds each closed counter window through the shaper tuner
// and retunes the token bucket's rate/burst/defer budget. The window length
// is the telemetry window (telemetry.window_ticks); every decision is a
// pure function of (window index, counter snapshot, this section), so the
// emitted ControlLog is byte-identical at any worker/thread count.
struct ControlSpec {
  bool enabled = false;
  // Shaper tuner: multiplicative rate step per pressured window and the cap
  // (baseline rate x multiplier).
  double rate_step = 1.25;
  double rate_max_multiplier = 4.0;
};

struct ScenarioSpec {
  std::string name = "scenario";
  RunMode mode = RunMode::kRound;
  DeploymentSpec deployment{};
  // The whole per-round model: waveform vs fast arrival errors, payload
  // quantization, sound-speed misconfiguration, sensors, localizer.
  sim::RoundOptions round{};
  // Protocol timing (delta0 / t_packet / t_guard / fs). For round/sweep
  // modes the water's true sound speed still comes from the deployment's
  // environment (ScenarioRunner::scene); DES runs use this config wholesale.
  proto::ProtocolConfig protocol{};
  DesSpec des{};
  sim::SweepOptions sweep{};
  FleetSpec fleet{};
  TelemetrySpec telemetry{};
  ControlSpec control{};
};

// --- serialization ----------------------------------------------------------

// Full-fidelity JSON tree (every field emitted, insertion-ordered).
// `hexfloat` switches double formatting to hexfloat strings; both forms
// round-trip bit-exactly (config/json.hpp).
Json to_json(const ScenarioSpec& spec, bool hexfloat = false);

// Strict reader: unknown keys, wrong types, and bad enum strings throw
// SpecError with the offending field's path. Absent fields keep their
// C++ defaults. Does NOT run validate() — parse and validation errors stay
// separable for testing.
ScenarioSpec spec_from_json(const Json& v);

std::string write_spec(const ScenarioSpec& spec, bool hexfloat = false);
ScenarioSpec parse_spec(std::string_view json_text);  // parse only
ScenarioSpec load_spec(const std::string& path);      // parse + validate
void save_spec(const ScenarioSpec& spec, const std::string& path,
               bool hexfloat = false);

// --- validation -------------------------------------------------------------

// Every violated constraint as "path: message", empty when the spec is
// runnable. Factories call validate_or_throw first, so a malformed spec
// fails with the full list before any driver is constructed.
std::vector<std::string> validate(const ScenarioSpec& spec);
void validate_or_throw(const ScenarioSpec& spec);

// Device count the spec's deployment resolves to (positions for explicit,
// `devices` for analytical, 5 for the testbed presets).
std::size_t deployment_device_count(const ScenarioSpec& spec);

// Exact structural equality, bit-level for every double (NaN == NaN): the
// definition of "round trip is exact" used by the spec tests.
bool bit_equal(const ScenarioSpec& a, const ScenarioSpec& b);

}  // namespace uwp::config
