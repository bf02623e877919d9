// Workload generation for the fleet layer: a deterministic mix of
// positioning-group scenarios (static testbeds, lawnmower riders, waypoint
// tours, dropout/churn-prone groups, and a slice of full packet-level DES
// groups) in the shape a serving fleet would see. Every scenario is a pure
// function of (params.seed, session_id) via the SweepRunner's splitmix64
// stream discipline, so a workload regenerated from the same parameters —
// e.g. by the fleet trace replayer — is identical field for field.
#pragma once

#include <cstdint>
#include <vector>

#include "pipeline/arrival_error.hpp"
#include "pipeline/closed_form.hpp"

namespace uwp::sim {

enum class GroupScenarioKind : std::uint8_t {
  kStatic = 0,      // fixed geometry, every round measured
  kLawnmower = 1,   // some devices ride 1D triangle-wave tracks between rounds
  kWaypoint = 2,    // some devices tour waypoint loops between rounds
  kDropoutChurn = 3,  // static geometry, rounds randomly jammed (coasted)
  kPacketDes = 4,   // full packet-level DES front-end (des::DesSessionSource)
};

const char* to_string(GroupScenarioKind kind);

// Closed-form per-device motion, sampled at round starts by the fleet
// session (mirrors des::LawnmowerTrack / des::WaypointTrack so DES-backed
// sessions can share the same parameters).
struct GroupMotion {
  // Triangle-wave track (kLawnmower): ride from the origin along `axis` for
  // `span_m` and back at `speed_mps`, offset by `phase_s`. span_m == 0
  // means the device holds its origin.
  Vec3 axis{1.0, 0.0, 0.0};
  double span_m = 0.0;
  double speed_mps = 0.0;
  double phase_s = 0.0;
  // Waypoint loop (kWaypoint): >= 2 points toured at speed_mps; empty means
  // the device holds its origin.
  std::vector<Vec3> waypoints;
};

// One positioning group's full serving description: who it is, where its
// devices are and how they move, which error model its links see, and its
// lifecycle inside the fleet (admission tick, number of scheduled rounds).
struct GroupScenario {
  std::uint64_t session_id = 0;
  GroupScenarioKind kind = GroupScenarioKind::kStatic;
  pipeline::ClosedFormScene scene;  // geometry, audio, protocol, sensors
  std::vector<GroupMotion> motion;  // per device; empty for static kinds
  pipeline::ArrivalErrorModel arrival{};
  double sound_speed_error_mps = 22.0;
  // Per-round probability the round is jammed and the session coasts
  // (kDropoutChurn; 0 elsewhere).
  double dropout_prob = 0.0;
  // Lifecycle: the session is admitted at `admit_tick` and evicted after
  // `lifetime_rounds` scheduler ticks (each tick is one round or one coast).
  std::size_t admit_tick = 0;
  std::size_t lifetime_rounds = 8;
  double round_period_s = 2.0;  // tracker prediction interval between ticks
};

struct WorkloadParams {
  std::size_t sessions = 256;
  std::uint64_t seed = 0xF1EE7u;
  std::size_t min_group_size = 4;
  std::size_t max_group_size = 8;
  std::size_t min_rounds = 6;
  std::size_t max_rounds = 12;
  // Admission times are staggered uniformly over [0, admit_spread_ticks].
  std::size_t admit_spread_ticks = 4;
  // Include the packet-level DES slice (a few percent of sessions). Off
  // lets huge benches skip DES construction cost.
  bool include_des = true;
  // Force every session to one GroupScenarioKind (single-kind fleets for
  // targeted load tests and the per-kind example specs); -1 = the serving
  // mix. The kind draw still happens, so forcing never shifts a session's
  // geometry/audio/arrival draws relative to the mixed workload (draws in
  // the kind-dependent branch naturally follow the forced kind).
  int force_kind = -1;
};

// Largest group the generator builds: the fleet wire codec's device cap.
inline constexpr std::size_t kMaxGroupSize = 512;

// Why `params` cannot be generated, or nullptr when they can. Rejects group
// sizes outside [4, kMaxGroupSize], empty round ranges, round bounds or an
// admission spread above INT64_MAX (the generator's integer draws are
// signed), and a force_kind past the last GroupScenarioKind.
const char* workload_params_error(const WorkloadParams& params);

// The scenario for one session id; pure in (params, session_id). Throws
// std::invalid_argument when workload_params_error(params) is set.
GroupScenario make_group_scenario(const WorkloadParams& params, std::uint64_t session_id);

// All sessions of the workload, indexed by session id.
std::vector<GroupScenario> make_workload(const WorkloadParams& params);

}  // namespace uwp::sim
