#include "sim/fleet_workload.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "proto/slot_schedule.hpp"
#include "sim/deployment.hpp"
#include "sim/sweep.hpp"
#include "util/geometry.hpp"

namespace uwp::sim {

const char* to_string(GroupScenarioKind kind) {
  switch (kind) {
    case GroupScenarioKind::kStatic: return "static";
    case GroupScenarioKind::kLawnmower: return "lawnmower";
    case GroupScenarioKind::kWaypoint: return "waypoint";
    case GroupScenarioKind::kDropoutChurn: return "dropout-churn";
    case GroupScenarioKind::kPacketDes: return "packet-des";
  }
  return "?";
}

namespace {

// Serving mix (percent thresholds): mostly cheap closed-form groups with a
// thin slice of full packet-level DES sessions keeping the expensive path
// honest under fleet load.
GroupScenarioKind draw_kind(uwp::Rng& rng, bool include_des) {
  const std::int64_t d = rng.uniform_int(0, 99);
  if (d < 35) return GroupScenarioKind::kStatic;
  if (d < 60) return GroupScenarioKind::kLawnmower;
  if (d < 82) return GroupScenarioKind::kWaypoint;
  if (d < 95) return GroupScenarioKind::kDropoutChurn;
  return include_des ? GroupScenarioKind::kPacketDes : GroupScenarioKind::kStatic;
}

void add_lawnmower_motion(GroupScenario& sc, uwp::Rng& rng) {
  const std::size_t n = sc.scene.positions.size();
  sc.motion.assign(n, {});
  for (std::size_t i = 1; i < n; ++i) {
    if (!rng.bernoulli(0.5)) continue;
    GroupMotion& m = sc.motion[i];
    const double ang = rng.uniform(-kPi, kPi);
    m.axis = {std::cos(ang), std::sin(ang), 0.0};
    m.span_m = rng.uniform(4.0, 10.0);
    m.speed_mps = rng.uniform(0.2, 0.5);
    m.phase_s = rng.uniform(0.0, 2.0 * m.span_m / m.speed_mps);
  }
}

void add_waypoint_motion(GroupScenario& sc, uwp::Rng& rng) {
  const std::size_t n = sc.scene.positions.size();
  sc.motion.assign(n, {});
  for (std::size_t i = 1; i < n; ++i) {
    if (!rng.bernoulli(0.5)) continue;
    GroupMotion& m = sc.motion[i];
    const Vec3 origin = sc.scene.positions[i];
    const std::size_t points = static_cast<std::size_t>(rng.uniform_int(2, 3));
    m.waypoints.push_back(origin);
    for (std::size_t p = 1; p < points; ++p)
      m.waypoints.push_back({origin.x + rng.uniform(-5.0, 5.0),
                             origin.y + rng.uniform(-5.0, 5.0), origin.z});
    m.speed_mps = rng.uniform(0.2, 0.5);
  }
}

}  // namespace

const char* workload_params_error(const WorkloadParams& params) {
  constexpr auto kMaxDraw =
      static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());
  if (params.min_group_size < 4 || params.max_group_size < params.min_group_size ||
      params.max_group_size > kMaxGroupSize)
    return "bad group size range";
  if (params.min_rounds < 1 || params.max_rounds < params.min_rounds ||
      params.max_rounds > kMaxDraw)
    return "bad rounds range";
  if (params.admit_spread_ticks > kMaxDraw) return "admission spread out of range";
  if (params.force_kind > static_cast<int>(GroupScenarioKind::kPacketDes))
    return "force_kind out of range";
  return nullptr;
}

GroupScenario make_group_scenario(const WorkloadParams& params, std::uint64_t session_id) {
  if (const char* why = workload_params_error(params))
    throw std::invalid_argument(std::string("fleet workload: ") + why);

  // Same per-session stream discipline as SweepRunner trials: the scenario
  // depends only on (seed, session_id), never on generation order.
  uwp::Rng rng(trial_seed(params.seed, session_id));

  GroupScenario sc;
  sc.session_id = session_id;
  sc.kind = draw_kind(rng, params.include_des);
  if (params.force_kind >= 0) sc.kind = static_cast<GroupScenarioKind>(params.force_kind);

  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(params.min_group_size),
                      static_cast<std::int64_t>(params.max_group_size)));
  sc.scene.positions = random_analytical_topology(n, rng).positions;
  sc.scene.connectivity = Matrix(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) sc.scene.connectivity(i, i) = 0.0;
  sc.scene.audio.resize(n);
  for (std::size_t i = 0; i < n; ++i) sc.scene.audio[i] = random_audio_timing(rng);
  sc.scene.protocol.num_devices = n;

  sc.arrival.detection_failure_prob = rng.uniform(0.005, 0.03);

  switch (sc.kind) {
    case GroupScenarioKind::kStatic:
      break;
    case GroupScenarioKind::kLawnmower:
      add_lawnmower_motion(sc, rng);
      break;
    case GroupScenarioKind::kWaypoint:
      add_waypoint_motion(sc, rng);
      break;
    case GroupScenarioKind::kDropoutChurn:
      sc.dropout_prob = rng.uniform(0.15, 0.35);
      break;
    case GroupScenarioKind::kPacketDes:
      // The DES slice reuses the lawnmower tracks (nodes move *during*
      // rounds there) and needs a period long enough for the whole slot
      // schedule, worst-case relay chain included.
      add_lawnmower_motion(sc, rng);
      break;
  }

  sc.admit_tick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(params.admit_spread_ticks)));
  sc.lifetime_rounds = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(params.min_rounds),
                      static_cast<std::int64_t>(params.max_rounds)));
  if (sc.kind == GroupScenarioKind::kPacketDes)
    sc.round_period_s = proto::round_trip_worst_case(sc.scene.protocol) +
                        2.0 * sc.scene.protocol.t_packet_s + 1.0;
  return sc;
}

std::vector<GroupScenario> make_workload(const WorkloadParams& params) {
  std::vector<GroupScenario> out;
  out.reserve(params.sessions);
  for (std::uint64_t id = 0; id < params.sessions; ++id)
    out.push_back(make_group_scenario(params, id));
  return out;
}

}  // namespace uwp::sim
