#include "fleet/session.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "des/session_source.hpp"
#include "fleet/recorder.hpp"
#include "sim/sweep.hpp"
#include "telemetry/collector.hpp"

namespace uwp::fleet {

std::uint64_t session_stream_seed(std::uint64_t master_seed, std::uint64_t session_id,
                                  std::uint64_t stream) {
  return sim::trial_seed(master_seed ^ stream, session_id);
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, double v) { fnv_mix(h, std::bit_cast<std::uint64_t>(v)); }

// --- SessionMetrics ---------------------------------------------------------

void SessionMetrics::note_coast() {
  ++coasts;
  fnv_mix(digest, static_cast<std::uint64_t>(2));
}

void SessionMetrics::note_round(const pipeline::RoundOutput& out) {
  ++rounds;
  fnv_mix(digest, static_cast<std::uint64_t>(1));
  fnv_mix(digest, static_cast<std::uint64_t>(out.localized ? 1 : 0));
  if (out.localized) {
    ++localized;
    // Stress is only folded in when this round produced it; on a failed
    // round the localization buffer may hold a previous tenant's values
    // (pipelines are arena-reused), which must never leak into the digest.
    fnv_mix(digest, out.localization.normalized_stress);
  }
  for (const double e : out.error_2d) fnv_mix(digest, e);
  for (const double e : out.tracked_error_2d) fnv_mix(digest, e);
  for (std::size_t i = 1; i < out.error_2d.size(); ++i) {
    if (std::isnan(out.error_2d[i])) continue;
    errors.push_back(out.error_2d[i]);
    error_sum += out.error_2d[i];
  }
}

bool SessionMetrics::bit_equal(const SessionMetrics& o) const {
  if (session_id != o.session_id || kind != o.kind || rounds != o.rounds ||
      localized != o.localized || coasts != o.coasts || digest != o.digest ||
      errors.size() != o.errors.size())
    return false;
  for (std::size_t i = 0; i < errors.size(); ++i)
    if (std::bit_cast<std::uint64_t>(errors[i]) !=
        std::bit_cast<std::uint64_t>(o.errors[i]))
      return false;
  return true;
}

FleetResult finalize_fleet_result(std::vector<SessionMetrics> sessions) {
  FleetResult out;
  out.sessions = std::move(sessions);
  std::size_t total = 0;
  for (const SessionMetrics& s : out.sessions) total += s.errors.size();
  out.errors.reserve(total);
  for (const SessionMetrics& s : out.sessions) {
    out.rounds += s.rounds;
    out.localized += s.localized;
    out.coasts += s.coasts;
    out.errors.insert(out.errors.end(), s.errors.begin(), s.errors.end());
    fnv_mix(out.fleet_digest, s.digest);
  }
  out.summary = summarize(out.errors);
  return out;
}

// --- ShardArena -------------------------------------------------------------

std::unique_ptr<SessionRuntime> ShardArena::lease(const pipeline::PipelineOptions& opts) {
  ++leases_;
  if (telemetry_ != nullptr) telemetry_->count(telemetry::Counter::kArenaLeases);
  const std::size_t n = opts.protocol.num_devices;

  if (n < free_by_size_.size() && !free_by_size_[n].empty()) {
    std::unique_ptr<SessionRuntime> rt = std::move(free_by_size_[n].back());
    free_by_size_[n].pop_back();
    rt->pipe.rebind(opts);
    ++reuses_;
    if (telemetry_ != nullptr) {
      telemetry_->sample(telemetry::Sample::kArenaReuse, 1.0);
      telemetry_->sample(telemetry::Sample::kArenaFreeHit, double(n));
    }
    return rt;
  }

  if (telemetry_ != nullptr)
    telemetry_->sample(telemetry::Sample::kArenaFreeMiss, double(n));
  return std::make_unique<SessionRuntime>(opts);
}

void ShardArena::release(std::unique_ptr<SessionRuntime> rt) {
  if (rt == nullptr) return;
  const std::size_t n = rt->pipe.options().protocol.num_devices;
  if (n >= free_by_size_.size()) free_by_size_.resize(n + 1);
  free_by_size_[n].push_back(std::move(rt));
}

void check_workload(const std::vector<sim::GroupScenario>& workload, const char* owner) {
  for (std::size_t i = 0; i < workload.size(); ++i) {
    if (workload[i].session_id != i)
      throw std::invalid_argument(std::string(owner) + ": workload session_id != index");
    if (workload[i].lifetime_rounds == 0)
      throw std::invalid_argument(std::string(owner) + ": lifetime_rounds must be >= 1");
  }
}

pipeline::PipelineOptions pipeline_options_for(const sim::GroupScenario& sc) {
  pipeline::PipelineOptions opts;
  opts.protocol = sc.scene.protocol;
  opts.quantize_payload = true;
  opts.sound_speed_error_mps = sc.sound_speed_error_mps;
  opts.track = true;
  return opts;
}

// --- MeasurementFeed --------------------------------------------------------

namespace {

std::shared_ptr<const des::MobilityModel> make_lawnmower(
    const std::vector<Vec3>& origins, const std::vector<sim::GroupMotion>& motion) {
  auto mob = std::make_shared<des::LawnmowerMobility>(origins);
  for (std::size_t i = 0; i < motion.size(); ++i) {
    if (motion[i].span_m <= 0.0) continue;
    des::LawnmowerTrack track;
    track.direction = motion[i].axis;
    track.span_m = motion[i].span_m;
    track.speed_mps = motion[i].speed_mps;
    track.phase_s = motion[i].phase_s;
    mob->set_track(i, track);
  }
  return mob;
}

std::shared_ptr<const des::MobilityModel> make_waypoint(
    const std::vector<Vec3>& origins, const std::vector<sim::GroupMotion>& motion) {
  auto mob = std::make_shared<des::WaypointMobility>(origins);
  for (std::size_t i = 0; i < motion.size(); ++i) {
    if (motion[i].waypoints.size() < 2) continue;
    des::WaypointTrack track;
    track.waypoints = motion[i].waypoints;
    track.speed_mps = motion[i].speed_mps;
    mob->set_track(i, track);
  }
  return mob;
}

}  // namespace

MeasurementFeed::MeasurementFeed(const sim::GroupScenario& scenario,
                                 std::uint64_t master_seed)
    : sc_(&scenario),
      rng_(session_stream_seed(master_seed, scenario.session_id, kMeasurementStream)) {}

void MeasurementFeed::open() {
  if (sc_->kind == sim::GroupScenarioKind::kPacketDes) {
    des::DesScenarioConfig cfg;
    cfg.protocol = sc_->scene.protocol;
    cfg.round_period_s = sc_->round_period_s;
    cfg.arrival = sc_->arrival;
    cfg.depth_sensor = sc_->scene.depth_sensor;
    cfg.pointing = sc_->scene.pointing;
    model_ = std::make_unique<des::DesSessionSource>(
        cfg, make_lawnmower(sc_->scene.positions, sc_->motion), sc_->scene.audio,
        sc_->scene.connectivity);
  } else {
    auto fast =
        std::make_unique<pipeline::FastMeasurementModel>(sc_->scene, sc_->arrival);
    closed_form_ = fast.get();
    model_ = std::move(fast);
    if (sc_->kind == sim::GroupScenarioKind::kLawnmower)
      mobility_ = make_lawnmower(sc_->scene.positions, sc_->motion);
    else if (sc_->kind == sim::GroupScenarioKind::kWaypoint)
      mobility_ = make_waypoint(sc_->scene.positions, sc_->motion);
  }
}

void MeasurementFeed::close() {
  model_.reset();
  mobility_.reset();
  closed_form_ = nullptr;
}

MeasurementFeed::Event MeasurementFeed::next(pipeline::RoundMeasurement& out) {
  // Jammed round (dropout/churn groups): no measurement exists, so nothing
  // reaches the wire; the serving side coasts its tracker.
  if (sc_->dropout_prob > 0.0 && rng_.bernoulli(sc_->dropout_prob)) {
    ++events_done_;
    return Event::kCoast;
  }
  // Closed-form motion advances between rounds (the DES front-end moves
  // its nodes itself, during rounds).
  if (mobility_ != nullptr && closed_form_ != nullptr) {
    const double t = static_cast<double>(events_done_) * sc_->round_period_s;
    std::vector<Vec3>& pos = closed_form_->positions();
    for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = mobility_->position(i, t);
  }
  model_->measure(out, rng_);
  ++events_done_;
  return Event::kMeasurement;
}

// --- SessionConsumer --------------------------------------------------------

SessionConsumer::SessionConsumer(const sim::GroupScenario& scenario,
                                 std::uint64_t master_seed)
    : sc_(&scenario),
      solve_rng_(session_stream_seed(master_seed, scenario.session_id, kSolverStream)) {
  metrics_.session_id = scenario.session_id;
  metrics_.kind = scenario.kind;
}

void SessionConsumer::admit(ShardArena& arena, SessionRecorder* recorder,
                            telemetry::ShardStream* telemetry) {
  arena_ = &arena;
  recorder_ = recorder;
  telemetry_ = telemetry;
  rt_ = arena.lease(pipeline_options_for(*sc_));
  rt_->pipe.set_telemetry(telemetry);
  state_ = SessionState::kActive;
  if (recorder_ != nullptr) recorder_->on_admit(*sc_);
  if (telemetry_ != nullptr) {
    telemetry_->count(telemetry::Counter::kAdmits);
    telemetry_->count(telemetry::Counter::kAdmitDevices, sc_->scene.protocol.num_devices);
  }
}

void SessionConsumer::coast(double dt_s) {
  rt_->pipe.coast(dt_s);
  metrics_.note_coast();
  if (recorder_ != nullptr) recorder_->on_coast(sc_->session_id, dt_s);
  if (telemetry_ != nullptr) telemetry_->count(telemetry::Counter::kCoasts);
}

void SessionConsumer::decode(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  decode_measurement(bytes, pos, rt_->meas);
  if (rt_->meas.protocol.timestamps.rows() != sc_->scene.protocol.num_devices)
    throw WireError("session " + std::to_string(sc_->session_id) +
                    ": measurement device count != session's");
}

const RoundRecord& SessionConsumer::round(std::uint32_t index, double dt_s,
                                          std::vector<double>* latencies) {
  const std::uint64_t id = sc_->session_id;
  if (recorder_ != nullptr) recorder_->on_measurement(id, index, dt_s, rt_->meas);
  if (telemetry_ != nullptr && telemetry_->trace_enabled())
    rt_->pipe.set_trace(telemetry::make_trace_id(id, index));

  const auto t0 = std::chrono::steady_clock::now();
  const pipeline::RoundOutput& out = rt_->pipe.run_round(rt_->meas, solve_rng_, dt_s);
  if (latencies != nullptr)
    latencies->push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

  metrics_.note_round(out);
  record_.round = index;
  record_.localized = out.localized;
  record_.normalized_stress = out.localized ? out.localization.normalized_stress : 0.0;
  record_.error_2d = out.error_2d;
  record_.tracked_error_2d = out.tracked_error_2d;
  if (recorder_ != nullptr) recorder_->on_round_result(id, record_);
  return record_;
}

void SessionConsumer::evict() {
  if (state_ == SessionState::kActive) {
    arena_->release(std::move(rt_));
    if (telemetry_ != nullptr) {
      telemetry_->count(telemetry::Counter::kEvicts);
      telemetry_->count(telemetry::Counter::kEvictDevices,
                        sc_->scene.protocol.num_devices);
    }
  }
  state_ = SessionState::kEvicted;
}

// --- Session ----------------------------------------------------------------

Session::Session(const sim::GroupScenario& scenario, std::uint64_t master_seed)
    : feed_(scenario, master_seed), consumer_(scenario, master_seed) {}

void Session::tick(std::size_t tick, ShardArena& arena, SessionRecorder* recorder,
                   std::vector<double>* latencies,
                   telemetry::ShardStream* telemetry) {
  if (consumer_.state() == SessionState::kEvicted) return;
  if (consumer_.state() == SessionState::kPending) {
    if (tick < feed_.scenario().admit_tick) return;
    consumer_.admit(arena, recorder, telemetry);
    feed_.open();
  }

  const double dt = feed_.next_dt_s();
  if (feed_.next(consumer_.measurement()) == MeasurementFeed::Event::kCoast) {
    consumer_.coast(dt);
  } else {
    const auto index = static_cast<std::uint32_t>(consumer_.metrics().rounds);
    consumer_.round(index, dt, latencies);
  }

  if (feed_.exhausted()) {
    feed_.close();
    consumer_.evict();
  }
}

}  // namespace uwp::fleet
