#include "config/spec.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace uwp::config {

const char* to_string(RunMode mode) {
  switch (mode) {
    case RunMode::kRound:
      return "round";
    case RunMode::kSweep:
      return "sweep";
    case RunMode::kDes:
      return "des";
    case RunMode::kFleet:
      return "fleet";
    case RunMode::kServe:
      return "serve";
  }
  return "?";
}

const char* to_string(DeploymentPreset preset) {
  switch (preset) {
    case DeploymentPreset::kDock:
      return "dock";
    case DeploymentPreset::kBoathouse:
      return "boathouse";
    case DeploymentPreset::kAnalytical:
      return "analytical";
    case DeploymentPreset::kExplicit:
      return "explicit";
  }
  return "?";
}

const char* to_string(EnvironmentPreset preset) {
  switch (preset) {
    case EnvironmentPreset::kPool:
      return "pool";
    case EnvironmentPreset::kDock:
      return "dock";
    case EnvironmentPreset::kViewpoint:
      return "viewpoint";
    case EnvironmentPreset::kBoathouse:
      return "boathouse";
  }
  return "?";
}

namespace {

const char* to_string(phy::MicMode mode) {
  switch (mode) {
    case phy::MicMode::kDual:
      return "dual";
    case phy::MicMode::kMic1Only:
      return "mic1";
    case phy::MicMode::kMic2Only:
      return "mic2";
  }
  return "?";
}

const char* kind_mix_string(int force_kind) {
  if (force_kind < 0) return "mixed";
  return sim::to_string(static_cast<sim::GroupScenarioKind>(force_kind));
}

// --- strict object reader ---------------------------------------------------
// Tracks which keys were consumed so unknown fields fail with their path —
// a typo'd knob must never silently fall back to a default.

class ObjectReader {
 public:
  ObjectReader(const Json& v, std::string path) : v_(v), path_(std::move(path)) {
    if (!v_.is_object()) throw SpecError(path_, "expected an object");
    used_.assign(v_.members().size(), false);
  }

  std::string sub(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const Json* take(const char* key) {
    const std::vector<Json::Member>& ms = v_.members();
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].first != key) continue;
      used_[i] = true;
      return &ms[i].second;
    }
    return nullptr;
  }

  void finish() const {
    const std::vector<Json::Member>& ms = v_.members();
    for (std::size_t i = 0; i < ms.size(); ++i)
      if (!used_[i]) throw SpecError(sub(ms[i].first), "unknown field");
  }

  void read(const char* key, bool& out) {
    if (const Json* j = take(key)) {
      if (!j->is_bool()) throw SpecError(sub(key), "expected a bool");
      out = j->as_bool();
    }
  }

  void read(const char* key, double& out) {
    if (const Json* j = take(key)) {
      if (!json_as_double(*j, out))
        throw SpecError(sub(key), "expected a number (or nan/inf/hexfloat string)");
    }
  }

  // One reader for every unsigned integral field. A template rather than
  // overloads because std::uint64_t seeds and std::size_t counts are the
  // same type on LP64 (the exact-match overloads above still win for bool,
  // double, int, and string fields).
  template <typename T>
  void read(const char* key, T& out) {
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
    if (const Json* j = take(key)) {
      std::uint64_t v = 0;
      if (!json_as_u64(*j, v))
        throw SpecError(sub(key), "expected an unsigned integer");
      out = static_cast<T>(v);
    }
  }

  void read(const char* key, int& out) {
    if (const Json* j = take(key)) {
      double d = 0.0;
      if (!json_as_double(*j, d) || d != std::floor(d) || d < -2147483648.0 ||
          d > 2147483647.0)
        throw SpecError(sub(key), "expected an integer");
      out = static_cast<int>(d);
    }
  }

  void read(const char* key, std::string& out) {
    if (const Json* j = take(key)) {
      if (!j->is_string()) throw SpecError(sub(key), "expected a string");
      out = j->as_string();
    }
  }

  // Enum field: match the string against to_string(values...).
  template <typename Enum, std::size_t N>
  void read_enum(const char* key, Enum& out, const Enum (&values)[N]) {
    const Json* j = take(key);
    if (j == nullptr) return;
    if (!j->is_string()) throw SpecError(sub(key), "expected a string");
    std::string choices;
    for (const Enum v : values) {
      if (j->as_string() == to_string(v)) {
        out = v;
        return;
      }
      if (!choices.empty()) choices += "|";
      choices += to_string(v);
    }
    throw SpecError(sub(key), "unknown value \"" + j->as_string() + "\" (expected " +
                                  choices + ")");
  }

 private:
  const Json& v_;
  std::string path_;
  std::vector<bool> used_;
};

double require_double(const Json& j, const std::string& path) {
  double out = 0.0;
  if (!json_as_double(j, out))
    throw SpecError(path, "expected a number (or nan/inf/hexfloat string)");
  return out;
}

Json vec3_to_json(const Vec3& v, bool hex) {
  Json arr = Json::array();
  arr.push_back(double_to_json(v.x, hex));
  arr.push_back(double_to_json(v.y, hex));
  arr.push_back(double_to_json(v.z, hex));
  return arr;
}

Vec3 vec3_from_json(const Json& j, const std::string& path) {
  if (!j.is_array() || j.items().size() != 3)
    throw SpecError(path, "expected [x, y, z]");
  return {require_double(j.items()[0], path + "[0]"),
          require_double(j.items()[1], path + "[1]"),
          require_double(j.items()[2], path + "[2]")};
}

// --- per-section codecs -----------------------------------------------------

Json deployment_to_json(const DeploymentSpec& d, bool hex) {
  Json o = Json::object();
  o.set("preset", Json::string(to_string(d.preset)));
  o.set("environment", Json::string(to_string(d.environment)));
  o.set("seed", u64_to_json(d.seed));
  o.set("devices", u64_to_json(d.devices));
  Json pos = Json::array();
  for (const Vec3& p : d.positions) pos.push_back(vec3_to_json(p, hex));
  o.set("positions", std::move(pos));
  o.set("random_audio", Json::boolean(d.random_audio));
  return o;
}

void deployment_from_json(const Json& v, const std::string& path, DeploymentSpec& d) {
  ObjectReader r(v, path);
  r.read_enum("preset", d.preset,
              {DeploymentPreset::kDock, DeploymentPreset::kBoathouse,
               DeploymentPreset::kAnalytical, DeploymentPreset::kExplicit});
  r.read_enum("environment", d.environment,
              {EnvironmentPreset::kPool, EnvironmentPreset::kDock,
               EnvironmentPreset::kViewpoint, EnvironmentPreset::kBoathouse});
  r.read("seed", d.seed);
  r.read("devices", d.devices);
  if (const Json* j = r.take("positions")) {
    if (!j->is_array()) throw SpecError(r.sub("positions"), "expected an array");
    d.positions.clear();
    for (std::size_t i = 0; i < j->items().size(); ++i)
      d.positions.push_back(vec3_from_json(
          j->items()[i], r.sub("positions") + "[" + std::to_string(i) + "]"));
  }
  r.read("random_audio", d.random_audio);
  r.finish();
}

Json arrival_to_json(const pipeline::ArrivalErrorModel& a, bool hex) {
  Json o = Json::object();
  o.set("sigma_m", double_to_json(a.sigma_m, hex));
  o.set("sigma_per_m", double_to_json(a.sigma_per_m, hex));
  o.set("detection_failure_prob", double_to_json(a.detection_failure_prob, hex));
  return o;
}

void arrival_from_json(const Json& v, const std::string& path,
                       pipeline::ArrivalErrorModel& a) {
  ObjectReader r(v, path);
  r.read("sigma_m", a.sigma_m);
  r.read("sigma_per_m", a.sigma_per_m);
  r.read("detection_failure_prob", a.detection_failure_prob);
  r.finish();
}

Json localizer_to_json(const core::LocalizerOptions& l, bool hex) {
  const core::OutlierOptions& out = l.outlier;
  // Signed ints ride verbatim as plain numbers (the int reader accepts
  // them), so even an invalid in-memory value round-trips exactly and
  // bit_equal stays honest; validation rejects it separately.
  Json smacof = Json::object();
  smacof.set("max_iterations", Json::number(out.smacof.max_iterations));
  smacof.set("rel_tolerance", double_to_json(out.smacof.rel_tolerance, hex));
  smacof.set("random_restarts", Json::number(out.smacof.random_restarts));
  smacof.set("init_spread", double_to_json(out.smacof.init_spread, hex));
  Json outlier = Json::object();
  outlier.set("stress_threshold", double_to_json(out.stress_threshold, hex));
  outlier.set("drop_ratio", double_to_json(out.drop_ratio, hex));
  outlier.set("max_outliers", Json::number(out.max_outliers));
  outlier.set("max_suspect_links", u64_to_json(out.max_suspect_links));
  outlier.set("search_threads", u64_to_json(out.search_threads));
  outlier.set("smacof", std::move(smacof));
  Json o = Json::object();
  o.set("outlier", std::move(outlier));
  return o;
}

void localizer_from_json(const Json& v, const std::string& path,
                         core::LocalizerOptions& l) {
  ObjectReader r(v, path);
  if (const Json* j = r.take("outlier")) {
    ObjectReader ro(*j, r.sub("outlier"));
    ro.read("stress_threshold", l.outlier.stress_threshold);
    ro.read("drop_ratio", l.outlier.drop_ratio);
    ro.read("max_outliers", l.outlier.max_outliers);
    ro.read("max_suspect_links", l.outlier.max_suspect_links);
    ro.read("search_threads", l.outlier.search_threads);
    if (const Json* s = ro.take("smacof")) {
      ObjectReader rs(*s, ro.sub("smacof"));
      rs.read("max_iterations", l.outlier.smacof.max_iterations);
      rs.read("rel_tolerance", l.outlier.smacof.rel_tolerance);
      rs.read("random_restarts", l.outlier.smacof.random_restarts);
      rs.read("init_spread", l.outlier.smacof.init_spread);
      rs.finish();
    }
    ro.finish();
  }
  r.finish();
}

Json round_to_json(const sim::RoundOptions& o, bool hex) {
  Json j = Json::object();
  j.set("waveform_phy", Json::boolean(o.waveform_phy));
  j.set("arrival", arrival_to_json(o.fast_arrival, hex));
  j.set("quantize_payload", Json::boolean(o.quantize_payload));
  j.set("sound_speed_error_mps", double_to_json(o.sound_speed_error_mps, hex));
  j.set("mic_mode", Json::string(to_string(o.mic_mode)));
  Json depth = Json::object();
  depth.set("bias_m", double_to_json(o.depth_sensor.bias_m, hex));
  depth.set("noise_sigma_m", double_to_json(o.depth_sensor.noise_sigma_m, hex));
  depth.set("quantization_m", double_to_json(o.depth_sensor.quantization_m, hex));
  j.set("depth_sensor", std::move(depth));
  Json pointing = Json::object();
  pointing.set("sigma_deg", double_to_json(o.pointing.sigma_deg, hex));
  pointing.set("sigma_per_meter_deg",
               double_to_json(o.pointing.sigma_per_meter_deg, hex));
  j.set("pointing", std::move(pointing));
  j.set("localizer", localizer_to_json(o.localizer, hex));
  return j;
}

void round_from_json(const Json& v, const std::string& path, sim::RoundOptions& o) {
  ObjectReader r(v, path);
  r.read("waveform_phy", o.waveform_phy);
  if (const Json* j = r.take("arrival"))
    arrival_from_json(*j, r.sub("arrival"), o.fast_arrival);
  r.read("quantize_payload", o.quantize_payload);
  r.read("sound_speed_error_mps", o.sound_speed_error_mps);
  r.read_enum("mic_mode", o.mic_mode,
              {phy::MicMode::kDual, phy::MicMode::kMic1Only, phy::MicMode::kMic2Only});
  if (const Json* j = r.take("depth_sensor")) {
    ObjectReader rd(*j, r.sub("depth_sensor"));
    rd.read("bias_m", o.depth_sensor.bias_m);
    rd.read("noise_sigma_m", o.depth_sensor.noise_sigma_m);
    rd.read("quantization_m", o.depth_sensor.quantization_m);
    rd.finish();
  }
  if (const Json* j = r.take("pointing")) {
    ObjectReader rp(*j, r.sub("pointing"));
    rp.read("sigma_deg", o.pointing.sigma_deg);
    rp.read("sigma_per_meter_deg", o.pointing.sigma_per_meter_deg);
    rp.finish();
  }
  if (const Json* j = r.take("localizer"))
    localizer_from_json(*j, r.sub("localizer"), o.localizer);
  r.finish();
}

Json protocol_to_json(const proto::ProtocolConfig& p, bool hex) {
  Json o = Json::object();
  o.set("num_devices", u64_to_json(p.num_devices));
  o.set("delta0_s", double_to_json(p.delta0_s, hex));
  o.set("t_packet_s", double_to_json(p.t_packet_s, hex));
  o.set("t_guard_s", double_to_json(p.t_guard_s, hex));
  o.set("sound_speed_mps", double_to_json(p.sound_speed_mps, hex));
  o.set("fs_hz", double_to_json(p.fs_hz, hex));
  return o;
}

void protocol_from_json(const Json& v, const std::string& path,
                        proto::ProtocolConfig& p) {
  ObjectReader r(v, path);
  r.read("num_devices", p.num_devices);
  r.read("delta0_s", p.delta0_s);
  r.read("t_packet_s", p.t_packet_s);
  r.read("t_guard_s", p.t_guard_s);
  r.read("sound_speed_mps", p.sound_speed_mps);
  r.read("fs_hz", p.fs_hz);
  r.finish();
}

Json motion_to_json(const MotionSpec& m, bool hex) {
  Json o = Json::object();
  o.set("node", u64_to_json(m.node));
  o.set("axis", vec3_to_json(m.motion.axis, hex));
  o.set("span_m", double_to_json(m.motion.span_m, hex));
  o.set("speed_mps", double_to_json(m.motion.speed_mps, hex));
  o.set("phase_s", double_to_json(m.motion.phase_s, hex));
  Json wps = Json::array();
  for (const Vec3& w : m.motion.waypoints) wps.push_back(vec3_to_json(w, hex));
  o.set("waypoints", std::move(wps));
  return o;
}

void motion_from_json(const Json& v, const std::string& path, MotionSpec& m) {
  ObjectReader r(v, path);
  r.read("node", m.node);
  if (const Json* j = r.take("axis")) m.motion.axis = vec3_from_json(*j, r.sub("axis"));
  r.read("span_m", m.motion.span_m);
  r.read("speed_mps", m.motion.speed_mps);
  r.read("phase_s", m.motion.phase_s);
  if (const Json* j = r.take("waypoints")) {
    if (!j->is_array()) throw SpecError(r.sub("waypoints"), "expected an array");
    m.motion.waypoints.clear();
    for (std::size_t i = 0; i < j->items().size(); ++i)
      m.motion.waypoints.push_back(vec3_from_json(
          j->items()[i], r.sub("waypoints") + "[" + std::to_string(i) + "]"));
  }
  r.finish();
}

Json des_to_json(const DesSpec& d, bool hex) {
  Json o = Json::object();
  o.set("rounds", u64_to_json(d.rounds));
  o.set("round_period_s", double_to_json(d.round_period_s, hex));
  o.set("max_range_m", double_to_json(d.max_range_m, hex));
  o.set("ideal_arrivals", Json::boolean(d.ideal_arrivals));
  Json tracker = Json::object();
  tracker.set("accel_noise", double_to_json(d.tracker.accel_noise, hex));
  tracker.set("measurement_sigma_m",
              double_to_json(d.tracker.measurement_sigma_m, hex));
  tracker.set("velocity_decay_tau_s",
              double_to_json(d.tracker.velocity_decay_tau_s, hex));
  tracker.set("gate_sigmas", double_to_json(d.tracker.gate_sigmas, hex));
  o.set("tracker", std::move(tracker));
  Json motion = Json::array();
  for (const MotionSpec& m : d.motion) motion.push_back(motion_to_json(m, hex));
  o.set("motion", std::move(motion));
  return o;
}

void des_from_json(const Json& v, const std::string& path, DesSpec& d) {
  ObjectReader r(v, path);
  r.read("rounds", d.rounds);
  r.read("round_period_s", d.round_period_s);
  r.read("max_range_m", d.max_range_m);
  r.read("ideal_arrivals", d.ideal_arrivals);
  if (const Json* j = r.take("tracker")) {
    ObjectReader rt(*j, r.sub("tracker"));
    rt.read("accel_noise", d.tracker.accel_noise);
    rt.read("measurement_sigma_m", d.tracker.measurement_sigma_m);
    rt.read("velocity_decay_tau_s", d.tracker.velocity_decay_tau_s);
    rt.read("gate_sigmas", d.tracker.gate_sigmas);
    rt.finish();
  }
  if (const Json* j = r.take("motion")) {
    if (!j->is_array()) throw SpecError(r.sub("motion"), "expected an array");
    d.motion.clear();
    for (std::size_t i = 0; i < j->items().size(); ++i) {
      MotionSpec m;
      motion_from_json(j->items()[i],
                       r.sub("motion") + "[" + std::to_string(i) + "]", m);
      d.motion.push_back(std::move(m));
    }
  }
  r.finish();
}

Json sweep_to_json(const sim::SweepOptions& s) {
  Json o = Json::object();
  o.set("trials", u64_to_json(s.trials));
  o.set("master_seed", u64_to_json(s.master_seed));
  o.set("threads", u64_to_json(s.threads));
  return o;
}

void sweep_from_json(const Json& v, const std::string& path, sim::SweepOptions& s) {
  ObjectReader r(v, path);
  r.read("trials", s.trials);
  r.read("master_seed", s.master_seed);
  r.read("threads", s.threads);
  r.finish();
}

Json server_to_json(const ServeSpec& s, bool hex) {
  const fleet::ShaperOptions& sh = s.options.shaping;
  Json shaping = Json::object();
  shaping.set("policy", Json::string(to_string(sh.policy)));
  shaping.set("ingest_shards", u64_to_json(sh.ingest_shards));
  shaping.set("queue_depth", u64_to_json(sh.queue_depth));
  shaping.set("drain_rounds_per_s", double_to_json(sh.drain_rounds_per_s, hex));
  shaping.set("rate_rounds_per_s", double_to_json(sh.rate_rounds_per_s, hex));
  shaping.set("burst_rounds", double_to_json(sh.burst_rounds, hex));
  shaping.set("feedback_threshold", double_to_json(sh.feedback_threshold, hex));
  shaping.set("defer_delay_s", double_to_json(sh.defer_delay_s, hex));
  shaping.set("max_defers", u64_to_json(sh.max_defers));
  Json o = Json::object();
  o.set("workers", u64_to_json(s.options.workers));
  o.set("queue_depth", u64_to_json(s.options.queue_depth));
  o.set("tick_period_s", double_to_json(s.tick_period_s, hex));
  o.set("transport_capacity", u64_to_json(s.transport_capacity));
  o.set("shaping", std::move(shaping));
  return o;
}

void server_from_json(const Json& v, const std::string& path, ServeSpec& s) {
  ObjectReader r(v, path);
  r.read("workers", s.options.workers);
  r.read("queue_depth", s.options.queue_depth);
  r.read("tick_period_s", s.tick_period_s);
  r.read("transport_capacity", s.transport_capacity);
  if (const Json* j = r.take("shaping")) {
    fleet::ShaperOptions& sh = s.options.shaping;
    ObjectReader rs(*j, r.sub("shaping"));
    rs.read_enum("policy", sh.policy,
                 {fleet::AdmissionPolicy::kAdmitAll, fleet::AdmissionPolicy::kShed,
                  fleet::AdmissionPolicy::kDefer});
    rs.read("ingest_shards", sh.ingest_shards);
    rs.read("queue_depth", sh.queue_depth);
    rs.read("drain_rounds_per_s", sh.drain_rounds_per_s);
    rs.read("rate_rounds_per_s", sh.rate_rounds_per_s);
    rs.read("burst_rounds", sh.burst_rounds);
    rs.read("feedback_threshold", sh.feedback_threshold);
    rs.read("defer_delay_s", sh.defer_delay_s);
    rs.read("max_defers", sh.max_defers);
    rs.finish();
  }
  r.finish();
}

Json fleet_to_json(const FleetSpec& f, bool hex) {
  Json workload = Json::object();
  workload.set("sessions", u64_to_json(f.workload.sessions));
  workload.set("seed", u64_to_json(f.workload.seed));
  workload.set("min_group_size", u64_to_json(f.workload.min_group_size));
  workload.set("max_group_size", u64_to_json(f.workload.max_group_size));
  workload.set("min_rounds", u64_to_json(f.workload.min_rounds));
  workload.set("max_rounds", u64_to_json(f.workload.max_rounds));
  workload.set("admit_spread_ticks", u64_to_json(f.workload.admit_spread_ticks));
  workload.set("include_des", Json::boolean(f.workload.include_des));
  workload.set("kind_mix", Json::string(kind_mix_string(f.workload.force_kind)));
  Json o = Json::object();
  o.set("master_seed", u64_to_json(f.options.master_seed));
  o.set("shards", u64_to_json(f.options.shards));
  o.set("measure_latency", Json::boolean(f.options.measure_latency));
  o.set("workload", std::move(workload));
  o.set("server", server_to_json(f.server, hex));
  return o;
}

void fleet_from_json(const Json& v, const std::string& path, FleetSpec& f) {
  ObjectReader r(v, path);
  r.read("master_seed", f.options.master_seed);
  r.read("shards", f.options.shards);
  r.read("measure_latency", f.options.measure_latency);
  if (const Json* j = r.take("workload")) {
    ObjectReader rw(*j, r.sub("workload"));
    rw.read("sessions", f.workload.sessions);
    rw.read("seed", f.workload.seed);
    rw.read("min_group_size", f.workload.min_group_size);
    rw.read("max_group_size", f.workload.max_group_size);
    rw.read("min_rounds", f.workload.min_rounds);
    rw.read("max_rounds", f.workload.max_rounds);
    rw.read("admit_spread_ticks", f.workload.admit_spread_ticks);
    rw.read("include_des", f.workload.include_des);
    if (const Json* k = rw.take("kind_mix")) {
      if (!k->is_string()) throw SpecError(rw.sub("kind_mix"), "expected a string");
      const std::string& s = k->as_string();
      if (s == "mixed") {
        f.workload.force_kind = -1;
      } else {
        int found = -1;
        for (int kind = 0; kind <= static_cast<int>(sim::GroupScenarioKind::kPacketDes);
             ++kind)
          if (s == sim::to_string(static_cast<sim::GroupScenarioKind>(kind)))
            found = kind;
        if (found < 0)
          throw SpecError(rw.sub("kind_mix"),
                          "unknown value \"" + s +
                              "\" (expected mixed|static|lawnmower|waypoint|"
                              "dropout-churn|packet-des)");
        f.workload.force_kind = found;
      }
    }
    rw.finish();
  }
  if (const Json* j = r.take("server")) server_from_json(*j, r.sub("server"), f.server);
  r.finish();
}

Json telemetry_to_json(const TelemetrySpec& t) {
  Json o = Json::object();
  o.set("enabled", Json::boolean(t.enabled));
  o.set("timing", Json::boolean(t.timing));
  o.set("window_ticks", u64_to_json(t.window_ticks));
  o.set("ring_capacity", u64_to_json(t.ring_capacity));
  Json trace = Json::object();
  trace.set("enabled", Json::boolean(t.trace.enabled));
  trace.set("max_spans", u64_to_json(t.trace.max_spans));
  o.set("trace", std::move(trace));
  Json flight = Json::object();
  flight.set("capacity", u64_to_json(t.flight.capacity));
  flight.set("max_dumps", u64_to_json(t.flight.max_dumps));
  flight.set("evict_storm", u64_to_json(t.flight.evict_storm));
  flight.set("shed_burst", u64_to_json(t.flight.shed_burst));
  flight.set("localize_failures", u64_to_json(t.flight.localize_failures));
  o.set("flight", std::move(flight));
  return o;
}

void telemetry_from_json(const Json& v, const std::string& path, TelemetrySpec& t) {
  ObjectReader r(v, path);
  r.read("enabled", t.enabled);
  r.read("timing", t.timing);
  r.read("window_ticks", t.window_ticks);
  r.read("ring_capacity", t.ring_capacity);
  if (const Json* j = r.take("trace")) {
    ObjectReader rt(*j, r.sub("trace"));
    rt.read("enabled", t.trace.enabled);
    rt.read("max_spans", t.trace.max_spans);
    rt.finish();
  }
  if (const Json* j = r.take("flight")) {
    ObjectReader rf(*j, r.sub("flight"));
    rf.read("capacity", t.flight.capacity);
    rf.read("max_dumps", t.flight.max_dumps);
    rf.read("evict_storm", t.flight.evict_storm);
    rf.read("shed_burst", t.flight.shed_burst);
    rf.read("localize_failures", t.flight.localize_failures);
    rf.finish();
  }
  r.finish();
}

Json control_to_json(const ControlSpec& c, bool hex) {
  Json o = Json::object();
  o.set("enabled", Json::boolean(c.enabled));
  o.set("arena", Json::boolean(c.arena));
  o.set("shaper", Json::boolean(c.shaper));
  o.set("evict_storm", u64_to_json(c.evict_storm));
  o.set("retain_base", u64_to_json(c.retain_base));
  o.set("retain_max", u64_to_json(c.retain_max));
  o.set("rate_step", double_to_json(c.rate_step, hex));
  o.set("rate_max_multiplier", double_to_json(c.rate_max_multiplier, hex));
  return o;
}

void control_from_json(const Json& v, const std::string& path, ControlSpec& c) {
  ObjectReader r(v, path);
  r.read("enabled", c.enabled);
  r.read("arena", c.arena);
  r.read("shaper", c.shaper);
  r.read("evict_storm", c.evict_storm);
  r.read("retain_base", c.retain_base);
  r.read("retain_max", c.retain_max);
  r.read("rate_step", c.rate_step);
  r.read("rate_max_multiplier", c.rate_max_multiplier);
  r.finish();
}

}  // namespace

// --- top level --------------------------------------------------------------

Json to_json(const ScenarioSpec& spec, bool hexfloat) {
  Json o = Json::object();
  o.set("name", Json::string(spec.name));
  o.set("mode", Json::string(to_string(spec.mode)));
  o.set("deployment", deployment_to_json(spec.deployment, hexfloat));
  o.set("round", round_to_json(spec.round, hexfloat));
  o.set("protocol", protocol_to_json(spec.protocol, hexfloat));
  o.set("des", des_to_json(spec.des, hexfloat));
  o.set("sweep", sweep_to_json(spec.sweep));
  o.set("fleet", fleet_to_json(spec.fleet, hexfloat));
  o.set("telemetry", telemetry_to_json(spec.telemetry));
  o.set("control", control_to_json(spec.control, hexfloat));
  return o;
}

ScenarioSpec spec_from_json(const Json& v) {
  ScenarioSpec spec;
  ObjectReader r(v, "");
  r.read("name", spec.name);
  r.read_enum("mode", spec.mode,
              {RunMode::kRound, RunMode::kSweep, RunMode::kDes, RunMode::kFleet,
               RunMode::kServe});
  if (const Json* j = r.take("deployment"))
    deployment_from_json(*j, "deployment", spec.deployment);
  if (const Json* j = r.take("round")) round_from_json(*j, "round", spec.round);
  if (const Json* j = r.take("protocol"))
    protocol_from_json(*j, "protocol", spec.protocol);
  if (const Json* j = r.take("des")) des_from_json(*j, "des", spec.des);
  if (const Json* j = r.take("sweep")) sweep_from_json(*j, "sweep", spec.sweep);
  if (const Json* j = r.take("fleet")) fleet_from_json(*j, "fleet", spec.fleet);
  if (const Json* j = r.take("telemetry"))
    telemetry_from_json(*j, "telemetry", spec.telemetry);
  if (const Json* j = r.take("control"))
    control_from_json(*j, "control", spec.control);
  r.finish();
  return spec;
}

std::string write_spec(const ScenarioSpec& spec, bool hexfloat) {
  JsonWriteOptions opts;
  opts.hexfloat = hexfloat;
  return write_json(to_json(spec, hexfloat), opts);
}

ScenarioSpec parse_spec(std::string_view json_text) {
  return spec_from_json(parse_json(json_text));
}

ScenarioSpec load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError("", "cannot open spec file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  // Every failure mode below — JSON syntax, structural spec errors, failed
  // validation — must surface with the file's path: load_spec is what CLIs
  // call, and "round.arrival.sigma_m: must be >= 0" with no file name is
  // useless when a run loads several specs.
  try {
    ScenarioSpec spec = parse_spec(ss.str());
    validate_or_throw(spec);
    return spec;
  } catch (const JsonError& e) {
    throw SpecError("", path + ": " + e.what());
  } catch (const SpecError& e) {
    // e.what() already carries the dotted field path; prepend the file.
    throw SpecError("", path + ": " + e.what());
  }
}

void save_spec(const ScenarioSpec& spec, const std::string& path, bool hexfloat) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SpecError("", "cannot open " + path + " for writing");
  out << write_spec(spec, hexfloat);
  if (!out) throw SpecError("", "write failed for " + path);
}

// --- validation -------------------------------------------------------------

std::size_t deployment_device_count(const ScenarioSpec& spec) {
  switch (spec.deployment.preset) {
    case DeploymentPreset::kDock:
    case DeploymentPreset::kBoathouse:
      return 5;
    case DeploymentPreset::kAnalytical:
      return spec.deployment.devices;
    case DeploymentPreset::kExplicit:
      return spec.deployment.positions.size();
  }
  return 0;
}

std::vector<std::string> validate(const ScenarioSpec& spec) {
  std::vector<std::string> errors;
  const auto err = [&errors](const std::string& path, const std::string& what) {
    errors.push_back(path + ": " + what);
  };
  const auto finite = [](double v) { return std::isfinite(v); };

  if (spec.name.empty()) err("name", "must be non-empty");

  // deployment
  const std::size_t n = deployment_device_count(spec);
  if (spec.deployment.preset == DeploymentPreset::kAnalytical &&
      spec.deployment.devices < 2)
    err("deployment.devices", "need at least 2 devices (leader + one)");
  if (spec.deployment.preset == DeploymentPreset::kExplicit &&
      spec.deployment.positions.size() < 2)
    err("deployment.positions", "need at least 2 positions (leader + one)");
  if (spec.deployment.preset != DeploymentPreset::kExplicit &&
      !spec.deployment.positions.empty())
    err("deployment.positions", "only valid with preset \"explicit\"");
  for (std::size_t i = 0; i < spec.deployment.positions.size(); ++i) {
    const Vec3& p = spec.deployment.positions[i];
    if (!finite(p.x) || !finite(p.y) || !finite(p.z))
      err("deployment.positions[" + std::to_string(i) + "]", "must be finite");
  }

  // round
  const pipeline::ArrivalErrorModel& a = spec.round.fast_arrival;
  if (!finite(a.sigma_m) || a.sigma_m < 0.0)
    err("round.arrival.sigma_m", "must be >= 0");
  if (!finite(a.sigma_per_m) || a.sigma_per_m < 0.0)
    err("round.arrival.sigma_per_m", "must be >= 0");
  if (!(a.detection_failure_prob >= 0.0 && a.detection_failure_prob <= 1.0))
    err("round.arrival.detection_failure_prob", "out of range [0, 1]");
  if (!finite(spec.round.sound_speed_error_mps))
    err("round.sound_speed_error_mps", "must be finite");
  const sensors::DepthSensorModel& ds = spec.round.depth_sensor;
  if (!finite(ds.bias_m)) err("round.depth_sensor.bias_m", "must be finite");
  if (!finite(ds.noise_sigma_m) || ds.noise_sigma_m < 0.0)
    err("round.depth_sensor.noise_sigma_m", "must be >= 0");
  if (!finite(ds.quantization_m) || ds.quantization_m < 0.0)
    err("round.depth_sensor.quantization_m", "must be >= 0");
  if (!finite(spec.round.pointing.sigma_deg) || spec.round.pointing.sigma_deg < 0.0)
    err("round.pointing.sigma_deg", "must be >= 0");
  if (!finite(spec.round.pointing.sigma_per_meter_deg) ||
      spec.round.pointing.sigma_per_meter_deg < 0.0)
    err("round.pointing.sigma_per_meter_deg", "must be >= 0");
  const core::OutlierOptions& out = spec.round.localizer.outlier;
  if (!finite(out.stress_threshold) || out.stress_threshold <= 0.0)
    err("round.localizer.outlier.stress_threshold", "must be > 0");
  if (!(out.drop_ratio >= 0.0 && out.drop_ratio <= 1.0))
    err("round.localizer.outlier.drop_ratio", "out of range [0, 1]");
  if (out.max_outliers < 0) err("round.localizer.outlier.max_outliers", "must be >= 0");
  if (out.smacof.max_iterations < 1)
    err("round.localizer.outlier.smacof.max_iterations", "must be >= 1");
  if (!finite(out.smacof.rel_tolerance) || out.smacof.rel_tolerance <= 0.0)
    err("round.localizer.outlier.smacof.rel_tolerance", "must be > 0");
  if (out.smacof.random_restarts < 0)
    err("round.localizer.outlier.smacof.random_restarts", "must be >= 0");
  if (!finite(out.smacof.init_spread) || out.smacof.init_spread <= 0.0)
    err("round.localizer.outlier.smacof.init_spread", "must be > 0");

  // protocol
  if (spec.protocol.num_devices < 2) err("protocol.num_devices", "must be >= 2");
  if (spec.mode != RunMode::kFleet && spec.protocol.num_devices != n)
    err("protocol.num_devices",
        "must equal the deployment's device count (" + std::to_string(n) + ")");
  if (!finite(spec.protocol.delta0_s) || spec.protocol.delta0_s <= 0.0)
    err("protocol.delta0_s", "must be > 0");
  if (!finite(spec.protocol.t_packet_s) || spec.protocol.t_packet_s <= 0.0)
    err("protocol.t_packet_s", "must be > 0");
  if (!finite(spec.protocol.t_guard_s) || spec.protocol.t_guard_s <= 0.0)
    err("protocol.t_guard_s", "must be > 0");
  if (!finite(spec.protocol.sound_speed_mps) || spec.protocol.sound_speed_mps <= 0.0)
    err("protocol.sound_speed_mps", "must be > 0");
  if (!finite(spec.protocol.fs_hz) || spec.protocol.fs_hz <= 0.0)
    err("protocol.fs_hz", "must be > 0");

  // des
  if (spec.des.rounds < 1) err("des.rounds", "must be >= 1");
  if (!finite(spec.des.round_period_s) || spec.des.round_period_s < 0.0)
    err("des.round_period_s", "must be >= 0 (0 = auto)");
  if (!finite(spec.des.max_range_m) || spec.des.max_range_m < 0.0)
    err("des.max_range_m", "must be >= 0 (0 = connectivity only)");
  const core::TrackerConfig& tr = spec.des.tracker;
  if (!finite(tr.accel_noise) || tr.accel_noise < 0.0)
    err("des.tracker.accel_noise", "must be >= 0");
  if (!finite(tr.measurement_sigma_m) || tr.measurement_sigma_m <= 0.0)
    err("des.tracker.measurement_sigma_m", "must be > 0");
  if (!finite(tr.velocity_decay_tau_s) || tr.velocity_decay_tau_s <= 0.0)
    err("des.tracker.velocity_decay_tau_s", "must be > 0");
  if (!finite(tr.gate_sigmas) || tr.gate_sigmas <= 0.0)
    err("des.tracker.gate_sigmas", "must be > 0");
  bool any_lawnmower = false, any_waypoint = false;
  for (std::size_t i = 0; i < spec.des.motion.size(); ++i) {
    const std::string path = "des.motion[" + std::to_string(i) + "]";
    const MotionSpec& m = spec.des.motion[i];
    if (m.node >= n) err(path + ".node", "out of range (deployment has " +
                                             std::to_string(n) + " devices)");
    if (!finite(m.motion.axis.x) || !finite(m.motion.axis.y) ||
        !finite(m.motion.axis.z))
      err(path + ".axis", "must be finite");
    if (!finite(m.motion.span_m) || m.motion.span_m < 0.0)
      err(path + ".span_m", "must be >= 0");
    if (!finite(m.motion.phase_s)) err(path + ".phase_s", "must be finite");
    if (m.motion.waypoints.size() == 1)
      err(path + ".waypoints", "need >= 2 waypoints (or none)");
    for (std::size_t w = 0; w < m.motion.waypoints.size(); ++w) {
      const Vec3& p = m.motion.waypoints[w];
      if (!finite(p.x) || !finite(p.y) || !finite(p.z))
        err(path + ".waypoints[" + std::to_string(w) + "]", "must be finite");
    }
    const bool lawnmower = std::isfinite(m.motion.span_m) && m.motion.span_m > 0.0;
    const bool waypoint = m.motion.waypoints.size() >= 2;
    if (lawnmower && waypoint)
      err(path, "set either a lawnmower track (span_m) or waypoints, not both");
    if (!lawnmower && !waypoint)
      err(path, "set a lawnmower track (span_m > 0) or >= 2 waypoints");
    any_lawnmower |= lawnmower;
    any_waypoint |= waypoint;
    if (!finite(m.motion.speed_mps) || m.motion.speed_mps <= 0.0)
      err(path + ".speed_mps", "must be > 0 for a moving node");
  }
  if (any_lawnmower && any_waypoint)
    err("des.motion", "one mobility model per scenario: all lawnmower or all "
                      "waypoint tracks");

  // Worker counts share threads_from_args' cap: 0 = all hardware threads,
  // anything above 1024 is a typo, not a machine.
  constexpr std::size_t kMaxWorkers = 1024;
  if (spec.round.localizer.outlier.search_threads > kMaxWorkers)
    err("round.localizer.outlier.search_threads", "must be <= 1024 (0 = all)");

  // sweep
  if (spec.sweep.trials < 1) err("sweep.trials", "must be >= 1");
  if (spec.sweep.threads > kMaxWorkers) err("sweep.threads", "must be <= 1024 (0 = all)");

  // fleet
  if (spec.fleet.options.shards > kMaxWorkers)
    err("fleet.shards", "must be <= 1024 (0 = one per hardware thread)");
  const sim::WorkloadParams& w = spec.fleet.workload;
  if (w.sessions < 1) err("fleet.workload.sessions", "must be >= 1");
  if (w.min_group_size < 4) err("fleet.workload.min_group_size", "must be >= 4");
  if (w.max_group_size < w.min_group_size)
    err("fleet.workload.max_group_size", "must be >= min_group_size");
  if (w.min_rounds < 1) err("fleet.workload.min_rounds", "must be >= 1");
  if (w.max_rounds < w.min_rounds)
    err("fleet.workload.max_rounds", "must be >= min_rounds");
  if (w.force_kind > static_cast<int>(sim::GroupScenarioKind::kPacketDes))
    err("fleet.workload.kind_mix", "out of range");

  // fleet.server (serve mode)
  const ServeSpec& srv = spec.fleet.server;
  if (srv.options.workers > kMaxWorkers)
    err("fleet.server.workers", "must be <= 1024 (0 = one per hardware thread)");
  if (srv.options.queue_depth < 1) err("fleet.server.queue_depth", "must be >= 1");
  if (!finite(srv.tick_period_s) || srv.tick_period_s <= 0.0)
    err("fleet.server.tick_period_s", "must be > 0");
  if (srv.transport_capacity < 1)
    err("fleet.server.transport_capacity", "must be >= 1");
  const fleet::ShaperOptions& sh = srv.options.shaping;
  if (sh.ingest_shards < 1 || sh.ingest_shards > kMaxWorkers)
    err("fleet.server.shaping.ingest_shards", "must be in [1, 1024]");
  if (sh.queue_depth < 1) err("fleet.server.shaping.queue_depth", "must be >= 1");
  if (!finite(sh.drain_rounds_per_s) || sh.drain_rounds_per_s <= 0.0)
    err("fleet.server.shaping.drain_rounds_per_s", "must be > 0");
  if (!finite(sh.rate_rounds_per_s) || sh.rate_rounds_per_s < 0.0)
    err("fleet.server.shaping.rate_rounds_per_s", "must be >= 0 (0 = unlimited)");
  if (!finite(sh.burst_rounds) || sh.burst_rounds < 1.0)
    err("fleet.server.shaping.burst_rounds", "must be >= 1");
  if (!(sh.feedback_threshold >= 0.0 && sh.feedback_threshold <= 1.0))
    err("fleet.server.shaping.feedback_threshold", "out of range [0, 1]");
  if (!finite(sh.defer_delay_s) || sh.defer_delay_s <= 0.0)
    err("fleet.server.shaping.defer_delay_s", "must be > 0");

  // telemetry
  if (spec.telemetry.window_ticks < 1) err("telemetry.window_ticks", "must be >= 1");
  // The ring rounds up to a power of two; cap it where "capacity" stops
  // being a buffer and starts being a typo'd byte count.
  if (spec.telemetry.ring_capacity < 1 ||
      spec.telemetry.ring_capacity > (std::size_t{1} << 24))
    err("telemetry.ring_capacity", "must be in [1, 16777216]");
  if (spec.telemetry.trace.max_spans < 1 ||
      spec.telemetry.trace.max_spans > (std::size_t{1} << 26))
    err("telemetry.trace.max_spans", "must be in [1, 67108864]");
  if (spec.telemetry.flight.capacity > (std::size_t{1} << 20))
    err("telemetry.flight.capacity", "must be <= 1048576");
  if (spec.telemetry.flight.max_dumps > 1024)
    err("telemetry.flight.max_dumps", "must be <= 1024");
  if (spec.telemetry.flight.evict_storm < 1)
    err("telemetry.flight.evict_storm", "must be >= 1");
  if (spec.telemetry.flight.shed_burst < 1)
    err("telemetry.flight.shed_burst", "must be >= 1");
  if (spec.telemetry.flight.localize_failures < 1)
    err("telemetry.flight.localize_failures", "must be >= 1");

  // control
  const ControlSpec& ctl = spec.control;
  if (ctl.enabled && !spec.telemetry.enabled)
    err("control.enabled", "requires telemetry.enabled (the counter plane drives it)");
  if (ctl.evict_storm < 1) err("control.evict_storm", "must be >= 1");
  if (ctl.retain_base < 1) err("control.retain_base", "must be >= 1");
  if (ctl.retain_max < ctl.retain_base)
    err("control.retain_max", "must be >= control.retain_base");
  if (!finite(ctl.rate_step) || ctl.rate_step <= 1.0)
    err("control.rate_step", "must be > 1");
  if (!finite(ctl.rate_max_multiplier) || ctl.rate_max_multiplier < 1.0)
    err("control.rate_max_multiplier", "must be >= 1");

  return errors;
}

void validate_or_throw(const ScenarioSpec& spec) {
  const std::vector<std::string> errors = validate(spec);
  if (errors.empty()) return;
  std::string what = "invalid spec:";
  for (const std::string& e : errors) what += "\n  " + e;
  throw SpecError("", what);
}

bool bit_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
  // Hexfloat serialization is injective on every field (bit-level for
  // doubles), so string equality IS structural bit equality.
  return write_spec(a, true) == write_spec(b, true);
}

}  // namespace uwp::config
