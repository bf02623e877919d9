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

// fleet.workload.kind_mix: -1 is "mixed", anything else a sim::GroupScenarioKind.
constexpr int kKindMix[] = {-1, 0, 1, 2, 3, 4};

const char* kind_mix_string(int force_kind) {
  if (force_kind < 0) return "mixed";
  return sim::to_string(static_cast<sim::GroupScenarioKind>(force_kind));
}

// --- field lists ------------------------------------------------------------
// The schema, stated once: one list per struct, keys in document order. The
// JSON writer and the strict reader below are the two visitors that walk
// them. A visitor is called as f(key, field) for scalars, Vec3s, arrays and
// nested sections (which recurse into their own list), and as
// f.choice(key, field, values[, name]) for enum-like fields. Signed ints
// ride verbatim as plain numbers, so even an invalid in-memory value
// round-trips exactly and bit_equal stays honest; validate() rejects it.

template <class F>
void fields(F& f, DeploymentSpec& d) {
  f.choice("preset", d.preset,
           {DeploymentPreset::kDock, DeploymentPreset::kBoathouse,
            DeploymentPreset::kAnalytical, DeploymentPreset::kExplicit});
  f.choice("environment", d.environment,
           {EnvironmentPreset::kPool, EnvironmentPreset::kDock,
            EnvironmentPreset::kViewpoint, EnvironmentPreset::kBoathouse});
  f("seed", d.seed);
  f("devices", d.devices);
  f("positions", d.positions);
  f("random_audio", d.random_audio);
}

template <class F>
void fields(F& f, pipeline::ArrivalErrorModel& a) {
  f("sigma_m", a.sigma_m);
  f("sigma_per_m", a.sigma_per_m);
  f("detection_failure_prob", a.detection_failure_prob);
}

template <class F>
void fields(F& f, sensors::DepthSensorModel& d) {
  f("bias_m", d.bias_m);
  f("noise_sigma_m", d.noise_sigma_m);
  f("quantization_m", d.quantization_m);
}

template <class F>
void fields(F& f, sensors::PointingModel& p) {
  f("sigma_deg", p.sigma_deg);
  f("sigma_per_meter_deg", p.sigma_per_meter_deg);
}

template <class F>
void fields(F& f, core::SmacofOptions& s) {
  f("max_iterations", s.max_iterations);
  f("tolerance_m", s.tolerance_m);
  f("random_restarts", s.random_restarts);
  f("init_spread", s.init_spread);
}

template <class F>
void fields(F& f, core::OutlierOptions& o) {
  f("stress_threshold", o.stress_threshold);
  f("drop_ratio", o.drop_ratio);
  f("max_outliers", o.max_outliers);
  f("max_suspect_links", o.max_suspect_links);
  f("smacof", o.smacof);
}

template <class F>
void fields(F& f, core::LocalizerOptions& l) {
  f("outlier", l.outlier);
}

template <class F>
void fields(F& f, sim::RoundOptions& o) {
  f("waveform_phy", o.waveform_phy);
  f("arrival", o.fast_arrival);
  f("quantize_payload", o.quantize_payload);
  f("sound_speed_error_mps", o.sound_speed_error_mps);
  f.choice("mic_mode", o.mic_mode,
           {phy::MicMode::kDual, phy::MicMode::kMic1Only, phy::MicMode::kMic2Only});
  f("depth_sensor", o.depth_sensor);
  f("pointing", o.pointing);
  f("localizer", o.localizer);
}

template <class F>
void fields(F& f, proto::ProtocolConfig& p) {
  f("num_devices", p.num_devices);
  f("delta0_s", p.delta0_s);
  f("t_packet_s", p.t_packet_s);
  f("t_guard_s", p.t_guard_s);
  f("sound_speed_mps", p.sound_speed_mps);
  f("fs_hz", p.fs_hz);
}

template <class F>
void fields(F& f, core::TrackerConfig& t) {
  f("accel_noise", t.accel_noise);
  f("measurement_sigma_m", t.measurement_sigma_m);
  f("velocity_decay_tau_s", t.velocity_decay_tau_s);
  f("gate_sigmas", t.gate_sigmas);
}

template <class F>
void fields(F& f, MotionSpec& m) {
  f("node", m.node);
  f("axis", m.motion.axis);
  f("span_m", m.motion.span_m);
  f("speed_mps", m.motion.speed_mps);
  f("phase_s", m.motion.phase_s);
  f("waypoints", m.motion.waypoints);
}

template <class F>
void fields(F& f, DesSpec& d) {
  f("rounds", d.rounds);
  f("round_period_s", d.round_period_s);
  f("max_range_m", d.max_range_m);
  f("ideal_arrivals", d.ideal_arrivals);
  f("tracker", d.tracker);
  f("motion", d.motion);
}

template <class F>
void fields(F& f, sim::SweepOptions& s) {
  f("trials", s.trials);
  f("master_seed", s.master_seed);
  f("threads", s.threads);
}

template <class F>
void fields(F& f, sim::WorkloadParams& w) {
  f("sessions", w.sessions);
  f("seed", w.seed);
  f("min_group_size", w.min_group_size);
  f("max_group_size", w.max_group_size);
  f("min_rounds", w.min_rounds);
  f("max_rounds", w.max_rounds);
  f("admit_spread_ticks", w.admit_spread_ticks);
  f("include_des", w.include_des);
  f.choice("kind_mix", w.force_kind, kKindMix, kind_mix_string);
}

template <class F>
void fields(F& f, fleet::ShaperOptions& s) {
  f.choice("policy", s.policy,
           {fleet::AdmissionPolicy::kAdmitAll, fleet::AdmissionPolicy::kDefer});
  f("ingest_shards", s.ingest_shards);
  f("queue_depth", s.queue_depth);
  f("drain_rounds_per_s", s.drain_rounds_per_s);
  f("rate_rounds_per_s", s.rate_rounds_per_s);
  f("burst_rounds", s.burst_rounds);
  f("feedback_threshold", s.feedback_threshold);
  f("defer_delay_s", s.defer_delay_s);
  f("max_defers", s.max_defers);
}

template <class F>
void fields(F& f, ServeSpec& s) {
  f("workers", s.options.workers);
  f("queue_depth", s.options.queue_depth);
  f("tick_period_s", s.tick_period_s);
  f("transport_capacity", s.transport_capacity);
  f("shaping", s.options.shaping);
}

template <class F>
void fields(F& f, FleetSpec& s) {
  f("master_seed", s.options.master_seed);
  f("shards", s.options.shards);
  f("measure_latency", s.options.measure_latency);
  f("workload", s.workload);
  f("server", s.server);
}

template <class F>
void fields(F& f, TelemetrySpec::TraceSpec& t) {
  f("enabled", t.enabled);
  f("max_spans", t.max_spans);
}

template <class F>
void fields(F& f, telemetry::FlightOptions& o) {
  f("capacity", o.capacity);
  f("max_dumps", o.max_dumps);
  f("evict_storm", o.evict_storm);
  f("shed_burst", o.shed_burst);
  f("localize_failures", o.localize_failures);
}

template <class F>
void fields(F& f, TelemetrySpec& t) {
  f("enabled", t.enabled);
  f("timing", t.timing);
  f("window_ticks", t.window_ticks);
  f("trace", t.trace);
  f("flight", t.flight);
}

template <class F>
void fields(F& f, ControlSpec& c) {
  f("enabled", c.enabled);
  f("rate_step", c.config.rate_step);
  f("rate_max_multiplier", c.config.rate_max_multiplier);
}

template <class F>
void fields(F& f, ScenarioSpec& s) {
  f("name", s.name);
  f.choice("mode", s.mode,
           {RunMode::kRound, RunMode::kSweep, RunMode::kDes, RunMode::kFleet,
            RunMode::kServe});
  f("deployment", s.deployment);
  f("round", s.round);
  f("protocol", s.protocol);
  f("des", s.des);
  f("sweep", s.sweep);
  f("fleet", s.fleet);
  f("telemetry", s.telemetry);
  f("control", s.control);
}

// --- writer -----------------------------------------------------------------

class JsonWriter {
 public:
  explicit JsonWriter(bool hex) : hex_(hex) {}

  template <class T>
  void operator()(const char* key, const T& v) {
    out_.set(key, value(v));
  }

  template <class T, std::size_t N, class Name>
  void choice(const char* key, const T& v, const T (&)[N], Name name) {
    out_.set(key, Json::string(name(v)));
  }
  template <class T, std::size_t N>
  void choice(const char* key, const T& v, const T (&)[N]) {
    out_.set(key, Json::string(to_string(v)));
  }

  Json value(bool v) const { return Json::boolean(v); }
  Json value(int v) const { return Json::number(v); }
  Json value(double v) const { return double_to_json(v, hex_); }
  Json value(const std::string& v) const { return Json::string(v); }
  Json value(const Vec3& v) const {
    Json arr = Json::array();
    for (const double c : {v.x, v.y, v.z}) arr.push_back(double_to_json(c, hex_));
    return arr;
  }
  template <class T>
  Json value(const std::vector<T>& items) const {
    Json arr = Json::array();
    for (const T& item : items) arr.push_back(value(item));
    return arr;
  }
  // Unsigned integers (u64 seeds ride as strings past 2^53) and sections.
  template <class T>
  Json value(const T& v) const {
    if constexpr (std::is_unsigned_v<T>) {
      return u64_to_json(v);
    } else {
      JsonWriter w(hex_);
      fields(w, const_cast<T&>(v));  // the writer only reads through the list
      return std::move(w.out_);
    }
  }

 private:
  bool hex_;
  Json out_ = Json::object();
};

// --- strict reader ----------------------------------------------------------
// Tracks which keys were consumed so unknown fields fail with their path —
// a typo'd knob must never silently fall back to a default.

class SpecReader {
 public:
  SpecReader(const Json& v, std::string path) : v_(v), path_(std::move(path)) {
    if (!v_.is_object()) throw SpecError(path_, "expected an object");
    used_.assign(v_.members().size(), false);
  }

  template <class T>
  void operator()(const char* key, T& out) {
    if (const Json* j = take(key)) read(*j, sub(key), out);
  }

  // Enum-like field: match the string against name(values...).
  template <class T, std::size_t N, class Name>
  void choice(const char* key, T& out, const T (&values)[N], Name name) {
    const Json* j = take(key);
    if (j == nullptr) return;
    if (!j->is_string()) throw SpecError(sub(key), "expected a string");
    std::string choices;
    for (const T v : values) {
      if (j->as_string() == name(v)) {
        out = v;
        return;
      }
      if (!choices.empty()) choices += "|";
      choices += name(v);
    }
    throw SpecError(sub(key), "unknown value \"" + j->as_string() + "\" (expected " +
                                  choices + ")");
  }
  template <class T, std::size_t N>
  void choice(const char* key, T& out, const T (&values)[N]) {
    choice(key, out, values, [](T v) { return to_string(v); });
  }

  static void read(const Json& j, const std::string& path, bool& out) {
    if (!j.is_bool()) throw SpecError(path, "expected a bool");
    out = j.as_bool();
  }
  static void read(const Json& j, const std::string& path, int& out) {
    double d = 0.0;
    if (!json_as_double(j, d) || d != std::floor(d) || d < -2147483648.0 ||
        d > 2147483647.0)
      throw SpecError(path, "expected an integer");
    out = static_cast<int>(d);
  }
  static void read(const Json& j, const std::string& path, double& out) {
    if (!json_as_double(j, out))
      throw SpecError(path, "expected a number (or nan/inf/hexfloat string)");
  }
  static void read(const Json& j, const std::string& path, std::string& out) {
    if (!j.is_string()) throw SpecError(path, "expected a string");
    out = j.as_string();
  }
  static void read(const Json& j, const std::string& path, Vec3& out) {
    if (!j.is_array() || j.items().size() != 3)
      throw SpecError(path, "expected [x, y, z]");
    read(j.items()[0], path + "[0]", out.x);
    read(j.items()[1], path + "[1]", out.y);
    read(j.items()[2], path + "[2]", out.z);
  }
  template <class T>
  static void read(const Json& j, const std::string& path, std::vector<T>& out) {
    if (!j.is_array()) throw SpecError(path, "expected an array");
    out.clear();
    for (std::size_t i = 0; i < j.items().size(); ++i) {
      T item{};
      read(j.items()[i], path + "[" + std::to_string(i) + "]", item);
      out.push_back(std::move(item));
    }
  }
  // Unsigned integers (std::uint64_t seeds and std::size_t counts are the
  // same type on LP64) and sections, which must consume every key.
  template <class T>
  static void read(const Json& j, const std::string& path, T& out) {
    if constexpr (std::is_unsigned_v<T>) {
      std::uint64_t v = 0;
      if (!json_as_u64(j, v)) throw SpecError(path, "expected an unsigned integer");
      out = static_cast<T>(v);
    } else {
      SpecReader r(j, path);
      fields(r, out);
      r.finish();
    }
  }

 private:
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

  const Json& v_;
  std::string path_;
  std::vector<bool> used_;
};

}  // namespace

// --- top level --------------------------------------------------------------

Json to_json(const ScenarioSpec& spec, bool hexfloat) {
  return JsonWriter(hexfloat).value(spec);
}

ScenarioSpec spec_from_json(const Json& v) {
  ScenarioSpec spec;
  SpecReader::read(v, "", spec);
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
  const std::string cap_text = "must be <= " + std::to_string(sim::kMaxGroupSize);

  if (spec.name.empty()) err("name", "must be non-empty");

  // deployment
  const std::size_t n = deployment_device_count(spec);
  // Drivers size n x n matrices from the device count: cap it at the wire
  // codec's device limit, like fleet.workload.max_group_size.
  if (spec.deployment.preset == DeploymentPreset::kAnalytical) {
    if (spec.deployment.devices < 2)
      err("deployment.devices", "need at least 2 devices (leader + one)");
    if (spec.deployment.devices > sim::kMaxGroupSize)
      err("deployment.devices", cap_text);
  }
  if (spec.deployment.preset == DeploymentPreset::kExplicit) {
    if (spec.deployment.positions.size() < 2)
      err("deployment.positions", "need at least 2 positions (leader + one)");
    if (spec.deployment.positions.size() > sim::kMaxGroupSize)
      err("deployment.positions", cap_text);
  }
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
  if (!finite(out.smacof.tolerance_m) || out.smacof.tolerance_m <= 0.0)
    err("round.localizer.outlier.smacof.tolerance_m", "must be > 0");
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
  if (w.max_group_size > sim::kMaxGroupSize)
    err("fleet.workload.max_group_size", cap_text);
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
  if (ctl.enabled && spec.mode != RunMode::kServe)
    err("control.enabled",
        "requires mode serve (the control plane tunes the ingest shaper)");
  if (ctl.enabled && !spec.telemetry.enabled)
    err("control.enabled", "requires telemetry.enabled (the counter plane drives it)");
  if (!finite(ctl.config.rate_step) || ctl.config.rate_step <= 1.0)
    err("control.rate_step", "must be > 1");
  if (!finite(ctl.config.rate_max_multiplier) || ctl.config.rate_max_multiplier < 1.0)
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
