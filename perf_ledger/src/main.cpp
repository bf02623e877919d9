// The fleet performance ledger: one command that runs a named workload for a
// fixed wall-clock budget, checks the outputs, and prints either the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1) as the
// last line of standard output.
//
//   perf_ledger --specs DIR --workload mix|field|serve --seed N
//               --seconds S --trace 0|1 [--state DIR]
//
// Workloads are ScenarioSpecs (DIR/<workload>.json) built through the
// config:: factories. A run measures kInstances instances of the workload,
// each with the spec's seeds replaced by seeds derived from --seed, so the
// same seed always yields the same scenarios and measurement streams. See
// perf_ledger/README.md for the workload rationale and the per-layer ->
// end-to-end map.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/factory.hpp"
#include "config/spec.hpp"
#include "control/engine.hpp"
#include "layers.hpp"
#include "sim/sweep.hpp"
#include "telemetry/collector.hpp"
#include "util/stats.hpp"

namespace {

using ledger::Clock;
using ledger::LayerTotals;
using ledger::seconds_since;

// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupReps = 7;
// Independently seeded instances of the workload per run.
constexpr std::size_t kInstances = 6;
// A first pass shorter than this is a warm-up and is not measured.
constexpr double kWarmupMaxS = 2.0;
// Every run pools at least this many rounds of latency samples, so p999
// has >= 10 samples beyond it.
constexpr std::size_t kMinPooledRounds = 10000;

struct Args {
  std::string specs;
  std::string workload;
  std::string state;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perf_ledger: %s\nusage: perf_ledger --specs DIR --workload "
               "mix|field|serve --seed N --seconds S --trace 0|1 [--state DIR]\n",
               msg);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--specs") {
      a.specs = v;
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--state") {
      a.state = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, a.seed)) usage("--seed must be a non-negative integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 600) usage("--seconds must be 1..600");
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(v, n) || n > 1) usage("--trace must be 0 or 1");
      a.trace = n == 1;
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.specs.empty() || a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--specs, --workload, --seed, --seconds and --trace are required");
  if (a.workload != "mix" && a.workload != "field" && a.workload != "serve")
    usage(("unknown workload " + a.workload).c_str());
  return a;
}

// --- result sheet -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Sheet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // The single result line (all digits kept: %.17g round-trips doubles).
  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream o;
    o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
      << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      o << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    o << "}}";
    return o.str();
  }

 private:
  std::vector<Metric> metrics_;
};

// Correctness gate: every failed check is reported on stderr and flips the
// run to correct = false (exit 1).
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "perf_ledger: CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

double median_of(std::vector<double> xs) { return xs.empty() ? 0.0 : uwp::median(xs); }

// --- one untraced pass ------------------------------------------------------

// What every pass reports, untraced or traced; the digests and counts are
// deterministic for a workload and seed.
struct PassResult {
  double wall_s = 0.0;
  std::size_t rounds = 0;     // rounds executed by the pipeline
  std::size_t localized = 0;
  std::size_t attempted = 0;  // measurement rounds offered (incl. shed)
  std::size_t shed = 0;
  std::size_t frames = 0;     // frames (or frame-equivalent events) handled
  std::uint64_t fleet_digest = 0;
  std::uint64_t schedule_digest = 0;
  std::size_t schedule_mismatches = 0;
  std::size_t defer_events = 0;
  double peak_occupancy = 0.0;
  std::size_t control_actions = 0;
};

// Frames the fleet path handles, counted the way the served path counts
// them: one per measurement or coast event plus one end-of-stream per
// session.
std::size_t frame_equivalents(const uwp::fleet::FleetResult& r) {
  return r.rounds + r.coasts + r.sessions.size();
}

// One independently seeded instance of the workload: its spec (seeds
// filled in) and the fleet service or server built from it.
struct Instance {
  uwp::config::ScenarioSpec spec;
  // Optional packet-DES slice (DIR/<workload>.des.json), stratified by
  // group size: `sessions` groups of every size min..max_group_size.
  std::optional<uwp::config::ScenarioSpec> des_slice;
  bool serve = false;
  std::unique_ptr<uwp::fleet::FleetService> service;  // mix / field
  std::unique_ptr<uwp::fleet::Server> server;         // serve
  std::vector<uwp::sim::GroupScenario> scenarios;     // serve: the feeder's copy

  const std::vector<uwp::sim::GroupScenario>& workload() const {
    return serve ? scenarios : service->workload();
  }
  std::uint64_t master_seed() const { return spec.fleet.options.master_seed; }
};

// The spec's scenarios followed by the DES slice, one stratum per group
// size (each from its own seed), renumbered so session_id == index. A fixed
// count per size keeps the number of expensive 7-8-device DES groups — the
// Algorithm-1 tail — the same for every seed; drawn at the mixed workload's
// 5% DES share, a 2048-session fleet would hold 41 +- 6 of them.
std::vector<uwp::sim::GroupScenario> make_scenarios(const Instance& w) {
  std::vector<uwp::sim::GroupScenario> out = uwp::config::make_workload(w.spec);
  if (!w.des_slice) return out;
  uwp::config::ScenarioSpec stratum = *w.des_slice;
  const uwp::sim::WorkloadParams& slice = w.des_slice->fleet.workload;
  for (std::size_t n = slice.min_group_size; n <= slice.max_group_size; ++n) {
    stratum.fleet.workload.min_group_size = stratum.fleet.workload.max_group_size = n;
    stratum.fleet.workload.seed = uwp::sim::trial_seed(slice.seed, n);
    for (uwp::sim::GroupScenario& sc : uwp::config::make_workload(stratum)) {
      sc.session_id = out.size();
      out.push_back(std::move(sc));
    }
  }
  return out;
}

void set_up(Instance& w) {
  if (w.serve) {
    w.scenarios = uwp::config::make_workload(w.spec);
    w.server = std::make_unique<uwp::fleet::Server>(uwp::config::make_fleet_server(w.spec));
  } else {
    w.service = std::make_unique<uwp::fleet::FleetService>(w.spec.fleet.options,
                                                           make_scenarios(w));
  }
}

PassResult from_fleet(const uwp::fleet::FleetResult& r) {
  PassResult p;
  p.wall_s = r.wall_seconds;
  p.rounds = p.attempted = r.rounds;
  p.localized = r.localized;
  p.frames = frame_equivalents(r);
  p.fleet_digest = r.fleet_digest;
  return p;
}

PassResult from_server(const uwp::fleet::ServerResult& res, std::size_t control_actions) {
  PassResult p = from_fleet(res.fleet);
  p.frames = res.stats.frames_received;
  p.attempted = res.stats.shaper.rounds_admitted + res.stats.shaper.rounds_shed;
  p.shed = res.stats.shaper.rounds_shed;
  p.schedule_digest = res.schedule_digest;
  p.schedule_mismatches = res.stats.schedule_mismatches;
  p.defer_events = res.stats.shaper.defer_events;
  p.peak_occupancy = res.stats.peak_occupancy;
  p.control_actions = control_actions;
  return p;
}

// Serve `transport` on this thread while `feed` produces into it on another;
// the transport is closed on failure so neither side blocks forever.
template <typename Feed>
uwp::fleet::ServerResult serve_with_feeder(Instance& w, uwp::fleet::Transport& transport,
                                           uwp::telemetry::Collector& collector,
                                           uwp::control::ControlEngine& engine,
                                           Feed feed) {
  std::exception_ptr feed_error;
  std::thread feeder([&] {
    try {
      feed();
    } catch (...) {
      feed_error = std::current_exception();
      transport.close();
    }
  });
  uwp::fleet::ServerResult res;
  try {
    res = w.server->serve(transport, nullptr, &collector, &engine);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  if (feed_error != nullptr) std::rethrow_exception(feed_error);
  return res;
}

PassResult untraced_pass(Instance& w, std::vector<double>& latencies,
                         std::vector<double>* errors) {
  if (!w.serve) {
    const uwp::fleet::FleetResult r = w.service->run();
    latencies.insert(latencies.end(), r.round_latency_s.begin(), r.round_latency_s.end());
    if (errors != nullptr) *errors = r.errors;
    return from_fleet(r);
  }
  uwp::telemetry::Collector collector(uwp::config::make_telemetry_options(w.spec));
  uwp::control::ControlEngine engine(uwp::config::make_control_config(w.spec),
                                     uwp::config::make_control_baseline(w.spec));
  uwp::fleet::RingBufferTransport transport(w.spec.fleet.server.transport_capacity);
  uwp::fleet::FeedOptions feed_opts;
  feed_opts.tick_period_s = w.spec.fleet.server.tick_period_s;
  const uwp::fleet::ServerResult res =
      serve_with_feeder(w, transport, collector, engine, [&] {
        uwp::fleet::feed_workload(transport, w.scenarios, w.master_seed(), feed_opts);
      });
  latencies.insert(latencies.end(), res.fleet.round_latency_s.begin(),
                   res.fleet.round_latency_s.end());
  if (errors != nullptr) *errors = res.fleet.errors;
  return from_server(res, engine.log().actions.size());
}

// --- one traced pass --------------------------------------------------------

struct TracedPass {
  PassResult result;
  LayerTotals totals;
  double wall_s = 0.0;          // wall of the traced pass proper
  double attributed_s = 0.0;    // layer thread-seconds inside that wall
  std::size_t threads = 1;      // threads the pass ran on
};

TracedPass traced_pass(Instance& w, Gate& gate) {
  TracedPass tp;
  LayerTotals& t = tp.totals;
  const std::vector<uwp::sim::GroupScenario>& scenarios = w.workload();

  if (!w.serve) {
    // The fleet path, driven session by session from benchmark code. The
    // wire, transport and shaper layers are bypassed and read 0.
    const uwp::fleet::FleetResult r =
        ledger::run_fleet_traced(scenarios, w.master_seed(), t, tp.wall_s);
    tp.result = from_fleet(r);
    tp.result.wall_s = tp.wall_s;
    tp.attributed_s = t.frontend_s() + t.round_s() + t.coast_s + t.lifecycle_s;
    return tp;
  }

  uwp::telemetry::Collector collector(uwp::config::make_telemetry_options(w.spec));
  uwp::control::ControlEngine engine(uwp::config::make_control_config(w.spec),
                                     uwp::config::make_control_baseline(w.spec));
  ledger::TimedTransport transport(w.spec.fleet.server.transport_capacity);
  ledger::FeederTimes feeder;
  const uwp::fleet::ServerResult res =
      serve_with_feeder(w, transport, collector, engine, [&] {
        ledger::feed_workload_traced(transport, scenarios, w.master_seed(),
                                     w.spec.fleet.server.tick_period_s, feeder);
      });
  tp.result = from_server(res, engine.log().actions.size());
  tp.wall_s = res.fleet.wall_seconds;
  t.measure_s = feeder.measure_s;
  t.des_measure_s = feeder.des_measure_s;
  t.send_block_s = transport.send_block_s();
  t.recv_wait_s = transport.recv_wait_s();

  // Side passes over the captured frames: codec, shaper re-run under the
  // recorded control log, and a pipeline replay of the recorded schedule.
  std::vector<uwp::fleet::IngestFrame> decoded;
  gate.check(ledger::wire_side_pass(transport.captured(), t, decoded) == 0,
             "wire re-encoding differs from the served frames");
  const Clock::time_point t0 = Clock::now();
  const std::size_t mismatches = uwp::fleet::verify_ingest_schedule(
      res.schedule, w.spec.fleet.server.options.shaping, scenarios.size(),
      engine.log().actions, collector.options().window);
  t.decide_s = seconds_since(t0);
  gate.check(mismatches == 0, "verify_ingest_schedule under the control log != 0");

  ledger::SessionRunner runner(scenarios, w.master_seed(), t);
  gate.check(ledger::replay_schedule(decoded, res.schedule, runner),
             "served schedule does not match the captured frames");
  gate.check(runner.finish().fleet_digest == res.fleet.fleet_digest,
             "pipeline replay of the served schedule changes fleet_digest");

  // Thread-seconds: feeder, ingest loop, and the workers.
  tp.threads = 2 + res.stats.workers_used;
  tp.attributed_s = feeder.measure_s + feeder.des_measure_s + feeder.encode_s +
                    t.send_block_s + t.recv_wait_s + t.decode_s + t.decide_s +
                    t.round_s() + t.coast_s + t.lifecycle_s;
  return tp;
}

// The deterministic work counts of a traced pass, in a fixed order.
std::vector<double> work_counts(const TracedPass& tp) {
  const LayerTotals& t = tp.totals;
  std::vector<double> v = {
      double(t.search_rounds),     double(t.search_accepts),  double(t.base_rounds),
      double(t.iterations_search), double(t.iterations_base), double(t.wire_frames),
      double(t.wire_bytes),        double(tp.result.defer_events),
      double(tp.result.shed),      double(tp.result.control_actions),
      tp.result.peak_occupancy};
  for (std::size_t k = 0; k < ledger::kKinds; ++k) v.push_back(double(t.kind_rounds[k]));
  return v;
}

std::string fingerprint(const PassResult& p, const std::vector<double>& counts) {
  std::ostringstream o;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "fleet=%016" PRIx64 " schedule=%016" PRIx64,
                p.fleet_digest, p.schedule_digest);
  o << buf << " rounds=" << p.rounds << " localized=" << p.localized
    << " attempted=" << p.attempted << " shed=" << p.shed << " frames=" << p.frames;
  for (const double c : counts) {
    std::snprintf(buf, sizeof(buf), " %.17g", c);
    o << buf;
  }
  return o.str();
}

// Cross-run determinism: the first run of a (workload, seed, trace) with
// this binary and these specs stores each instance's fingerprint; every
// later run must reproduce it.
void check_state(const Args& a, std::size_t instance, const std::string& fp, Gate& gate) {
  if (a.state.empty()) return;
  const std::string path = a.state + "/" + a.workload + "-" + std::to_string(a.seed) +
                           "-" + (a.trace ? "1" : "0") + "-" + std::to_string(instance) +
                           ".txt";
  std::ifstream in(path);
  std::string stored;
  if (in && std::getline(in, stored)) {
    gate.check(stored == fp, "work counts differ from an earlier run of this seed:\n  " +
                                 stored + "\n  " + fp);
    return;
  }
  std::ofstream out(path);
  out << fp << '\n';
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const uwp::config::ScenarioSpec spec =
        uwp::config::load_spec(args.specs + "/" + args.workload + ".json");
    const std::string des_path = args.specs + "/" + args.workload + ".des.json";
    std::optional<uwp::config::ScenarioSpec> des_slice;
    if (std::ifstream(des_path).good()) des_slice = uwp::config::load_spec(des_path);

    // The seed is the only input. Instance k draws its scenarios, its
    // sessions' measurement and solver streams, and its DES slice from
    // trial_seed(seed, 3k), 3k + 1 and 3k + 2.
    std::vector<Instance> inst(kInstances);
    for (std::size_t k = 0; k < kInstances; ++k) {
      Instance& w = inst[k];
      w.spec = spec;
      w.serve = spec.mode == uwp::config::RunMode::kServe;
      w.spec.fleet.workload.seed = uwp::sim::trial_seed(args.seed, 3 * k);
      w.spec.fleet.options.master_seed = uwp::sim::trial_seed(args.seed, 3 * k + 1);
      uwp::config::validate_or_throw(w.spec);
      if (des_slice) {
        w.des_slice = des_slice;
        w.des_slice->fleet.workload.seed = uwp::sim::trial_seed(args.seed, 3 * k + 2);
      }
    }

    std::vector<double> setup_times;
    for (int i = 0; i < kSetupReps; ++i) {
      for (Instance& w : inst) {
        w.service.reset();
        w.server.reset();
        w.scenarios.clear();
        const Clock::time_point t0 = Clock::now();
        set_up(w);
        setup_times.push_back(seconds_since(t0));
      }
    }

    Gate gate;
    std::vector<double> latencies;
    std::vector<std::vector<double>> errors(kInstances);
    std::vector<std::optional<PassResult>> ref(kInstances);  // first pass per instance
    std::vector<PassResult> passes;
    std::vector<TracedPass> traced;
    std::vector<std::size_t> pass_instance;
    std::size_t next = 0;
    const Clock::time_point start = Clock::now();
    // Untraced passes cycle through the instances; with --trace 1 a traced
    // pass of instance 0 follows every untraced pass of instance 0. An
    // instance's first pass is its reference. A short first pass of the run
    // is a warm-up (caches, allocator pools and lazily built tables settle
    // before anything is timed) and is not measured.
    while (seconds_since(start) < args.seconds || passes.size() < kInstances ||
           latencies.size() < kMinPooledRounds || (args.trace && traced.empty())) {
      const std::size_t k = next;
      next = (next + 1) % kInstances;
      std::vector<double> pass_latencies;
      const PassResult p = untraced_pass(inst[k], pass_latencies,
                                         ref[k] ? nullptr : &errors[k]);
      const bool warm_up = !ref[0] && p.wall_s < kWarmupMaxS;
      if (!ref[k]) ref[k] = p;
      if (warm_up) continue;
      passes.push_back(p);
      pass_instance.push_back(k);
      latencies.insert(latencies.end(), pass_latencies.begin(), pass_latencies.end());
      if (args.trace && k == 0) traced.push_back(traced_pass(inst[0], gate));
    }

    // --- correctness -------------------------------------------------------
    std::size_t localized = 0, offered = 0;
    for (std::size_t k = 0; k < kInstances; ++k) {
      gate.check(ref[k]->localized > 0, "no round localized");
      localized += ref[k]->localized;
      offered += ref[k]->attempted;
    }
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassResult& p = passes[i];
      const PassResult& r = *ref[pass_instance[i]];
      gate.check(p.fleet_digest == r.fleet_digest, "untraced fleet_digest varies");
      gate.check(p.schedule_digest == r.schedule_digest, "untraced schedule_digest varies");
      gate.check(p.schedule_mismatches == 0, "served schedule fails re-verification");
      gate.check(p.control_actions == r.control_actions, "control log length varies");
    }
    std::vector<double> counts;
    for (const TracedPass& tp : traced) {
      gate.check(tp.result.fleet_digest == ref[0]->fleet_digest,
                 "traced fleet_digest != untraced");
      gate.check(tp.result.schedule_digest == ref[0]->schedule_digest,
                 "traced schedule_digest != untraced");
      gate.check(tp.result.schedule_mismatches == 0, "traced schedule fails re-verification");
      if (counts.empty()) counts = work_counts(tp);
      gate.check(work_counts(tp) == counts, "deterministic work counts vary across passes");
    }
    for (std::size_t k = 0; k < kInstances; ++k)
      check_state(args, k, fingerprint(*ref[k], k == 0 ? counts : std::vector<double>{}),
                  gate);

    // --- metrics -----------------------------------------------------------
    Sheet sheet;
    std::vector<double> walls0;  // instance 0's untraced walls
    std::vector<double> rates, frame_rates;
    std::uint64_t attempted = 0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassResult& p = passes[i];
      if (pass_instance[i] == 0) walls0.push_back(p.wall_s);
      rates.push_back(static_cast<double>(p.rounds) / p.wall_s);
      frame_rates.push_back(static_cast<double>(p.frames) / p.wall_s);
      attempted += p.attempted;
    }
    if (!args.trace) {
      // Rounds localized per round attempted: 1 - failed_share, where a
      // failure is a round not localized or shed. Reported as the success
      // share because the failure share reads exactly 0 on the fleet
      // workloads. Device-side dropouts are input, not attempts.
      const double localized_share =
          static_cast<double>(localized) / static_cast<double>(std::max<std::size_t>(offered, 1));
      std::vector<double> all_errors;
      for (const std::vector<double>& e : errors)
        all_errors.insert(all_errors.end(), e.begin(), e.end());
      // Medians over passes: robust both to this host's speed drift and to
      // one instance drawing an unusually heavy Algorithm-1 tail.
      sheet.add("rounds_per_s", median_of(rates), "1/s");
      sheet.add("frames_per_s", median_of(frame_rates), "1/s");
      sheet.add("round_p50_ms", 1e3 * uwp::percentile(latencies, 50.0), "ms");
      sheet.add("round_p99_ms", 1e3 * uwp::percentile(latencies, 99.0), "ms");
      sheet.add("localized_share", localized_share, "ratio");
      sheet.add("error_p50_m", uwp::percentile(all_errors, 50.0), "m");
      sheet.add("error_p99_m", uwp::percentile(all_errors, 99.0), "m");
      sheet.add("setup_s", median_of(setup_times), "s");
      sheet.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      // Medians over the traced passes, field by field.
      const auto med = [&](auto field) {
        std::vector<double> xs;
        for (const TracedPass& tp : traced) xs.push_back(field(tp));
        return median_of(xs);
      };
      const LayerTotals& c = traced.front().totals;  // counts: identical on every pass
      sheet.add("core.search_round_s", med([](const TracedPass& p) { return p.totals.search_round_s; }), "s");
      sheet.add("core.search_rounds", double(c.search_rounds), "count");
      sheet.add("core.search_accept_ratio",
                c.search_rounds == 0 ? 0.0 : double(c.search_accepts) / double(c.search_rounds),
                "ratio");
      sheet.add("core.smacof_iterations_search", double(c.iterations_search), "count");
      sheet.add("core.smacof_iterations_base", double(c.iterations_base), "count");
      sheet.add("pipeline.base_round_s", med([](const TracedPass& p) { return p.totals.base_round_s; }), "s");
      sheet.add("pipeline.base_rounds", double(c.base_rounds), "count");
      sheet.add("pipeline.coast_s", med([](const TracedPass& p) { return p.totals.coast_s; }), "s");
      sheet.add("frontend.measure_s", med([](const TracedPass& p) { return p.totals.measure_s; }), "s");
      sheet.add("frontend.des_measure_s", med([](const TracedPass& p) { return p.totals.des_measure_s; }), "s");
      constexpr uwp::sim::GroupScenarioKind kAll[ledger::kKinds] = {
          uwp::sim::GroupScenarioKind::kStatic, uwp::sim::GroupScenarioKind::kLawnmower,
          uwp::sim::GroupScenarioKind::kWaypoint, uwp::sim::GroupScenarioKind::kDropoutChurn,
          uwp::sim::GroupScenarioKind::kPacketDes};
      for (std::size_t k = 0; k < ledger::kKinds; ++k) {
        const std::string name = std::string("kind.") + uwp::sim::to_string(kAll[k]);
        sheet.add(name + ".rounds", double(c.kind_rounds[k]), "count");
        sheet.add(name + ".round_s",
                  med([k](const TracedPass& p) { return p.totals.kind_round_s[k]; }), "s");
      }
      const double layer_wall = med([](const TracedPass& p) {
        return p.attributed_s / static_cast<double>(p.threads);
      });
      sheet.add("fleet.service_overhead_s", median_of(walls0) - layer_wall, "s");
      sheet.add("fleet.lifecycle_s", med([](const TracedPass& p) { return p.totals.lifecycle_s; }), "s");
      sheet.add("wire.encode_s", med([](const TracedPass& p) { return p.totals.encode_s; }), "s");
      sheet.add("wire.decode_s", med([](const TracedPass& p) { return p.totals.decode_s; }), "s");
      sheet.add("wire.bytes", double(c.wire_bytes), "bytes");
      sheet.add("wire.frames", double(c.wire_frames), "count");
      sheet.add("transport.send_block_s", med([](const TracedPass& p) { return p.totals.send_block_s; }), "s");
      sheet.add("transport.recv_wait_s", med([](const TracedPass& p) { return p.totals.recv_wait_s; }), "s");
      const PassResult& r = traced.front().result;
      sheet.add("shaper.decide_s", med([](const TracedPass& p) { return p.totals.decide_s; }), "s");
      sheet.add("shaper.defer_events", double(r.defer_events), "count");
      sheet.add("shaper.rounds_shed", double(r.shed), "count");
      sheet.add("shaper.peak_occupancy", r.peak_occupancy, "rounds");
      sheet.add("control.actions", double(r.control_actions), "count");
      sheet.add("trace.coverage", med([](const TracedPass& p) {
                  return p.attributed_s / (static_cast<double>(p.threads) * p.wall_s);
                }), "ratio");
      sheet.add("trace.overhead",
                med([](const TracedPass& p) { return p.wall_s; }) / median_of(walls0), "ratio");
      // The untraced passes' p999: on these 20-us rounds it is set by OS
      // jitter and by a few dozen tail rounds, too unsteady across seeds
      // for a regression bound, so it is reported without one.
      sheet.add("latency.round_p999_ms", 1e3 * uwp::percentile(latencies, 99.9), "ms");
    }

    std::fprintf(stderr, "perf_ledger: untraced pass walls [s]:");
    for (const PassResult& p : passes) std::fprintf(stderr, " %.3f", p.wall_s);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr,
                 "perf_ledger: %s seed %" PRIu64 ": %zu untraced + %zu traced passes in "
                 "%.1f s, %zu rounds/pass, fingerprint %s\n",
                 args.workload.c_str(), args.seed, passes.size(), traced.size(),
                 seconds_since(start), ref[0]->rounds, fingerprint(*ref[0], counts).c_str());
    std::printf("%s\n", sheet.json(gate.ok(), attempted, 0).c_str());
    return gate.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 2;
  }
}
