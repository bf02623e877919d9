// uwp_run: execute any ScenarioSpec file against any driver in the stack.
// The scenario is entirely data — geometry, channel, protocol, sensors,
// solver, DES toggles, fleet mix all come from the spec — so opening a new
// experiment means writing a JSON file, not a C++ main.
//
//   uwp_run --spec=examples/specs/fleet_mixed.json
//   uwp_run --spec=... --mode=sweep --threads=8 --out=metrics.json
//
// Flags:
//   --spec=FILE    the ScenarioSpec (required); parsed and validated first,
//                  so a malformed file fails with path-qualified errors
//   --mode=M       override the spec's mode: round | sweep | des | fleet | serve
//   --threads=N    override the worker count (sweep threads / fleet shards /
//                  serve workers)
//   --out=FILE     write run metrics as JSON; the deterministic part lives
//                  under "metrics" (bit-identical at any --threads), wall
//                  clock and friends under "timing"
//   --telemetry-out=FILE
//                  fleet/serve only: attach a telemetry::Collector (forcing
//                  telemetry on even if the spec leaves it disabled) and
//                  write its report — virtual-time-windowed counters under
//                  "counters" (bit-identical at any --threads), span/sample
//                  histograms over every event of the run and
//                  flight-recorder dumps under "timing"
//   --slo-out=FILE fleet/serve only: write the SLO scoreboard — the
//                  deterministic counter/error reducer under "slo"
//                  (bit-identical at any --threads; CI byte-diffs exactly
//                  that object), round-latency tails under "timing"
//   --trace-spans-out=FILE
//                  fleet/serve only: force-enable causal round tracing and
//                  write the spans as Chrome trace-event JSON, loadable
//                  as-is in Perfetto / chrome://tracing; span structure is
//                  deterministic, wall-clock timing is not
//   --control-log-out=FILE
//                  serve only: force-enable the self-tuning control plane
//                  (and telemetry, which drives it) and write the
//                  ControlLog as JSON — every window-boundary retune the
//                  shaper tuner took. The document is deterministic:
//                  byte-identical at any --threads (CI diffs exactly that)
//   --print-spec   dump the normalized spec (defaults filled in) and exit
//
// Every output path is probed (opened for append) before the run starts, so
// a typo'd directory fails in milliseconds with exit 2 and a path-qualified
// message instead of after minutes of simulation.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "config/factory.hpp"
#include "config/json.hpp"
#include "config/spec.hpp"
#include "control/engine.hpp"
#include "control/log.hpp"
#include "fleet/recorder.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/metrics.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/trace.hpp"
#include "util/stats.hpp"

namespace {

using uwp::config::Json;

struct Args {
  std::string spec_path;
  std::string mode;
  std::string out_path;
  std::string telemetry_path;
  std::string slo_path;
  std::string trace_path;
  std::string control_path;
  long threads = -1;  // -1 = keep the spec's value
  bool print_spec = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec=FILE [--mode=round|sweep|des|fleet|serve] "
               "[--threads=N] [--out=FILE] [--telemetry-out=FILE] "
               "[--slo-out=FILE] [--trace-spans-out=FILE] "
               "[--control-log-out=FILE] [--print-spec]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--spec=", 7) == 0) {
      args.spec_path = a + 7;
    } else if (std::strncmp(a, "--mode=", 7) == 0) {
      args.mode = a + 7;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      char* end = nullptr;
      args.threads = std::strtol(a + 10, &end, 10);
      if (end == a + 10 || *end != '\0' || args.threads < 0 || args.threads > 1024)
        return false;
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      args.out_path = a + 6;
    } else if (std::strncmp(a, "--telemetry-out=", 16) == 0) {
      args.telemetry_path = a + 16;
    } else if (std::strncmp(a, "--slo-out=", 10) == 0) {
      args.slo_path = a + 10;
    } else if (std::strncmp(a, "--trace-spans-out=", 18) == 0) {
      args.trace_path = a + 18;
    } else if (std::strncmp(a, "--control-log-out=", 18) == 0) {
      args.control_path = a + 18;
    } else if (std::strcmp(a, "--print-spec") == 0) {
      args.print_spec = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  return !args.spec_path.empty();
}

// Fail fast on unwritable output destinations: probe by opening for append
// (which creates the file but never clobbers existing content), so the run
// exits 2 immediately instead of simulating for minutes and then losing the
// result to a typo'd directory.
int probe_writable(const std::string& path, const char* flag) {
  if (path.empty()) return 0;
  std::ofstream probe(path, std::ios::binary | std::ios::app);
  if (!probe) {
    std::fprintf(stderr, "uwp_run: %s=%s: cannot open for writing\n", flag,
                 path.c_str());
    return 2;
  }
  return 0;
}

Json summary_to_json(const uwp::Summary& s) {
  Json o = Json::object();
  o.set("count", uwp::config::u64_to_json(s.count));
  o.set("mean", uwp::config::double_to_json(s.mean));
  o.set("stddev", uwp::config::double_to_json(s.stddev));
  o.set("min", uwp::config::double_to_json(s.min));
  o.set("median", uwp::config::double_to_json(s.median));
  o.set("p90", uwp::config::double_to_json(s.p90));
  o.set("p95", uwp::config::double_to_json(s.p95));
  o.set("max", uwp::config::double_to_json(s.max));
  return o;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- telemetry report -> JSON ----------------------------------------------

Json histogram_to_json(const uwp::telemetry::Histogram& h) {
  Json o = Json::object();
  o.set("count", uwp::config::u64_to_json(h.count()));
  o.set("mean", uwp::config::double_to_json(h.mean()));
  o.set("min", uwp::config::double_to_json(h.min_seen()));
  o.set("max", uwp::config::double_to_json(h.max_seen()));
  o.set("p50", uwp::config::double_to_json(h.quantile(0.50)));
  o.set("p99", uwp::config::double_to_json(h.quantile(0.99)));
  o.set("p999", uwp::config::double_to_json(h.quantile(0.999)));
  return o;
}

// Flight-recorder events rendered for post-mortem reading: the id enum is
// resolved through the family named by `kind`.
Json flight_event_to_json(const uwp::telemetry::Event& e) {
  namespace tel = uwp::telemetry;
  Json o = Json::object();
  switch (e.kind) {
    case tel::EventKind::kCounter:
      o.set("kind", Json::string("counter"));
      o.set("id", Json::string(tel::to_string(static_cast<tel::Counter>(e.id))));
      break;
    case tel::EventKind::kSpan:
      o.set("kind", Json::string("span"));
      o.set("id", Json::string(tel::to_string(static_cast<tel::Stage>(e.id))));
      break;
    case tel::EventKind::kSample:
      o.set("kind", Json::string("sample"));
      o.set("id", Json::string(tel::to_string(static_cast<tel::Sample>(e.id))));
      break;
  }
  o.set("t", uwp::config::double_to_json(e.t));
  o.set("value", uwp::config::double_to_json(e.value));
  return o;
}

// The telemetry document mirrors the metrics document's split: "counters"
// is the deterministic plane (virtual-time-windowed sums, bit-identical at
// any shard/worker/thread count — CI diffs exactly this object), "timing"
// is the run-varying plane (span/sample histograms, trace-span accounting,
// and flight-recorder dumps).
Json telemetry_report_to_json(const uwp::config::ScenarioSpec& spec,
                              const uwp::telemetry::TelemetryReport& rep) {
  namespace tel = uwp::telemetry;
  Json totals = Json::object();
  for (std::size_t c = 0; c < tel::kCounterCount; ++c)
    totals.set(tel::to_string(static_cast<tel::Counter>(c)),
               uwp::config::u64_to_json(rep.totals[c]));
  Json windows = Json::array();
  for (const tel::Snapshot& snap : rep.snapshots) {
    Json w = Json::object();
    w.set("window", uwp::config::u64_to_json(snap.window));
    for (std::size_t c = 0; c < tel::kCounterCount; ++c)
      w.set(tel::to_string(static_cast<tel::Counter>(c)),
            uwp::config::u64_to_json(snap.counts[c]));
    windows.push_back(std::move(w));
  }
  Json counters = Json::object();
  counters.set("window", uwp::config::double_to_json(rep.options.window));
  counters.set("totals", std::move(totals));
  counters.set("windows", std::move(windows));

  Json spans = Json::object();
  for (std::size_t s = 0; s < tel::kStageCount; ++s)
    spans.set(tel::to_string(static_cast<tel::Stage>(s)),
              histogram_to_json(rep.spans[s]));
  Json samples = Json::object();
  for (std::size_t s = 0; s < tel::kSampleCount; ++s)
    samples.set(tel::to_string(static_cast<tel::Sample>(s)),
                histogram_to_json(rep.samples[s]));
  Json flight = Json::array();
  for (const tel::FlightDump& d : rep.flight) {
    Json dump = Json::object();
    dump.set("stream", uwp::config::u64_to_json(d.stream));
    dump.set("trigger", Json::string(tel::to_string(d.trigger)));
    dump.set("t", uwp::config::double_to_json(d.t));
    dump.set("window", uwp::config::u64_to_json(d.window));
    Json events = Json::array();
    for (const tel::Event& e : d.events) events.push_back(flight_event_to_json(e));
    dump.set("events", std::move(events));
    flight.push_back(std::move(dump));
  }

  Json timing = Json::object();
  timing.set("streams", uwp::config::u64_to_json(rep.streams));
  timing.set("trace_spans", uwp::config::u64_to_json(rep.trace.size()));
  timing.set("trace_dropped", uwp::config::u64_to_json(rep.trace_dropped));
  timing.set("spans", std::move(spans));
  timing.set("samples", std::move(samples));
  timing.set("flight", std::move(flight));

  Json doc = Json::object();
  doc.set("name", Json::string(spec.name));
  doc.set("mode", Json::string(uwp::config::to_string(spec.mode)));
  doc.set("counters", std::move(counters));
  doc.set("timing", std::move(timing));
  return doc;
}

// --- control log -> JSON ----------------------------------------------------

// The whole document is the deterministic plane: the ControlLog is a pure
// function of (window index, counter snapshot, control config), so these
// bytes are identical at any worker/thread count — CI diffs the file.
Json control_log_to_json(const uwp::config::ScenarioSpec& spec,
                         const uwp::control::ControlLog& log) {
  Json actions = Json::array();
  for (const uwp::control::ControlAction& a : log.actions) {
    Json o = Json::object();
    o.set("window", uwp::config::u64_to_json(a.window));
    o.set("kind", Json::string(uwp::control::to_string(a.kind)));
    // Hexfloat: the log's identity is bit-level.
    o.set("value", uwp::config::double_to_json(a.value, true));
    actions.push_back(std::move(o));
  }
  Json doc = Json::object();
  doc.set("name", Json::string(spec.name));
  doc.set("mode", Json::string(uwp::config::to_string(spec.mode)));
  doc.set("windows_observed", uwp::config::u64_to_json(log.windows_observed));
  doc.set("digest", Json::string(hex64(uwp::control::control_log_digest(log))));
  doc.set("actions", std::move(actions));
  return doc;
}

// --- SLO report -> JSON -----------------------------------------------------

Json slo_cdf_to_json(const uwp::telemetry::SloCdf& c) {
  Json o = Json::object();
  o.set("count", uwp::config::u64_to_json(c.count));
  o.set("mean", uwp::config::double_to_json(c.mean));
  o.set("min", uwp::config::double_to_json(c.min));
  o.set("max", uwp::config::double_to_json(c.max));
  o.set("p50", uwp::config::double_to_json(c.p50));
  o.set("p90", uwp::config::double_to_json(c.p90));
  o.set("p95", uwp::config::double_to_json(c.p95));
  o.set("p99", uwp::config::double_to_json(c.p99));
  o.set("p999", uwp::config::double_to_json(c.p999));
  return o;
}

// Same split as every other document this tool writes: "slo" is the
// deterministic scoreboard (counter totals, rates, pooled and per-kind
// error CDFs — byte-identical at any --threads; CI diffs exactly this
// object), "timing" holds the run-varying round-latency tails.
Json slo_report_to_json(const uwp::config::ScenarioSpec& spec,
                        const uwp::telemetry::SloReport& r) {
  Json slo = Json::object();
  slo.set("sessions", uwp::config::u64_to_json(r.sessions));
  slo.set("rounds", uwp::config::u64_to_json(r.rounds));
  slo.set("localized", uwp::config::u64_to_json(r.localized));
  slo.set("coasts", uwp::config::u64_to_json(r.coasts));
  slo.set("evicts", uwp::config::u64_to_json(r.evicts));
  slo.set("sheds", uwp::config::u64_to_json(r.sheds));
  slo.set("defers", uwp::config::u64_to_json(r.defers));
  slo.set("localize_failures", uwp::config::u64_to_json(r.localize_failures));
  slo.set("warm_start_hits", uwp::config::u64_to_json(r.warm_hits));
  slo.set("warm_start_misses", uwp::config::u64_to_json(r.warm_misses));
  slo.set("localized_rate", uwp::config::double_to_json(r.localized_rate));
  slo.set("coast_rate", uwp::config::double_to_json(r.coast_rate));
  slo.set("evict_rate", uwp::config::double_to_json(r.evict_rate));
  slo.set("shed_rate", uwp::config::double_to_json(r.shed_rate));
  slo.set("warm_start_hit_rate",
          uwp::config::double_to_json(r.warm_start_hit_rate));
  slo.set("error", slo_cdf_to_json(r.error));
  Json kinds = Json::array();
  for (const uwp::telemetry::SloKindReport& k : r.kinds) {
    Json o = Json::object();
    o.set("kind", Json::string(k.kind));
    o.set("sessions", uwp::config::u64_to_json(k.sessions));
    o.set("rounds", uwp::config::u64_to_json(k.rounds));
    o.set("localized", uwp::config::u64_to_json(k.localized));
    o.set("coasts", uwp::config::u64_to_json(k.coasts));
    o.set("localized_rate", uwp::config::double_to_json(k.localized_rate));
    o.set("coast_rate", uwp::config::double_to_json(k.coast_rate));
    o.set("error", slo_cdf_to_json(k.error));
    kinds.push_back(std::move(o));
  }
  slo.set("kinds", std::move(kinds));

  Json timing = Json::object();
  timing.set("latency_count", uwp::config::u64_to_json(r.latency_count));
  timing.set("rounds_per_sec", uwp::config::double_to_json(r.rounds_per_sec));
  timing.set("latency_p50_s", uwp::config::double_to_json(r.latency_p50_s));
  timing.set("latency_p99_s", uwp::config::double_to_json(r.latency_p99_s));
  timing.set("latency_p999_s", uwp::config::double_to_json(r.latency_p999_s));

  Json doc = Json::object();
  doc.set("name", Json::string(spec.name));
  doc.set("mode", Json::string(uwp::config::to_string(spec.mode)));
  doc.set("slo", std::move(slo));
  doc.set("timing", std::move(timing));
  return doc;
}

// --- one runner per mode; each returns the "metrics" object and fills
// --- "timing" (the only part allowed to vary run to run).

Json run_round(const uwp::config::ScenarioSpec& spec, Json& timing) {
  const uwp::sim::ScenarioRunner runner = uwp::config::make_scenario_runner(spec);
  const uwp::sim::RoundOptions opts = uwp::config::make_round_options(spec);
  uwp::Rng rng(spec.sweep.master_seed);
  uwp::sim::ScenarioRoundContext ctx(runner, opts);
  const uwp::sim::RoundResult res = ctx.run(rng);

  std::printf("one round, %zu devices: %s\n", runner.deployment().size(),
              res.ok ? "localized" : "NOT localized");
  Json metrics = Json::object();
  metrics.set("localized", Json::boolean(res.ok));
  if (res.ok) {
    metrics.set("normalized_stress",
                uwp::config::double_to_json(res.localization.normalized_stress));
    std::printf("stress %.3f m RMS\n", res.localization.normalized_stress);
  }
  Json errors = Json::array();
  for (const double e : res.error_2d) errors.push_back(uwp::config::double_to_json(e));
  metrics.set("error_2d", std::move(errors));
  timing.set("threads", uwp::config::u64_to_json(1));
  return metrics;
}

Json run_sweep(const uwp::config::ScenarioSpec& spec, Json& timing) {
  const uwp::sim::ScenarioRunner runner = uwp::config::make_scenario_runner(spec);
  const uwp::sim::RoundOptions opts = uwp::config::make_round_options(spec);
  const uwp::sim::SweepRunner sweep = uwp::config::make_sweep(spec);
  const uwp::sim::SweepResult res = sweep.run(
      [&] { return std::make_shared<uwp::sim::ScenarioRoundContext>(runner, opts); },
      [](std::size_t, uwp::Rng& rng, void* ctx) {
        auto* context = static_cast<uwp::sim::ScenarioRoundContext*>(ctx);
        uwp::sim::RoundResult round;
        context->run_into(round, rng);
        return round.error_2d;
      });

  std::printf("%zu trials (%zu failed) across %zu threads in %.3f s\n",
              res.per_trial.size(), res.failed_trials, res.threads_used,
              res.wall_seconds);
  uwp::sim::print_summary_row("per-device error", res.samples);
  Json metrics = Json::object();
  metrics.set("trials", uwp::config::u64_to_json(res.per_trial.size()));
  metrics.set("failed_trials", uwp::config::u64_to_json(res.failed_trials));
  metrics.set("error", summary_to_json(res.summary));
  timing.set("wall_seconds", uwp::config::double_to_json(res.wall_seconds));
  timing.set("threads", uwp::config::u64_to_json(res.threads_used));
  return metrics;
}

Json run_des(const uwp::config::ScenarioSpec& spec, Json& timing) {
  const uwp::des::DesScenario scenario = uwp::config::make_des_scenario(spec);
  uwp::Rng rng(spec.sweep.master_seed);
  const uwp::des::DesScenarioResult res = scenario.run(rng);

  std::printf("%zu rounds (%zu localized), period %.2f s\n", res.rounds.size(),
              res.localized_rounds, scenario.round_period_s());
  uwp::sim::print_summary_row("raw error", res.errors);
  uwp::sim::print_summary_row("tracked error", res.tracked_errors);
  Json metrics = Json::object();
  metrics.set("rounds", uwp::config::u64_to_json(res.rounds.size()));
  metrics.set("localized_rounds", uwp::config::u64_to_json(res.localized_rounds));
  metrics.set("deliveries", uwp::config::u64_to_json(res.total_deliveries));
  metrics.set("collisions", uwp::config::u64_to_json(res.total_collisions));
  metrics.set("half_duplex_drops",
              uwp::config::u64_to_json(res.total_half_duplex_drops));
  metrics.set("error", summary_to_json(uwp::summarize(res.errors)));
  metrics.set("tracked_error", summary_to_json(uwp::summarize(res.tracked_errors)));
  timing.set("threads", uwp::config::u64_to_json(1));
  return metrics;
}

// The deterministic fleet-level metrics object plus the wall-clock timing
// entries, shared verbatim by fleet and serve modes (the serve-vs-fleet
// bit-identity check in CI diffs exactly this object).
Json fleet_metrics_json(const uwp::fleet::FleetResult& res, Json& timing) {
  std::printf("%zu sessions, %zu rounds (%zu localized, %zu coasted), "
              "%zu shards, %.3f s\n",
              res.sessions.size(), res.rounds, res.localized, res.coasts,
              res.shards_used, res.wall_seconds);
  uwp::sim::print_summary_row("per-device error", res.errors);

  Json sessions = Json::array();
  for (const uwp::fleet::SessionMetrics& m : res.sessions) {
    Json s = Json::object();
    s.set("id", uwp::config::u64_to_json(m.session_id));
    s.set("kind", Json::string(uwp::sim::to_string(m.kind)));
    s.set("rounds", uwp::config::u64_to_json(m.rounds));
    s.set("localized", uwp::config::u64_to_json(m.localized));
    s.set("coasts", uwp::config::u64_to_json(m.coasts));
    s.set("mean_error", uwp::config::double_to_json(m.mean_error()));
    s.set("digest", Json::string(hex64(m.digest)));
    sessions.push_back(std::move(s));
  }
  Json metrics = Json::object();
  metrics.set("rounds", uwp::config::u64_to_json(res.rounds));
  metrics.set("localized", uwp::config::u64_to_json(res.localized));
  metrics.set("coasts", uwp::config::u64_to_json(res.coasts));
  metrics.set("fleet_digest", Json::string(hex64(res.fleet_digest)));
  metrics.set("error", summary_to_json(res.summary));
  metrics.set("sessions", std::move(sessions));

  timing.set("wall_seconds", uwp::config::double_to_json(res.wall_seconds));
  timing.set("shards", uwp::config::u64_to_json(res.shards_used));
  if (!res.round_latency_s.empty()) {
    const uwp::sim::RateLatency rl =
        uwp::sim::rate_latency(res.rounds, res.wall_seconds, res.round_latency_s);
    timing.set("rounds_per_sec", uwp::config::double_to_json(rl.rounds_per_sec));
    timing.set("round_p50_s", uwp::config::double_to_json(rl.p50_s));
    timing.set("round_p99_s", uwp::config::double_to_json(rl.p99_s));
    timing.set("round_p999_s", uwp::config::double_to_json(rl.p999_s));
  }
  return metrics;
}

Json run_fleet(const uwp::config::ScenarioSpec& spec, Json& timing,
               uwp::telemetry::Collector* telemetry,
               uwp::fleet::FleetResult& fleet_out) {
  const uwp::fleet::FleetService service = uwp::config::make_fleet_service(spec);
  fleet_out = service.run(nullptr, telemetry);
  return fleet_metrics_json(fleet_out, timing);
}

Json run_serve(const uwp::config::ScenarioSpec& spec, Json& timing,
               uwp::telemetry::Collector* telemetry,
               uwp::control::ControlEngine* engine,
               uwp::fleet::FleetResult& fleet_out) {
  uwp::fleet::Server server = uwp::config::make_fleet_server(spec);
  const std::vector<uwp::sim::GroupScenario> workload =
      uwp::config::make_workload(spec);
  uwp::fleet::RingBufferTransport transport(spec.fleet.server.transport_capacity);

  // Producer side: stream the workload's frames through the transport while
  // this thread is the server's ingest loop.
  uwp::fleet::FeedOptions feed_opts;
  feed_opts.tick_period_s = spec.fleet.server.tick_period_s;
  std::exception_ptr feed_error;
  std::thread feeder([&] {
    try {
      uwp::fleet::feed_workload(transport, workload,
                                spec.fleet.options.master_seed, feed_opts);
    } catch (...) {
      feed_error = std::current_exception();
      transport.close();
    }
  });

  uwp::fleet::ServerResult res;
  try {
    res = server.serve(transport, nullptr, telemetry, engine);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  if (feed_error != nullptr) std::rethrow_exception(feed_error);

  fleet_out = std::move(res.fleet);
  Json metrics = fleet_metrics_json(fleet_out, timing);
  const uwp::fleet::ShaperStats& sh = res.stats.shaper;
  std::printf("ingest: %zu frames, %zu admitted / %zu shed rounds, "
              "%zu defers, schedule %s (%s)\n",
              sh.frames, sh.rounds_admitted, sh.rounds_shed, sh.defer_events,
              hex64(res.schedule_digest).c_str(),
              res.stats.schedule_mismatches == 0 ? "verified" : "MISMATCH");

  Json serving = Json::object();
  serving.set("policy",
              Json::string(to_string(spec.fleet.server.options.shaping.policy)));
  serving.set("frames", uwp::config::u64_to_json(sh.frames));
  serving.set("rounds_admitted", uwp::config::u64_to_json(sh.rounds_admitted));
  serving.set("rounds_shed", uwp::config::u64_to_json(sh.rounds_shed));
  serving.set("defer_events", uwp::config::u64_to_json(sh.defer_events));
  serving.set("frames_deferred", uwp::config::u64_to_json(sh.frames_deferred));
  serving.set("max_backlog", uwp::config::u64_to_json(sh.max_backlog));
  serving.set("peak_occupancy",
              uwp::config::double_to_json(res.stats.peak_occupancy));
  serving.set("schedule_digest", Json::string(hex64(res.schedule_digest)));
  serving.set("schedule_verified",
              Json::boolean(res.stats.schedule_mismatches == 0));
  metrics.set("serving", std::move(serving));

  timing.set("frames_received", uwp::config::u64_to_json(res.stats.frames_received));
  timing.set("send_waits", uwp::config::u64_to_json(transport.send_waits()));
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  uwp::config::ScenarioSpec spec;
  try {
    spec = uwp::config::load_spec(args.spec_path);
  } catch (const uwp::config::SpecError& e) {
    std::fprintf(stderr, "uwp_run: %s\n", e.what());
    return 2;
  }

  if (!args.mode.empty()) {
    bool known = false;
    for (const uwp::config::RunMode m :
         {uwp::config::RunMode::kRound, uwp::config::RunMode::kSweep,
          uwp::config::RunMode::kDes, uwp::config::RunMode::kFleet,
          uwp::config::RunMode::kServe}) {
      if (args.mode != uwp::config::to_string(m)) continue;
      spec.mode = m;
      known = true;
    }
    if (!known) {
      std::fprintf(stderr, "uwp_run: unknown mode \"%s\"\n", args.mode.c_str());
      return 2;
    }
  }
  if (args.threads >= 0) {
    spec.sweep.threads = static_cast<std::size_t>(args.threads);
    spec.fleet.options.shards = static_cast<std::size_t>(args.threads);
    spec.fleet.server.options.workers = static_cast<std::size_t>(args.threads);
  }

  if (args.print_spec) {
    std::fputs(uwp::config::write_spec(spec).c_str(), stdout);
    return 0;
  }

  if (int rc = probe_writable(args.out_path, "--out")) return rc;
  if (int rc = probe_writable(args.telemetry_path, "--telemetry-out")) return rc;
  if (int rc = probe_writable(args.slo_path, "--slo-out")) return rc;
  if (int rc = probe_writable(args.trace_path, "--trace-spans-out")) return rc;
  if (int rc = probe_writable(args.control_path, "--control-log-out")) return rc;

  const bool control_run = !args.control_path.empty() || spec.control.enabled;
  if (control_run && spec.mode != uwp::config::RunMode::kServe) {
    std::fprintf(stderr,
                 "uwp_run: control (control.enabled/--control-log-out) is only "
                 "available in serve mode\n");
    return 2;
  }
  const bool telemetry_run = !args.telemetry_path.empty() ||
                             !args.slo_path.empty() || !args.trace_path.empty() ||
                             spec.telemetry.enabled || control_run;
  if (telemetry_run && spec.mode != uwp::config::RunMode::kFleet &&
      spec.mode != uwp::config::RunMode::kServe) {
    std::fprintf(stderr,
                 "uwp_run: telemetry (--telemetry-out/--slo-out/"
                 "--trace-spans-out) is only available in fleet/serve mode\n");
    return 2;
  }
  std::unique_ptr<uwp::telemetry::Collector> collector;
  if (telemetry_run) {
    // The output flags imply collection even when the spec leaves it off,
    // and --trace-spans-out force-enables span recording the same way.
    uwp::telemetry::TelemetryOptions topts = uwp::config::make_telemetry_options(spec);
    topts.enabled = true;
    if (!args.trace_path.empty()) topts.trace = true;
    collector = std::make_unique<uwp::telemetry::Collector>(topts);
  }
  std::unique_ptr<uwp::control::ControlEngine> engine;
  if (control_run) {
    // --control-log-out implies the control plane even when the spec leaves
    // it off (the engine needs no other configuration than the defaults).
    engine = std::make_unique<uwp::control::ControlEngine>(
        uwp::config::make_control_config(spec),
        uwp::config::make_control_baseline(spec));
  }

  std::printf("[%s] %s (mode %s)\n", args.spec_path.c_str(), spec.name.c_str(),
              uwp::config::to_string(spec.mode));
  Json doc = Json::object();
  doc.set("name", Json::string(spec.name));
  doc.set("mode", Json::string(uwp::config::to_string(spec.mode)));
  Json timing = Json::object();
  Json metrics;
  uwp::fleet::FleetResult fleet_res;
  try {
    switch (spec.mode) {
      case uwp::config::RunMode::kRound:
        metrics = run_round(spec, timing);
        break;
      case uwp::config::RunMode::kSweep:
        metrics = run_sweep(spec, timing);
        break;
      case uwp::config::RunMode::kDes:
        metrics = run_des(spec, timing);
        break;
      case uwp::config::RunMode::kFleet:
        metrics = run_fleet(spec, timing, collector.get(), fleet_res);
        break;
      case uwp::config::RunMode::kServe:
        metrics = run_serve(spec, timing, collector.get(), engine.get(), fleet_res);
        break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uwp_run: %s\n", e.what());
    return 1;
  }
  if (engine != nullptr) {
    const uwp::control::ControlLog& clog = engine->log();
    std::printf("control: %llu windows, %zu actions, log %s\n",
                static_cast<unsigned long long>(clog.windows_observed),
                clog.actions.size(),
                hex64(uwp::control::control_log_digest(clog)).c_str());
    // The summary rides the deterministic metrics object: the log is a pure
    // function of the counter plane, so it is --threads invariant too.
    Json control = Json::object();
    control.set("windows", uwp::config::u64_to_json(clog.windows_observed));
    control.set("actions", uwp::config::u64_to_json(clog.actions.size()));
    control.set("digest",
                Json::string(hex64(uwp::control::control_log_digest(clog))));
    metrics.set("control", std::move(control));
    if (!args.control_path.empty()) {
      std::ofstream cout_(args.control_path, std::ios::binary);
      if (!cout_) {
        std::fprintf(stderr, "uwp_run: cannot open %s\n", args.control_path.c_str());
        return 1;
      }
      cout_ << uwp::config::write_json(control_log_to_json(spec, clog));
      std::printf("control log written to %s\n", args.control_path.c_str());
    }
  }
  doc.set("metrics", std::move(metrics));
  doc.set("timing", std::move(timing));

  if (collector != nullptr) {
    // One report merges every stream; the telemetry, trace, and SLO
    // documents are all views over that one merge.
    const uwp::telemetry::TelemetryReport rep = collector->report();
    std::printf("telemetry: %zu streams, %zu counter windows\n", rep.streams,
                rep.snapshots.size());
    if (!rep.flight.empty())
      std::printf("flight recorder: %zu dumps\n", rep.flight.size());
    if (!args.telemetry_path.empty()) {
      std::ofstream tout(args.telemetry_path, std::ios::binary);
      if (!tout) {
        std::fprintf(stderr, "uwp_run: cannot open %s\n",
                     args.telemetry_path.c_str());
        return 1;
      }
      tout << uwp::config::write_json(telemetry_report_to_json(spec, rep));
      std::printf("telemetry written to %s\n", args.telemetry_path.c_str());
    }
    if (!args.trace_path.empty()) {
      std::ofstream tout(args.trace_path, std::ios::binary);
      if (!tout) {
        std::fprintf(stderr, "uwp_run: cannot open %s\n", args.trace_path.c_str());
        return 1;
      }
      uwp::telemetry::write_chrome_trace(tout, rep.trace);
      std::printf("trace: %zu spans (%llu over cap), structure %s, "
                  "written to %s\n",
                  rep.trace.size(),
                  static_cast<unsigned long long>(rep.trace_dropped),
                  hex64(uwp::telemetry::trace_structure_digest(rep.trace)).c_str(),
                  args.trace_path.c_str());
    }
    if (!args.slo_path.empty()) {
      const uwp::telemetry::SloReport slo = uwp::telemetry::build_slo_report(
          uwp::fleet::make_slo_inputs(fleet_res, &rep));
      std::ofstream sout(args.slo_path, std::ios::binary);
      if (!sout) {
        std::fprintf(stderr, "uwp_run: cannot open %s\n", args.slo_path.c_str());
        return 1;
      }
      sout << uwp::config::write_json(slo_report_to_json(spec, slo));
      std::printf("slo: %.1f%% localized, error p99 %.3f m, written to %s\n",
                  100.0 * slo.localized_rate, slo.error.p99,
                  args.slo_path.c_str());
    }
  }

  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "uwp_run: cannot open %s\n", args.out_path.c_str());
      return 1;
    }
    out << uwp::config::write_json(doc);
    std::printf("metrics written to %s\n", args.out_path.c_str());
  }
  return 0;
}
