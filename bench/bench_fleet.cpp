// Serving-fleet bench: how many concurrent positioning groups the sharded
// session service sustains, and at what per-round latency. Runs a mixed
// workload (static / lawnmower / waypoint / dropout-churn / packet-DES
// groups) through fleet::FleetService and reports aggregate rounds/sec plus
// p50/p99 per-round service latency per shard count.
//
//   --sessions=N     concurrent session count (default 512)
//   --threads=N      shard count for the headline run (0 = one per hardware
//                    thread; UWP_THREADS env var also works)
//   --benchmark_format=json
//                    emit google-benchmark-style JSON (BENCH_fleet.json in
//                    CI): one entry with items_per_second = rounds/sec, one
//                    entry each for the p50/p99/p999 round latency, and a
//                    second rate entry for the same run with telemetry
//                    instrumentation on — the pair CI compares to pin the
//                    instrumentation overhead (< 3%). Rates, counts and
//                    errors (coast/evict/shed rates, control actions, SLO
//                    entries) are "value" entries with a "unit"
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "bench_flags.hpp"
#include "control/engine.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "sim/metrics.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/slo.hpp"
#include "util/thread_pool.hpp"

namespace {

uwp::fleet::FleetResult run_fleet(const std::vector<uwp::sim::GroupScenario>& workload,
                                  std::size_t shards,
                                  uwp::telemetry::Collector* telemetry = nullptr) {
  uwp::fleet::FleetOptions fo;
  fo.master_seed = 0xF1EE7u;
  fo.shards = shards;
  fo.measure_latency = true;
  return uwp::fleet::FleetService(fo, workload).run(nullptr, telemetry);
}

// Bursty overload: the served workload arrives faster than the token buckets
// admit (per-partition rate sized well under the fleet's active-session
// arrival rate), so the shaper defers and sheds. The control-on run lets the
// policy engine retune the buckets from the shed/defer counters at window
// boundaries; control-off serves the same schedule with the static options.
struct OverloadRun {
  uwp::fleet::ServerResult res;
  std::uint64_t control_actions = 0;
};

OverloadRun run_overload(const std::vector<uwp::sim::GroupScenario>& workload,
                         std::size_t workers, bool control) {
  uwp::fleet::ServerOptions so;
  so.master_seed = 0xF1EE7u;
  so.workers = workers;
  so.measure_latency = true;
  so.shaping.policy = uwp::fleet::AdmissionPolicy::kDefer;
  // Per-partition bucket sized to ~1/2 of this workload's arrival share, so
  // the uncontrolled run sheds hard; the tuner can open it up to 4x.
  const double share =
      static_cast<double>(workload.size()) / (4.0 * so.shaping.ingest_shards);
  so.shaping.rate_rounds_per_s = share * 0.5;
  so.shaping.burst_rounds = share;
  so.shaping.max_defers = 2;

  uwp::telemetry::TelemetryOptions topts;
  topts.enabled = control;
  topts.timing = false;
  topts.window = 4.0;  // serve stamps seconds; 4 ticks at the default period
  uwp::telemetry::Collector collector(topts);

  uwp::control::ShardControls baseline;
  baseline.shaper_rate = so.shaping.rate_rounds_per_s;
  baseline.shaper_burst = so.shaping.burst_rounds;
  baseline.shaper_max_defers = so.shaping.max_defers;
  uwp::control::ControlEngine engine(uwp::control::ControlConfig{}, baseline);

  uwp::fleet::Server server(so, workload);
  uwp::fleet::RingBufferTransport transport(256);
  std::thread feeder([&] {
    uwp::fleet::feed_workload(transport, workload, so.master_seed, {});
  });
  OverloadRun out;
  try {
    out.res = server.serve(transport, nullptr, control ? &collector : nullptr,
                           control ? &engine : nullptr);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  out.control_actions = engine.log().actions.size();
  return out;
}

double shed_rate(const uwp::fleet::ServerResult& r) {
  const std::size_t rounds =
      r.stats.shaper.rounds_admitted + r.stats.shaper.rounds_shed;
  return rounds == 0
             ? 0.0
             : static_cast<double>(r.stats.shaper.rounds_shed) / rounds;
}

}  // namespace

int main(int argc, char** argv) {
  const uwp::bench::BenchFlags flags = uwp::bench::parse_flags(argc, argv, 512);
  const std::size_t sessions = flags.sessions;
  const std::size_t shards = flags.threads;

  uwp::sim::WorkloadParams params;
  params.sessions = sessions;
  params.seed = 0xBE7Cu;
  // Stagger admissions across most of the timeline so sessions churn: late
  // admissions land on pipelines warmed by early evictions (the arena-reuse
  // steady state a long-lived service settles into).
  params.admit_spread_ticks = 16;
  const std::vector<uwp::sim::GroupScenario> workload = uwp::sim::make_workload(params);

  if (flags.json) {
    const uwp::fleet::FleetResult r = run_fleet(workload, shards);
    const uwp::sim::RateLatency rl =
        uwp::sim::rate_latency(r.rounds, r.wall_seconds, r.round_latency_s);

    // The same run with the full telemetry plane attached (counters + span
    // timers + ring). items_per_second(run_telemetry) / items_per_second(run)
    // is the instrumentation overhead CI pins.
    uwp::telemetry::TelemetryOptions topts;
    topts.enabled = true;
    uwp::telemetry::Collector collector(topts);
    const uwp::fleet::FleetResult rt = run_fleet(workload, shards, &collector);
    const uwp::sim::RateLatency rlt =
        uwp::sim::rate_latency(rt.rounds, rt.wall_seconds, rt.round_latency_s);

    // SLO scoreboard over the instrumented run: counter totals (warm-start
    // hit rate) plus the deterministic per-round error CDF. These entries
    // are spec-derived, so CI can diff them run to run like any counter.
    const uwp::telemetry::TelemetryReport trep = collector.report();
    const uwp::telemetry::SloReport slo = uwp::telemetry::build_slo_report(
        uwp::fleet::make_slo_inputs(rt, &trep));

    // Coast/evict churn as rates per executed round: how much of the fleet's
    // work is dropout coasting, and how fast sessions turn over (every
    // session evicts exactly once at end of life in this driver).
    const double rounds = r.rounds > 0 ? static_cast<double>(r.rounds) : 1.0;
    char name[64];
    std::snprintf(name, sizeof(name), "fleet/%zusessions", sessions);
    uwp::sim::BenchJsonReporter report;
    report.add_with_rate(std::string(name) + "/run", r.wall_seconds, r.rounds,
                         rl.rounds_per_sec);
    report.add(std::string(name) + "/round_p50", rl.p50_s);
    report.add(std::string(name) + "/round_p99", rl.p99_s);
    report.add(std::string(name) + "/round_p999", rl.p999_s);
    report.add_value(std::string(name) + "/coast_rate",
                     static_cast<double>(r.coasts) / rounds, "coasts/round");
    report.add_value(std::string(name) + "/evict_rate",
                     static_cast<double>(r.sessions.size()) / rounds, "evicts/round");
    report.add_with_rate(std::string(name) + "/run_telemetry", rt.wall_seconds,
                         rt.rounds, rlt.rounds_per_sec);

    // Bursty-overload serve pair: the same shaped schedule with the control
    // plane off vs on. CI compares shed rates (control must shed less) and
    // keeps the off run's throughput pinned to the unshaped baseline.
    const OverloadRun off = run_overload(workload, shards, false);
    const uwp::sim::RateLatency rlo = uwp::sim::rate_latency(
        off.res.fleet.rounds, off.res.fleet.wall_seconds,
        off.res.fleet.round_latency_s);
    report.add_with_rate(std::string(name) + "/overload_control_off/run",
                         off.res.fleet.wall_seconds, off.res.fleet.rounds,
                         rlo.rounds_per_sec);
    report.add_value(std::string(name) + "/overload_control_off/shed_rate",
                     shed_rate(off.res), "ratio");
    report.add(std::string(name) + "/overload_control_off/round_p99", rlo.p99_s);

    const OverloadRun on = run_overload(workload, shards, true);
    const uwp::sim::RateLatency rlc = uwp::sim::rate_latency(
        on.res.fleet.rounds, on.res.fleet.wall_seconds,
        on.res.fleet.round_latency_s);
    report.add_with_rate(std::string(name) + "/overload_control_on/run",
                         on.res.fleet.wall_seconds, on.res.fleet.rounds,
                         rlc.rounds_per_sec);
    report.add_value(std::string(name) + "/overload_control_on/shed_rate",
                     shed_rate(on.res), "ratio");
    report.add(std::string(name) + "/overload_control_on/round_p99", rlc.p99_s);
    report.add_value(std::string(name) + "/overload_control_on/actions",
                     static_cast<double>(on.control_actions), "count");
    report.add_value(std::string(name) + "/warm_start_hit_rate",
                     slo.warm_start_hit_rate, "ratio");
    report.add_value(std::string(name) + "/slo_localized_rate", slo.localized_rate,
                     "ratio");
    report.add_value(std::string(name) + "/slo_error_p50", slo.error.p50, "m");
    report.add_value(std::string(name) + "/slo_error_p99", slo.error.p99, "m");
    report.add_value(std::string(name) + "/slo_error_p999", slo.error.p999, "m");
    report.write();
    return r.localized > 0 && rt.localized == r.localized ? 0 : 1;
  }

  std::printf("=== fleet serving: %zu concurrent positioning groups ===\n", sessions);
  std::map<uwp::sim::GroupScenarioKind, std::size_t> kinds;
  std::size_t devices = 0;
  for (const uwp::sim::GroupScenario& sc : workload) {
    ++kinds[sc.kind];
    devices += sc.scene.positions.size();
  }
  std::printf("workload mix (%zu devices total):", devices);
  for (const auto& [kind, count] : kinds)
    std::printf("  %s=%zu", uwp::sim::to_string(kind), count);
  std::printf("\n\n");

  std::printf("%8s %12s %14s %14s %15s %10s %10s\n", "shards", "rounds/sec",
              "p50 round[ms]", "p99 round[ms]", "p999 round[ms]", "wall[s]",
              "reused");
  uwp::fleet::FleetResult last;
  std::vector<std::size_t> shard_counts = {1, 2, shards == 1 ? 4 : shards};
  // Dedupe resolved counts (e.g. --threads=2, or 0 resolving to 2 on a
  // 2-thread machine) so no configuration runs twice.
  for (std::size_t i = 0; i < shard_counts.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (uwp::ThreadPool::resolve_thread_count(shard_counts[i]) ==
          uwp::ThreadPool::resolve_thread_count(shard_counts[j])) {
        shard_counts.erase(shard_counts.begin() + static_cast<std::ptrdiff_t>(i--));
        break;
      }
  for (const std::size_t s : shard_counts) {
    uwp::fleet::FleetOptions fo;
    fo.master_seed = 0xF1EE7u;
    fo.shards = s;
    fo.measure_latency = true;
    uwp::fleet::FleetService service(fo, workload);
    uwp::fleet::FleetResult r = service.run();
    const uwp::sim::RateLatency rl =
        uwp::sim::rate_latency(r.rounds, r.wall_seconds, r.round_latency_s);
    std::printf("%8zu %12.0f %14.3f %14.3f %15.3f %10.2f %9zu%%\n", r.shards_used,
                rl.rounds_per_sec, rl.p50_s * 1e3, rl.p99_s * 1e3, rl.p999_s * 1e3,
                r.wall_seconds,
                service.arena_stats().leases == 0
                    ? 0
                    : 100 * service.arena_stats().reuses / service.arena_stats().leases);
    last = std::move(r);
  }

  // Overload pair (see run_overload): how much shed the self-tuning control
  // plane recovers on the same bursty schedule.
  const OverloadRun off = run_overload(workload, shards, false);
  const OverloadRun on = run_overload(workload, shards, true);
  std::printf(
      "\nbursty overload: shed %.1f%% static -> %.1f%% controlled (%zu actions)\n",
      100.0 * shed_rate(off.res), 100.0 * shed_rate(on.res),
      static_cast<std::size_t>(on.control_actions));

  // Accuracy stays what the single-group benches report (the fleet only
  // multiplexes sessions; it never touches the solver math).
  std::printf("\n%zu rounds, %zu localized, %zu coasted\n", last.rounds, last.localized,
              last.coasts);
  uwp::sim::print_summary_row("per-device error (all sessions)", last.errors);
  return 0;
}
