// Serving many positioning groups at once: a narrated tour of the fleet
// layer, driven end to end by a declarative ScenarioSpec. The spec file
// describes the whole workload mix and service configuration; this program
// builds the service from it, runs it while fleet::SessionRecorder captures
// every session's measurement bytes, then replays the trace through the
// real service stack and verifies the replay reproduced every per-session
// metric bit for bit — the regression-testing loop a deployed fleet would
// run against captured field traffic.
//
//   ./examples/example_fleet_serving [spec.json]   (default: fleet_serving.json)
#include <cstdio>
#include <map>

#include "config/factory.hpp"
#include "config/spec.hpp"
#include "fleet/recorder.hpp"
#include "fleet/service.hpp"
#include "sim/metrics.hpp"

#ifndef UWP_SPEC_DIR
#define UWP_SPEC_DIR "examples/specs"
#endif

int main(int argc, char** argv) {
  const char* spec_path = argc > 1 ? argv[1] : UWP_SPEC_DIR "/fleet_serving.json";

  uwp::config::ScenarioSpec spec;
  try {
    spec = uwp::config::load_spec(spec_path);
  } catch (const uwp::config::SpecError& e) {
    std::fprintf(stderr, "fleet_serving: %s\n", e.what());
    return 2;
  }

  // 1. The mixed workload the spec describes (admissions staggered past the
  //    first evictions, so sessions churn).
  const uwp::fleet::FleetService service = uwp::config::make_fleet_service(spec);
  const auto& workload = service.workload();

  std::map<uwp::sim::GroupScenarioKind, std::size_t> kinds;
  for (const auto& sc : workload) ++kinds[sc.kind];
  std::printf("[%s] workload: %zu sessions —", spec_path, workload.size());
  for (const auto& [kind, count] : kinds)
    std::printf(" %s=%zu", uwp::sim::to_string(kind), count);
  std::printf("\n");

  // 2. Serve the fleet, recording every session as it runs.
  uwp::fleet::SessionRecorder recorder(spec.fleet.options.master_seed,
                                       spec.fleet.workload, workload);
  const uwp::fleet::FleetResult live = service.run(&recorder);

  const uwp::sim::RateLatency rl =
      uwp::sim::rate_latency(live.rounds, live.wall_seconds, live.round_latency_s);
  std::printf("live run: %zu shards, %zu rounds (%zu localized, %zu coasted)\n",
              live.shards_used, live.rounds, live.localized, live.coasts);
  std::printf("          %.0f rounds/sec, round latency p50=%.2f ms p99=%.2f ms\n",
              rl.rounds_per_sec, rl.p50_s * 1e3, rl.p99_s * 1e3);
  uwp::sim::print_summary_row("per-device error", live.errors);

  // 3. Save the trace, reload it, replay it through the real decode ->
  //    pipeline path, and compare bit for bit. The trace header pins the
  //    workload digest, so a skewed workload generator is rejected instead
  //    of silently replaying different sessions.
  const char* path = "fleet_serving.trace";
  recorder.save(path);
  const uwp::fleet::FleetTrace trace = uwp::fleet::load_fleet_trace(path);
  std::remove(path);  // the loaded copy is all the replay needs
  std::size_t bytes = 0;
  for (const auto& s : trace.sessions)
    for (const auto& ev : s.events) bytes += ev.payload.size() + 16;
  std::printf("trace: %s (%zu sessions, ~%zu KiB)\n", path, trace.sessions.size(),
              bytes / 1024);

  const uwp::fleet::Replayer replayer(trace);
  const auto replay = replayer.replay();

  bool identical = replay.fleet.fleet_digest == live.fleet_digest &&
                   replay.result_mismatches == 0;
  for (std::size_t i = 0; identical && i < live.sessions.size(); ++i)
    identical = live.sessions[i].bit_equal(replay.fleet.sessions[i]);
  std::printf("replay: %zu rounds recomputed, %zu result mismatches — %s\n",
              replay.fleet.rounds, replay.result_mismatches,
              identical ? "bit-identical to the live run" : "MISMATCH");
  return identical ? 0 : 1;
}
