// The sharded multi-session positioning service: owns the lifecycle of
// thousands of concurrent positioning groups, partitioned across shards by
// session id and executed on a util::ThreadPool (one worker per shard).
// Sessions are fully independent — each consumes only its two private rng
// streams — so a shard can run its slice of the timeline start to finish
// without synchronizing, and the aggregate (collected in session-id order)
// is bit-identical at ANY shard count, including the serial shards = 1
// reference. This is the serving-side restatement of sim::SweepRunner's
// determinism contract.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/session.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/slo.hpp"

namespace uwp::telemetry {
class Collector;
struct TelemetryReport;
}

namespace uwp::fleet {

class SessionRecorder;  // recorder.hpp

struct FleetOptions {
  std::uint64_t master_seed = 0x75770517u;
  // 0 = one shard per hardware thread; 1 = serial reference path.
  std::size_t shards = 0;
  // Record the wall-clock of every run_round call into
  // FleetResult::round_latency_s (for the bench's p50/p99 reporting).
  bool measure_latency = false;
};

class FleetService {
 public:
  // The workload (one scenario per session, indexed by session id) is
  // typically sim::make_workload(params); a custom vector works as long as
  // session_id == index. Throws std::invalid_argument otherwise.
  FleetService(FleetOptions opts, std::vector<sim::GroupScenario> workload);

  const FleetOptions& options() const { return opts_; }
  const std::vector<sim::GroupScenario>& workload() const { return workload_; }

  // Ticks the scheduler needs to drain every session: max over sessions of
  // admit_tick + lifetime_rounds.
  std::size_t ticks() const;

  // Run every session to eviction in one pass: each shard runs its slice of
  // the whole timeline on its own pool thread. `recorder`, when given,
  // captures the run as a replayable trace (it must have been constructed
  // for this service's workload). `telemetry`, when given and enabled, is
  // opened with one stream per shard; counter events carry the tick as
  // virtual time, so the collector's counters section is bit-identical at
  // any shard count. Thread-safe internally; call from one thread.
  FleetResult run(SessionRecorder* recorder = nullptr,
                  telemetry::Collector* telemetry = nullptr) const;

 private:
  FleetOptions opts_;
  std::vector<sim::GroupScenario> workload_;
};

// Fold a finished run into the SLO reducer's inputs: per-kind session /
// round / error tallies from the (deterministic, id-ordered) FleetResult,
// counter totals from `report` when given (evict/shed/warm-start rates),
// and the run-varying latency samples. Every GroupScenarioKind appears, in
// enum order, so the reduced scoreboard's shape is spec-independent and
// its content bit-identical at any shard/worker count.
telemetry::SloInputs make_slo_inputs(const FleetResult& result,
                                     const telemetry::TelemetryReport* report);

}  // namespace uwp::fleet
