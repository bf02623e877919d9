// The serving front-end: fleet::Server consumes a stream of wire-encoded
// ingest frames from a Transport and runs them through the same
// SessionConsumer (pipeline, solver stream, metrics) FleetService drives
// synchronously.
//
//   producers --frames--> Transport --> ingest loop --> IngestScheduler
//                                           |                 |
//                                           |          (admit / shed / defer
//                                           |           on the virtual clock)
//                                           v                 v
//                                  per-worker bounded     ingest schedule
//                                  dispatch queues        (IngestRecord[])
//                                           |
//                                      worker threads
//                               (one SessionConsumer per owned
//                                session id)
//
// Concurrency is real — bounded queues, blocking backpressure, worker
// threads — but none of it is allowed to influence results:
//   * admission decisions run on the frames' virtual clock inside the single
//     ingest loop (fleet/shaper.hpp), so they are a pure function of the
//     ingest schedule and the options;
//   * sessions map to workers by id, each session's solver rng stream is
//     derived from (master_seed, id) exactly as in the synchronous service,
//     and queues block instead of dropping;
//   * kBye ends a session for good, so a session is admitted at most once
//     and its recorded trace is never restarted mid-run;
//   * a shed round executes as a tracker coast, which the recorder captures
//     like any device-side dropout, so a served run's trace replays through
//     fleet::Replayer unchanged.
// Net effect: ServerResult.fleet is bit-identical for any worker count, and
// with shaping off it is bit-identical to FleetService::run on the same
// (workload, master_seed).
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/service.hpp"
#include "fleet/shaper.hpp"
#include "fleet/transport.hpp"

namespace uwp::control {
class ControlEngine;
}

namespace uwp::fleet {

// --- server -----------------------------------------------------------------

struct ServerOptions {
  // Must match the seed the producers derived their measurement streams
  // from; the server re-derives only the per-session solver streams.
  std::uint64_t master_seed = 0x75770517u;
  // Worker threads executing admitted rounds (0 = hardware concurrency).
  // Never part of the determinism contract.
  std::size_t workers = 1;
  // Per-worker dispatch queue depth (backpressure bound, not a droppable
  // buffer).
  std::size_t queue_depth = 64;
  ShaperOptions shaping;
  bool measure_latency = false;
};

// Serving-side counters. Everything except frames_received/workers_used is a
// deterministic function of the ingest schedule.
struct ServerStats {
  ShaperStats shaper;
  double peak_occupancy = 0.0;
  // Recorded-vs-recomputed verifier (verify_ingest_schedule) run on the
  // schedule this serve produced: nonzero would mean a decision depended on
  // something other than the schedule's deterministic inputs.
  std::size_t schedule_mismatches = 0;
  std::size_t frames_received = 0;
  std::size_t workers_used = 0;
};

struct ServerResult {
  FleetResult fleet;
  ServerStats stats;
  // The full admit/shed/defer record, in arrival order.
  std::vector<IngestRecord> schedule;
  std::uint64_t schedule_digest = 0;
};

class Server {
 public:
  // Workload must be indexed by session id (workload[i].session_id == i),
  // as produced by sim::make_workload; it defines each session's pipeline
  // configuration and scene, exactly as for FleetService.
  Server(const ServerOptions& opts, std::vector<sim::GroupScenario> workload);

  // Run one serve cycle: consume frames until the transport drains, resolve
  // every deferred decision, join the workers. Blocks the calling thread
  // (it is the ingest loop). `recorder`, when set, captures the served
  // run's trace in the standard fleet trace format — replayable through
  // fleet::Replayer. `telemetry`, when set and enabled, is opened with
  // workers + 1 streams: stream 0 is the ingest loop (shaper verdicts on
  // the virtual clock, dispatch-queue depth samples), streams 1..workers
  // the worker loops (frame counters keyed by each frame's virtual decision
  // time, stage spans) — so the counters section is invariant to the worker
  // count. `engine`, when set (requires enabled telemetry — throws
  // std::invalid_argument otherwise), gets stream workers + 1 and runs the
  // control loop inside the IngestScheduler's window loop: at every
  // telemetry-window boundary of the virtual clock the scheduler flushes
  // due retries, the engine folds the closed window of the ingest stream's
  // own verdict counters, and the shaper runs on with the returned knobs.
  // The ingest thread never waits on the workers; decisions depend only on
  // the virtual clock, so the ControlLog is worker-count invariant. Throws
  // WireError (the transport is closed first so producers unblock) on
  //   * a malformed frame or measurement payload,
  //   * a t_s that is negative, not finite, or earlier than the previous
  //     frame's, or a dt_s that is not finite,
  //   * an unknown session id,
  //   * a measurement whose device count is not its session's,
  //   * any frame for a session after that session's kBye.
  ServerResult serve(Transport& transport, SessionRecorder* recorder = nullptr,
                     telemetry::Collector* telemetry = nullptr,
                     control::ControlEngine* engine = nullptr);

  const ServerOptions& options() const { return opts_; }

 private:
  ServerOptions opts_;
  std::vector<sim::GroupScenario> workload_;
};

// --- workload feeder --------------------------------------------------------

struct FeedOptions {
  // Virtual seconds between scheduler ticks: frame t_s = tick *
  // tick_period_s, the clock every shaping decision runs on.
  double tick_period_s = 1.0;
};

// Drive a generated workload through a Transport the way FleetService would
// have run it: sessions admit at their admit tick and emit one event per
// tick (a measurement frame, or a coast frame on a device-side dropout draw)
// until their lifetime is exhausted, then say kBye. Events come from the
// same MeasurementFeed (and therefore the same per-session measurement rng
// streams) the synchronous service consumes, which is what makes an
// unshaped served run bit-identical to FleetService::run. Closes the
// transport when the workload is exhausted; returns frames sent.
std::size_t feed_workload(Transport& transport,
                          const std::vector<sim::GroupScenario>& workload,
                          std::uint64_t master_seed, const FeedOptions& opts = {});

}  // namespace uwp::fleet
