// The serving front-end: fleet::Server consumes a stream of wire-encoded
// ingest frames from a Transport and runs them through the same
// SessionConsumer (arena lease, warm pipeline, solver stream, metrics)
// FleetService drives synchronously.
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
//                               (ShardArena + one SessionConsumer
//                                per owned session id)
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

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "fleet/service.hpp"
#include "fleet/shaper.hpp"
#include "fleet/transport.hpp"

namespace uwp::control {
class ControlEngine;
}

namespace uwp::fleet {

// --- bounded dispatch queue -------------------------------------------------

// Single-producer (the ingest loop) bounded blocking queue feeding one
// worker. Blocking push is the dispatch-level backpressure; items are never
// dropped, so queue timing cannot change results.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_; });
    items_.push_back(std::move(item));
    not_empty_.notify_one();
  }

  // False when the queue is closed and drained.
  bool pop(T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  // Instantaneous occupancy (telemetry sampling; inherently racy-by-time,
  // never part of any determinism contract).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

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
  // control loop: at every telemetry-window boundary of the virtual clock
  // the ingest loop flushes due retries, quiesces the workers (a
  // dispatched-vs-processed barrier — the happens-before edge for the
  // closed window's counter pages, whose kRounds the shaper tuner reads),
  // folds the window into the engine, and retunes the shaper in place.
  // Decisions depend only on the virtual clock, so the ControlLog is
  // worker-count invariant. Throws WireError (the transport
  // is closed first so producers unblock) on
  //   * a malformed frame or measurement payload,
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
