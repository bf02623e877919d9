#include "fleet/server.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "control/engine.hpp"
#include "fleet/recorder.hpp"
#include "telemetry/collector.hpp"
#include "util/thread_pool.hpp"

namespace uwp::fleet {

namespace {

// One admitted-or-shed frame on its way to a worker.
struct WorkItem {
  IngestFrame frame;
  bool shed = false;
  double enq_ts = 0.0;   // trace clock at enqueue (0 when not tracing)
  double decide_s = 0.0;  // virtual time of the shaper's final verdict
};

}  // namespace

Server::Server(const ServerOptions& opts, std::vector<sim::GroupScenario> workload)
    : opts_(opts), workload_(std::move(workload)) {
  check_workload(workload_, "Server");
}

ServerResult Server::serve(Transport& transport, SessionRecorder* recorder,
                           telemetry::Collector* telemetry,
                           control::ControlEngine* engine) {
  const auto wall0 = std::chrono::steady_clock::now();
  const std::size_t workers = ThreadPool::resolve_thread_count(opts_.workers);

  // Stream 0 is the ingest loop, streams 1..workers the worker loops, and
  // (with control on) stream workers + 1 the engine.
  telemetry::Collector* const col =
      telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (engine != nullptr && col == nullptr)
    throw std::invalid_argument("Server: control requires enabled telemetry");
  if (col != nullptr) col->open(workers + 1 + (engine != nullptr ? 1 : 0));
  // The boundary length in virtual seconds is the collector's window (the
  // telemetry factory already scaled it by the tick period for serve mode).
  const double window_s = engine != nullptr ? col->options().window : 0.0;
  if (engine != nullptr && !(window_s > 0.0))
    throw std::invalid_argument("Server: control requires a positive telemetry window");
  if (engine != nullptr)
    engine->bind_stream(&col->stream(workers + 1), window_s);

  std::vector<std::unique_ptr<BoundedQueue<WorkItem>>> queues;
  queues.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    queues.push_back(std::make_unique<BoundedQueue<WorkItem>>(opts_.queue_depth));

  // Per-worker outputs, merged in worker order after the join.
  std::vector<std::vector<SessionConsumer>> consumers(workers);
  std::vector<std::vector<double>> latencies(workers);
  std::vector<std::exception_ptr> errors(workers);

  auto worker_body = [&](std::size_t w) {
    // Sessions map to workers by id, so worker w owns the consumers of ids
    // w, w + workers, ... — at index id / workers — and none needs a lock.
    std::vector<SessionConsumer>& mine = consumers[w];
    mine.reserve(workload_.size() / workers + 1);
    for (std::size_t id = w; id < workload_.size(); id += workers)
      mine.emplace_back(workload_[id], opts_.master_seed);
    telemetry::ShardStream* const tel = col != nullptr ? &col->stream(1 + w) : nullptr;
    std::vector<double>* lat = opts_.measure_latency ? &latencies[w] : nullptr;

    const auto process = [&](WorkItem& item) {
      const std::uint64_t id = item.frame.session_id;
      SessionConsumer& s = mine[static_cast<std::size_t>(id) / workers];
      // kBye ends a session in every state; a later frame would rebuild a
      // runtime and wipe the session's recorded trace mid-run.
      if (s.state() == SessionState::kEvicted)
        throw WireError("ingest: frame for session " + std::to_string(id) +
                        " after its kBye");
      // Counter windows key off the frame's virtual decision time (its own
      // t_s unless the shaper deferred it), which is what makes the
      // counters section worker-count invariant: a frame's counters land
      // in the window its verdict belongs to.
      if (tel != nullptr) tel->set_time(item.decide_s);

      if (item.frame.kind == IngestKind::kBye) {
        s.evict();
        return;
      }
      if (s.state() == SessionState::kPending) s.admit(recorder, tel);

      if (item.frame.kind == IngestKind::kCoast || item.shed) {
        // Device-side dropout and server-side shed land in the same
        // place: the tracker coasts, and the trace records a coast.
        s.coast(item.frame.dt_s);
        return;
      }

      if (tel != nullptr && tel->trace_enabled()) {
        // Close the causal chain: queue residency (enqueue -> this pop)
        // under the ingest span; round() then arms the pipeline.
        tel->trace_span(telemetry::make_trace_id(id, item.frame.round),
                        telemetry::TraceOp::kQueue, telemetry::TraceOp::kIngest,
                        item.enq_ts);
      }
      s.decode(item.frame.payload);
      s.round(item.frame.round, item.frame.dt_s, lat);
    };

    WorkItem item;
    while (queues[w]->pop(item)) {
      if (errors[w] != nullptr) continue;  // failed: drain without processing
      try {
        process(item);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_body, w);

  telemetry::ShardStream* const ingest_tel = col != nullptr ? &col->stream(0) : nullptr;
  // The serve-side control loop: at each window boundary of the virtual
  // clock the scheduler hands the closed window to the engine and runs on
  // with the knobs it returns. The tuner reads only the verdict counters
  // this thread writes on its own stream, so the fold never waits on a
  // worker, and the ControlLog is a pure function of the ingest schedule —
  // byte-identical at any worker count.
  IngestScheduler::Retune retune;
  if (engine != nullptr)
    retune = [&](std::uint64_t w) {
      telemetry::Snapshot snap;
      snap.window = w;
      const std::vector<telemetry::ShardStream::CounterPage>& pages = ingest_tel->pages();
      if (w < pages.size()) snap.counts = pages[w];
      engine->observe_window(w, snap);
      return engine->controls();
    };
  IngestScheduler scheduler(opts_.shaping, workload_.size(), window_s, std::move(retune));
  scheduler.set_telemetry(ingest_tel);
  const IngestScheduler::Dispatch dispatch = [&](IngestFrame&& f, bool shed,
                                                 double decide_s) {
    const std::size_t w = static_cast<std::size_t>(f.session_id) % workers;
    // size() takes the queue's lock: only a timed run pays for the sample.
    if (ingest_tel != nullptr && ingest_tel->timing_enabled())
      ingest_tel->sample(telemetry::Sample::kQueueDepth,
                         static_cast<double>(queues[w]->size()));
    WorkItem item;
    item.frame = std::move(f);
    item.shed = shed;
    item.decide_s = decide_s;
    if (ingest_tel != nullptr && ingest_tel->trace_enabled())
      item.enq_ts = ingest_tel->trace_now();
    // The queues close only after the ingest loop ends, so push never fails.
    queues[w]->push(std::move(item));
  };

  ServerResult out;
  std::exception_ptr ingest_error;
  try {
    std::vector<std::uint8_t> bytes;
    IngestFrame frame;
    const bool tracing =
        ingest_tel != nullptr && ingest_tel->trace_enabled();
    while (transport.recv(bytes)) {
      ++out.stats.frames_received;
      const double trace_ts0 = tracing ? ingest_tel->trace_now() : 0.0;
      telemetry::SpanTimer span(ingest_tel, telemetry::Stage::kIngest);
      decode_ingest_frame(bytes, frame);
      // Trace root of the serve-side chain: one kIngest span per
      // measurement frame covering decode + the shaper's verdict, tagged
      // before on_frame consumes the frame.
      const std::uint64_t trace_id =
          tracing && frame.kind == IngestKind::kMeasurement
              ? telemetry::make_trace_id(frame.session_id, frame.round)
              : 0;
      const double frame_t_s = frame.t_s;
      scheduler.on_frame(std::move(frame), dispatch);
      if (trace_id != 0) {
        ingest_tel->set_time(frame_t_s);
        ingest_tel->trace_span(trace_id, telemetry::TraceOp::kIngest,
                               telemetry::TraceOp::kNone, trace_ts0);
      }
      frame.clear();
    }
    scheduler.finish(dispatch);
  } catch (...) {
    // Unblock producers stuck in send() and let the workers drain.
    ingest_error = std::current_exception();
    transport.close();
  }

  for (auto& q : queues) q->close();
  for (std::thread& t : threads) t.join();

  if (ingest_error != nullptr) std::rethrow_exception(ingest_error);
  for (const std::exception_ptr& e : errors)
    if (e != nullptr) std::rethrow_exception(e);

  // Merge per-session metrics in id order: bit-identical for any worker
  // count by construction.
  std::vector<SessionMetrics> metrics(workload_.size());
  for (std::size_t id = 0; id < workload_.size(); ++id)
    metrics[id] = consumers[id % workers][id / workers].take_metrics();

  out.fleet = finalize_fleet_result(std::move(metrics));
  out.fleet.shards_used = workers;
  for (std::size_t w = 0; w < workers; ++w)
    out.fleet.round_latency_s.insert(out.fleet.round_latency_s.end(),
                                     latencies[w].begin(), latencies[w].end());
  out.fleet.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  out.stats.shaper = scheduler.stats();
  out.stats.peak_occupancy = scheduler.peak_occupancy();
  out.stats.workers_used = workers;
  out.schedule = scheduler.take_schedule();
  out.schedule_digest = ingest_schedule_digest(out.schedule);
  std::span<const control::ControlAction> actions;
  if (engine != nullptr) actions = engine->log().actions;
  out.stats.schedule_mismatches = verify_ingest_schedule(
      out.schedule, opts_.shaping, workload_.size(), actions, window_s);
  return out;
}

// --- feed_workload ----------------------------------------------------------

std::size_t feed_workload(Transport& transport,
                          const std::vector<sim::GroupScenario>& workload,
                          std::uint64_t master_seed, const FeedOptions& opts) {
  std::vector<MeasurementFeed> feeds;
  feeds.reserve(workload.size());
  for (const sim::GroupScenario& sc : workload) feeds.emplace_back(sc, master_seed);

  std::vector<bool> open(workload.size(), false);
  std::vector<std::uint32_t> rounds(workload.size(), 0);
  std::size_t live = workload.size();
  std::size_t sent = 0;

  pipeline::RoundMeasurement meas;
  IngestFrame frame;
  std::vector<std::uint8_t> bytes;

  // Mirror the FleetService scheduler: one event per live session per tick,
  // sessions in id order within a tick, admission gated on admit_tick. This
  // ordering (with t_s = tick * tick_period_s) IS the ingest schedule every
  // shaping decision is a function of.
  for (std::size_t tick = 0; live > 0; ++tick) {
    const double t_s = static_cast<double>(tick) * opts.tick_period_s;
    for (std::size_t id = 0; id < workload.size(); ++id) {
      MeasurementFeed& feed = feeds[id];
      if (feed.exhausted()) continue;
      if (!open[id]) {
        if (tick < workload[id].admit_tick) continue;
        feed.open();
        open[id] = true;
      }

      frame.clear();
      frame.session_id = id;
      frame.t_s = t_s;
      frame.dt_s = feed.next_dt_s();
      frame.round = rounds[id];
      if (feed.next(meas) == MeasurementFeed::Event::kMeasurement) {
        frame.kind = IngestKind::kMeasurement;
        encode_measurement(meas, frame.payload);
        ++rounds[id];
      } else {
        frame.kind = IngestKind::kCoast;
      }
      encode_ingest_frame(frame, bytes);
      if (!transport.send(std::move(bytes))) return sent;
      bytes = {};
      ++sent;

      if (feed.exhausted()) {
        feed.close();
        frame.clear();
        frame.kind = IngestKind::kBye;
        frame.session_id = id;
        frame.round = rounds[id];
        frame.t_s = t_s;
        encode_ingest_frame(frame, bytes);
        if (!transport.send(std::move(bytes))) return sent;
        bytes = {};
        ++sent;
        --live;
      }
    }
  }

  transport.close();
  return sent;
}

}  // namespace uwp::fleet
