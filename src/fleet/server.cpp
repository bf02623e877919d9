#include "fleet/server.hpp"

#include <algorithm>
#include <atomic>
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

  // Per-worker outputs, merged in worker order after the join. `processed`
  // counters pair with the ingest loop's private dispatched counts to form
  // the boundary barrier: a worker publishes each consumed item with a
  // release increment, and the ingest loop's acquire spin at a window
  // boundary is the happens-before edge that makes the closed window's
  // counter pages safe to merge.
  std::vector<std::vector<SessionConsumer>> consumers(workers);
  std::vector<std::vector<double>> latencies(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::atomic<std::uint64_t>> processed(workers);

  auto worker_body = [&](std::size_t w) {
    // Sessions map to workers by id, so worker w owns the consumers of ids
    // w, w + workers, ... — at index id / workers — and none needs a lock.
    std::vector<SessionConsumer>& mine = consumers[w];
    mine.reserve(workload_.size() / workers + 1);
    for (std::size_t id = w; id < workload_.size(); id += workers)
      mine.emplace_back(workload_[id], opts_.master_seed);
    ShardArena arena;
    telemetry::ShardStream* const tel = col != nullptr ? &col->stream(1 + w) : nullptr;
    arena.set_telemetry(tel);
    std::vector<double>* lat = opts_.measure_latency ? &latencies[w] : nullptr;

    const auto process = [&](WorkItem& item) {
      const std::uint64_t id = item.frame.session_id;
      SessionConsumer& s = mine[static_cast<std::size_t>(id) / workers];
      // kBye ends a session in every state; a later frame would re-lease a
      // runtime and wipe the session's recorded trace mid-run.
      if (s.state() == SessionState::kEvicted)
        throw WireError("ingest: frame for session " + std::to_string(id) +
                        " after its kBye");
      // Counter windows key off the frame's virtual decision time (its own
      // t_s unless the shaper deferred it), which is what makes the
      // counters section worker-count invariant — and what guarantees a
      // frame's counters land in the window its verdict belongs to, so the
      // boundary barrier sees every closed window complete.
      if (tel != nullptr) tel->set_time(item.decide_s);

      if (item.frame.kind == IngestKind::kBye) {
        s.evict();
        return;
      }
      if (s.state() == SessionState::kPending) s.admit(arena, recorder, tel);

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
      if (errors[w] == nullptr) {  // failed: drain without processing
        try {
          process(item);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      }
      // Publish the consumption — after every side effect — so the ingest
      // loop's boundary barrier can acquire the counter pages this item
      // touched. Counted even on the drain path to keep the barrier live.
      processed[w].fetch_add(1, std::memory_order_release);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_body, w);

  telemetry::ShardStream* const ingest_tel = col != nullptr ? &col->stream(0) : nullptr;
  IngestScheduler scheduler(opts_.shaping, workload_.size());
  scheduler.set_telemetry(ingest_tel);
  // Ingest-thread private: items pushed per queue, paired with `processed`
  // at boundary barriers.
  std::vector<std::uint64_t> dispatched(workers, 0);
  const IngestScheduler::Dispatch dispatch = [&](IngestFrame&& f, bool shed,
                                                 double decide_s) {
    const std::size_t w = static_cast<std::size_t>(f.session_id) % workers;
    if (ingest_tel != nullptr)
      ingest_tel->sample(telemetry::Sample::kQueueDepth,
                         static_cast<double>(queues[w]->size()));
    WorkItem item;
    item.frame = std::move(f);
    item.shed = shed;
    item.decide_s = decide_s;
    if (ingest_tel != nullptr && ingest_tel->trace_enabled())
      item.enq_ts = ingest_tel->trace_now();
    queues[w]->push(std::move(item));
    ++dispatched[w];
  };

  // The serve-side control loop. Before feeding an arrival at or past a
  // window boundary: resolve every retry due by the boundary (so the
  // closing window's verdicts are final), quiesce the workers (the shaper
  // tuner reads their kRounds), fold the window into the engine, and retune
  // the shaper in place. Every step keys off the frames' virtual clock, so
  // the ControlLog is a pure function of the ingest schedule — byte-identical
  // at any worker count. The boundary times are computed as
  // (window + 1) * window_s (multiplied, never accumulated) so
  // verify_ingest_schedule's re-run hits bit-identical boundaries.
  std::uint64_t closing = 0;  // window index the next boundary closes
  double next_boundary = window_s;
  const auto cross_boundaries = [&](double arrival_s) {
    while (arrival_s >= next_boundary) {
      scheduler.flush_until(next_boundary, dispatch);
      for (std::size_t w = 0; w < workers; ++w)
        while (processed[w].load(std::memory_order_acquire) < dispatched[w])
          std::this_thread::yield();
      const std::uint64_t w_closed = closing++;
      engine->observe_window(w_closed, col->window_snapshot(w_closed));
      const control::ShardControls& c = engine->controls();
      scheduler.retune(c.shaper_rate, c.shaper_burst, c.shaper_max_defers);
      next_boundary = static_cast<double>(closing + 1) * window_s;
    }
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
      if (engine != nullptr) cross_boundaries(frame.t_s);
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

  // Observe the trailing windows (the join above is the barrier). The window
  // count is derived from the schedule's last decide time — a pure function
  // of the ingest schedule, never of page-count bookkeeping, so
  // ControlLog::windows_observed is worker-count invariant.
  if (engine != nullptr && !scheduler.schedule().empty()) {
    double last_decide = 0.0;
    for (const IngestRecord& r : scheduler.schedule())
      last_decide = std::max(last_decide, r.decide_s);
    const std::uint64_t n_windows =
        static_cast<std::uint64_t>(last_decide / window_s) + 1;
    while (closing < n_windows) {
      engine->observe_window(closing, col->window_snapshot(closing));
      ++closing;
    }
  }

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
  out.stats.schedule_mismatches =
      engine != nullptr
          ? verify_ingest_schedule(out.schedule, opts_.shaping, workload_.size(),
                                   engine->log().actions, window_s)
          : verify_ingest_schedule(out.schedule, opts_.shaping, workload_.size());
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
