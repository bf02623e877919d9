#include "layers.hpp"

#include <algorithm>
#include <utility>

#include "fleet/wire.hpp"

namespace ledger {

using uwp::fleet::IngestFrame;
using uwp::fleet::IngestKind;
using uwp::fleet::MeasurementFeed;

namespace {

std::size_t kind_index(const uwp::sim::GroupScenario& sc) {
  return std::min(static_cast<std::size_t>(sc.kind), kKinds - 1);
}

bool is_des(const uwp::sim::GroupScenario& sc) {
  return sc.kind == uwp::sim::GroupScenarioKind::kPacketDes;
}

}  // namespace

// --- SessionRunner ----------------------------------------------------------

SessionRunner::SessionRunner(const std::vector<uwp::sim::GroupScenario>& workload,
                             std::uint64_t master_seed, LayerTotals& totals)
    : workload_(&workload), sessions_(workload.size()), totals_(&totals) {
  for (std::size_t id = 0; id < workload.size(); ++id) {
    State& s = sessions_[id];
    s.solve_rng = uwp::Rng(
        uwp::fleet::session_stream_seed(master_seed, id, uwp::fleet::kSolverStream));
    s.metrics.session_id = id;
    s.metrics.kind = workload[id].kind;
  }
}

void SessionRunner::admit(std::size_t id) {
  const Clock::time_point t0 = Clock::now();
  sessions_[id].pipe = std::make_unique<uwp::pipeline::RoundPipeline>(
      uwp::fleet::pipeline_options_for((*workload_)[id]));
  totals_->lifecycle_s += seconds_since(t0);
}

void SessionRunner::evict(std::size_t id) {
  const Clock::time_point t0 = Clock::now();
  sessions_[id].pipe.reset();
  totals_->lifecycle_s += seconds_since(t0);
}

void SessionRunner::coast(std::size_t id, double dt_s) {
  State& s = sessions_[id];
  const Clock::time_point t0 = Clock::now();
  s.pipe->coast(dt_s);
  totals_->coast_s += seconds_since(t0);
  s.metrics.note_coast();
}

void SessionRunner::round(std::size_t id, double dt_s) {
  State& s = sessions_[id];
  const Clock::time_point t0 = Clock::now();
  const uwp::pipeline::RoundOutput& out = s.pipe->run_round(s.meas, s.solve_rng, dt_s);
  const double dt = seconds_since(t0);

  LayerTotals& t = *totals_;
  const auto iterations = static_cast<std::uint64_t>(out.localization.solver_iterations);
  if (out.localized && out.localization.outliers_suspected) {
    t.search_round_s += dt;
    ++t.search_rounds;
    t.iterations_search += iterations;
    if (!out.localization.dropped_links.empty()) ++t.search_accepts;
  } else {
    // Failed rounds count as base rounds; their localization fields may be
    // stale, so only localized rounds contribute iterations.
    t.base_round_s += dt;
    ++t.base_rounds;
    if (out.localized) t.iterations_base += iterations;
  }
  const std::size_t k = kind_index((*workload_)[id]);
  ++t.kind_rounds[k];
  t.kind_round_s[k] += dt;
  s.metrics.note_round(out);
}

uwp::fleet::FleetResult SessionRunner::finish() {
  std::vector<uwp::fleet::SessionMetrics> metrics;
  metrics.reserve(sessions_.size());
  for (State& s : sessions_) metrics.push_back(std::move(s.metrics));
  return uwp::fleet::finalize_fleet_result(std::move(metrics));
}

// --- traced fleet pass ------------------------------------------------------

uwp::fleet::FleetResult run_fleet_traced(const std::vector<uwp::sim::GroupScenario>& workload,
                                         std::uint64_t master_seed, LayerTotals& totals,
                                         double& wall_s) {
  SessionRunner runner(workload, master_seed, totals);
  std::vector<MeasurementFeed> feeds;
  feeds.reserve(workload.size());
  std::size_t ticks = 0;
  for (const uwp::sim::GroupScenario& sc : workload) {
    feeds.emplace_back(sc, master_seed);
    ticks = std::max(ticks, sc.admit_tick + sc.lifetime_rounds);
  }
  std::vector<bool> evicted(workload.size(), false);

  const Clock::time_point wall0 = Clock::now();
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    for (std::size_t id = 0; id < workload.size(); ++id) {
      if (evicted[id]) continue;
      const uwp::sim::GroupScenario& sc = workload[id];
      MeasurementFeed& feed = feeds[id];
      if (!runner.active(id)) {
        if (tick < sc.admit_tick) continue;
        runner.admit(id);
        const Clock::time_point t0 = Clock::now();
        feed.open();
        totals.lifecycle_s += seconds_since(t0);
      }

      const double dt = feed.next_dt_s();
      const Clock::time_point t0 = Clock::now();
      const MeasurementFeed::Event ev = feed.next(runner.meas(id));
      (is_des(sc) ? totals.des_measure_s : totals.measure_s) += seconds_since(t0);
      if (ev == MeasurementFeed::Event::kCoast)
        runner.coast(id, dt);
      else
        runner.round(id, dt);

      if (feed.exhausted()) {
        runner.evict(id);
        const Clock::time_point t1 = Clock::now();
        feed.close();
        totals.lifecycle_s += seconds_since(t1);
        evicted[id] = true;
      }
    }
  }
  wall_s = seconds_since(wall0);
  return runner.finish();
}

// --- transport --------------------------------------------------------------

bool TimedTransport::send(std::vector<std::uint8_t> frame) {
  captured_.push_back(frame);
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_.send(std::move(frame));
  send_block_s_ += seconds_since(t0);
  return ok;
}

bool TimedTransport::recv(std::vector<std::uint8_t>& frame) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_.recv(frame);
  recv_wait_s_ += seconds_since(t0);
  return ok;
}

// --- traced feeder ----------------------------------------------------------

void feed_workload_traced(uwp::fleet::Transport& transport,
                          const std::vector<uwp::sim::GroupScenario>& workload,
                          std::uint64_t master_seed, double tick_period_s,
                          FeederTimes& times) {
  // Mirrors fleet::feed_workload frame for frame (the served schedule digest
  // must match the untraced run's), with timers around the layer calls.
  std::vector<MeasurementFeed> feeds;
  feeds.reserve(workload.size());
  for (const uwp::sim::GroupScenario& sc : workload) feeds.emplace_back(sc, master_seed);
  std::vector<bool> open(workload.size(), false);
  std::vector<std::uint32_t> rounds(workload.size(), 0);
  std::size_t live = workload.size();

  uwp::pipeline::RoundMeasurement meas;
  IngestFrame frame;
  std::vector<std::uint8_t> bytes;
  const auto send = [&] {
    const Clock::time_point t0 = Clock::now();
    uwp::fleet::encode_ingest_frame(frame, bytes);
    times.encode_s += seconds_since(t0);
    const bool ok = transport.send(std::move(bytes));
    bytes = {};
    return ok;
  };

  for (std::size_t tick = 0; live > 0; ++tick) {
    const double t_s = static_cast<double>(tick) * tick_period_s;
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
      const Clock::time_point t0 = Clock::now();
      const MeasurementFeed::Event ev = feed.next(meas);
      (is_des(workload[id]) ? times.des_measure_s : times.measure_s) += seconds_since(t0);
      if (ev == MeasurementFeed::Event::kMeasurement) {
        frame.kind = IngestKind::kMeasurement;
        const Clock::time_point t1 = Clock::now();
        uwp::fleet::encode_measurement(meas, frame.payload);
        times.encode_s += seconds_since(t1);
        ++rounds[id];
      } else {
        frame.kind = IngestKind::kCoast;
      }
      if (!send()) return;

      if (feed.exhausted()) {
        feed.close();
        frame.clear();
        frame.kind = IngestKind::kBye;
        frame.session_id = id;
        frame.round = rounds[id];
        frame.t_s = t_s;
        if (!send()) return;
        --live;
      }
    }
  }
  transport.close();
}

// --- wire side pass ---------------------------------------------------------

std::size_t wire_side_pass(const std::vector<std::vector<std::uint8_t>>& frames,
                           LayerTotals& totals, std::vector<IngestFrame>& decoded) {
  decoded.assign(frames.size(), IngestFrame{});
  uwp::pipeline::RoundMeasurement meas;
  IngestFrame reframe;
  std::vector<std::uint8_t> bytes;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    IngestFrame& f = decoded[i];
    const bool measurement = [&] {
      const Clock::time_point t0 = Clock::now();
      uwp::fleet::decode_ingest_frame(frames[i], f);
      if (f.kind == IngestKind::kMeasurement) {
        std::size_t pos = 0;
        uwp::fleet::decode_measurement(f.payload, pos, meas);
      }
      totals.decode_s += seconds_since(t0);
      return f.kind == IngestKind::kMeasurement;
    }();

    const Clock::time_point t1 = Clock::now();
    reframe.clear();
    reframe.kind = f.kind;
    reframe.session_id = f.session_id;
    reframe.round = f.round;
    reframe.t_s = f.t_s;
    reframe.dt_s = f.dt_s;
    if (measurement) uwp::fleet::encode_measurement(meas, reframe.payload);
    uwp::fleet::encode_ingest_frame(reframe, bytes);
    totals.encode_s += seconds_since(t1);

    if (bytes != frames[i]) ++mismatches;
    ++totals.wire_frames;
    totals.wire_bytes += frames[i].size();
  }
  return mismatches;
}

// --- served-run replay ------------------------------------------------------

bool replay_schedule(const std::vector<IngestFrame>& frames,
                     const std::vector<uwp::fleet::IngestRecord>& schedule,
                     SessionRunner& runner) {
  if (frames.size() != schedule.size()) return false;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const IngestFrame& f = frames[i];
    const uwp::fleet::IngestRecord& rec = schedule[i];
    if (rec.session_id != f.session_id || rec.round != f.round || rec.kind != f.kind)
      return false;
    const auto id = static_cast<std::size_t>(f.session_id);
    if (f.kind == IngestKind::kBye) {
      if (runner.active(id)) runner.evict(id);
      continue;
    }
    if (!runner.active(id)) runner.admit(id);
    if (f.kind == IngestKind::kCoast || rec.decision == uwp::fleet::IngestDecision::kShed) {
      runner.coast(id, f.dt_s);
      continue;
    }
    std::size_t pos = 0;
    uwp::fleet::decode_measurement(f.payload, pos, runner.meas(id));
    runner.round(id, f.dt_s);
  }
  return true;
}

}  // namespace ledger
