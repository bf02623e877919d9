#include "telemetry/collector.hpp"

#include <algorithm>
#include <cmath>

namespace uwp::telemetry {

const char* to_string(FlightTrigger t) {
  switch (t) {
    case FlightTrigger::kEvictStorm:
      return "evict_storm";
    case FlightTrigger::kShedBurst:
      return "shed_burst";
    case FlightTrigger::kSolverStall:
      return "solver_stall";
    case FlightTrigger::kCount_:
      break;
  }
  return "unknown";
}

bool TelemetryReport::counters_equal(const TelemetryReport& o) const {
  if (totals != o.totals) return false;
  if (snapshots.size() != o.snapshots.size()) return false;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (snapshots[i].window != o.snapshots[i].window) return false;
    if (snapshots[i].counts != o.snapshots[i].counts) return false;
  }
  return true;
}

ShardStream::ShardStream(const TelemetryOptions& opts, std::size_t index,
                         Clock::time_point epoch)
    : flight_(opts.flight),
      window_(opts.window > 0.0 ? opts.window : 1.0),
      timing_(opts.timing),
      trace_(opts.trace),
      index_(index),
      trace_max_(opts.trace_max_spans),
      epoch_(epoch) {
  last_dump_window_.fill(~0ull);
}

void ShardStream::set_time(double t) {
  time_ = t;
  const double w = std::floor(t / window_);
  window_index_ = w > 0.0 ? static_cast<std::size_t>(w) : 0;
}

void ShardStream::count(Counter c, std::uint64_t delta) {
  if (window_index_ >= pages_.size()) pages_.resize(window_index_ + 1);
  pages_[window_index_][static_cast<std::size_t>(c)] += delta;
  if (flight_.capacity == 0) return;
  const Event e{EventKind::kCounter, static_cast<std::uint8_t>(c), time_, double(delta)};
  flight_observe(e);
  // Windowed trigger counts, keyed by the counter page's window.
  if (window_index_ != trigger_window_) {
    trigger_window_ = window_index_;
    trigger_counts_.fill(0);
  }
  const auto trip = [&](FlightTrigger trig, std::uint64_t threshold) {
    std::uint64_t& n = trigger_counts_[static_cast<std::size_t>(trig)];
    n += delta;
    if (n >= threshold) flight_dump(trig);
  };
  if (c == Counter::kEvicts) {
    trip(FlightTrigger::kEvictStorm, flight_.evict_storm);
  } else if (c == Counter::kIngestShed) {
    trip(FlightTrigger::kShedBurst, flight_.shed_burst);
  } else if (c == Counter::kLocalizeFailures) {
    trip(FlightTrigger::kSolverStall, flight_.localize_failures);
  }
}

void ShardStream::sample(Sample s, double value) {
  samples_[static_cast<std::size_t>(s)].record(value);
  if (flight_.capacity != 0)
    flight_observe(Event{EventKind::kSample, static_cast<std::uint8_t>(s), time_, value});
}

void ShardStream::span(Stage s, double seconds) {
  spans_[static_cast<std::size_t>(s)].record(seconds);
  if (flight_.capacity != 0)
    flight_observe(Event{EventKind::kSpan, static_cast<std::uint8_t>(s), time_, seconds});
}

void ShardStream::flight_observe(const Event& e) {
  // Append until full, then overwrite the oldest slot.
  if (ring_.size() < flight_.capacity) {
    ring_.push_back(e);
    return;
  }
  ring_[ring_next_] = e;
  if (++ring_next_ == ring_.size()) ring_next_ = 0;
}

void ShardStream::flight_dump(FlightTrigger trig) {
  const std::size_t ti = static_cast<std::size_t>(trig);
  if (dumps_.size() >= flight_.max_dumps) return;
  if (last_dump_window_[ti] == window_index_) return;  // once per window
  last_dump_window_[ti] = window_index_;
  FlightDump d;
  d.stream = index_;
  d.trigger = trig;
  d.t = time_;
  d.window = window_index_;
  d.events.reserve(ring_.size());
  d.events.insert(d.events.end(), ring_.begin() + ring_next_, ring_.end());
  d.events.insert(d.events.end(), ring_.begin(), ring_.begin() + ring_next_);
  dumps_.push_back(std::move(d));
}

double ShardStream::trace_now() const {
  if (!trace_) return 0.0;
  const std::chrono::duration<double> dt = Clock::now() - epoch_;
  return dt.count();
}

void ShardStream::trace_span(std::uint64_t trace_id, TraceOp op,
                             TraceOp parent, double ts0_s) {
  if (!trace_ || trace_id == 0) return;
  if (trace_spans_.size() >= trace_max_) {
    ++trace_dropped_;
    return;
  }
  const double dur = trace_now() - ts0_s;
  trace_spans_.push_back(TraceSpan{trace_id, op, parent,
                                   static_cast<std::uint16_t>(index_), time_,
                                   ts0_s, dur});
}

Collector::Collector(const TelemetryOptions& opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {}

void Collector::open(std::size_t n) {
  streams_.clear();
  streams_.reserve(n);
  epoch_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i)
    streams_.push_back(std::make_unique<ShardStream>(opts_, i, epoch_));
}

TelemetryReport Collector::report() const {
  TelemetryReport rep;
  rep.options = opts_;
  rep.streams = streams_.size();
  std::size_t windows = 0;
  for (const std::unique_ptr<ShardStream>& s : streams_)
    windows = std::max(windows, s->pages().size());
  rep.snapshots.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) rep.snapshots[w].window = w;
  for (const std::unique_ptr<ShardStream>& s : streams_) {
    const std::vector<ShardStream::CounterPage>& pages = s->pages();
    for (std::size_t w = 0; w < pages.size(); ++w)
      for (std::size_t c = 0; c < kCounterCount; ++c)
        rep.snapshots[w].counts[c] += pages[w][c];
    for (std::size_t i = 0; i < kStageCount; ++i) rep.spans[i].merge(s->spans()[i]);
    for (std::size_t i = 0; i < kSampleCount; ++i) rep.samples[i].merge(s->samples()[i]);
    rep.trace.insert(rep.trace.end(), s->trace_spans().begin(),
                     s->trace_spans().end());
    rep.trace_dropped += s->trace_dropped();
    rep.flight.insert(rep.flight.end(), s->flight_dumps().begin(),
                      s->flight_dumps().end());
  }
  for (const Snapshot& snap : rep.snapshots)
    for (std::size_t c = 0; c < kCounterCount; ++c)
      rep.totals[c] += snap.counts[c];
  return rep;
}

}  // namespace uwp::telemetry
