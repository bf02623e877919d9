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
    case FlightTrigger::kRingOverflow:
      return "ring_overflow";
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
    : window_(opts.window > 0.0 ? opts.window : 1.0),
      timing_(opts.timing),
      trace_(opts.trace),
      index_(index),
      trace_max_(opts.trace_max_spans),
      epoch_(epoch),
      bus_(opts.ring_capacity) {}

void ShardStream::set_time(double t) {
  time_ = t;
  const double w = std::floor(t / window_);
  window_index_ = w > 0.0 ? static_cast<std::size_t>(w) : 0;
}

void ShardStream::count(Counter c, std::uint64_t delta) {
  if (window_index_ >= pages_.size()) pages_.resize(window_index_ + 1);
  pages_[window_index_][static_cast<std::size_t>(c)] += delta;
  // Best-effort live copy on the ring; determinism comes from the page.
  bus_.try_push(Event{EventKind::kCounter, static_cast<std::uint8_t>(c), time_,
                      double(delta)});
}

void ShardStream::sample(Sample s, double value) {
  bus_.try_push(
      Event{EventKind::kSample, static_cast<std::uint8_t>(s), time_, value});
}

void ShardStream::span(Stage s, double seconds) {
  bus_.try_push(
      Event{EventKind::kSpan, static_cast<std::uint8_t>(s), time_, seconds});
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
  // Live mirror for tailers and the flight recorder; the producer-local
  // vector above is the authoritative structural record.
  bus_.try_push(Event{EventKind::kTraceSpan, static_cast<std::uint8_t>(op),
                      time_, dur, trace_id});
}

Collector::Collector(const TelemetryOptions& opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  // Depth samples are small integers; spans are seconds. One geometry (1 ns
  // to ~3e5) covers both, which keeps merge() trivial.
}

void Collector::open(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  streams_.clear();
  streams_.reserve(n);
  epoch_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i)
    streams_.push_back(std::make_unique<ShardStream>(opts_, i, epoch_));
  flight_.assign(n, FlightRing());
  dumps_.clear();
  for (Histogram& h : spans_) h = Histogram();
  for (Histogram& h : samples_) h = Histogram();
  events_ = 0;
}

void Collector::flight_dump(std::size_t stream, FlightRing& fr,
                            FlightTrigger trig, double t,
                            std::uint64_t window) {
  const std::size_t ti = static_cast<std::size_t>(trig);
  if (fr.dumps >= opts_.flight.max_dumps) return;
  if (fr.last_dump_window[ti] == window) return;  // once per window/trigger
  fr.last_dump_window[ti] = window;
  ++fr.dumps;
  FlightDump d;
  d.stream = stream;
  d.trigger = trig;
  d.t = t;
  d.window = window;
  if (fr.full) {
    d.events.insert(d.events.end(), fr.ring.begin() + fr.next, fr.ring.end());
    d.events.insert(d.events.end(), fr.ring.begin(),
                    fr.ring.begin() + fr.next);
  } else {
    d.events.insert(d.events.end(), fr.ring.begin(), fr.ring.end());
  }
  dumps_.push_back(std::move(d));
}

void Collector::flight_observe(std::size_t stream, FlightRing& fr,
                               const Event& e) {
  // Retain the event (append until full, then overwrite the oldest slot).
  if (fr.ring.size() < opts_.flight.capacity) {
    fr.ring.push_back(e);
  } else {
    fr.ring[fr.next] = e;
    fr.next = (fr.next + 1) % fr.ring.size();
    fr.full = true;
  }
  if (e.kind != EventKind::kCounter) return;
  // Windowed trigger counts; the window key mirrors the counter plane's.
  const double w = std::floor(e.t / (opts_.window > 0.0 ? opts_.window : 1.0));
  const std::uint64_t window = w > 0.0 ? static_cast<std::uint64_t>(w) : 0;
  if (window != fr.window) {
    fr.window = window;
    fr.counts.fill(0);
  }
  const Counter c = static_cast<Counter>(e.id);
  const std::uint64_t delta = static_cast<std::uint64_t>(e.value);
  if (c == Counter::kEvicts) {
    const std::size_t ti = static_cast<std::size_t>(FlightTrigger::kEvictStorm);
    fr.counts[ti] += delta;
    if (fr.counts[ti] >= opts_.flight.evict_storm)
      flight_dump(stream, fr, FlightTrigger::kEvictStorm, e.t, window);
  } else if (c == Counter::kIngestShed) {
    const std::size_t ti = static_cast<std::size_t>(FlightTrigger::kShedBurst);
    fr.counts[ti] += delta;
    if (fr.counts[ti] >= opts_.flight.shed_burst)
      flight_dump(stream, fr, FlightTrigger::kShedBurst, e.t, window);
  } else if (c == Counter::kLocalizeFailures) {
    const std::size_t ti =
        static_cast<std::size_t>(FlightTrigger::kSolverStall);
    fr.counts[ti] += delta;
    if (fr.counts[ti] >= opts_.flight.localize_failures)
      flight_dump(stream, fr, FlightTrigger::kSolverStall, e.t, window);
  }
}

void Collector::drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
}

void Collector::drain_locked() {
  Event buf[256];
  const bool flight_on = opts_.flight.capacity > 0;
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    ShardStream& s = *streams_[si];
    FlightRing& fr = flight_[si];
    for (;;) {
      const std::size_t n = s.bus().pop(buf, std::size(buf));
      if (n == 0) break;
      events_ += n;
      for (std::size_t i = 0; i < n; ++i) {
        const Event& e = buf[i];
        switch (e.kind) {
          case EventKind::kSpan:
            if (e.id < kStageCount) spans_[e.id].record(e.value);
            break;
          case EventKind::kSample:
            if (e.id < kSampleCount) samples_[e.id].record(e.value);
            break;
          case EventKind::kCounter:
            break;  // counted deterministically via the pages
          case EventKind::kTraceSpan:
            break;  // authoritative copy lives in the producer vector
        }
        if (flight_on) flight_observe(si, fr, e);
      }
    }
    if (flight_on) {
      const std::uint64_t dropped = s.bus().dropped();
      if (dropped > fr.dropped_seen) {
        fr.dropped_seen = dropped;
        flight_dump(si, fr, FlightTrigger::kRingOverflow, s.time(),
                    fr.window == ~0ull ? 0 : fr.window);
      }
    }
  }
}

TelemetryReport Collector::report() {
  const std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
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
    rep.dropped += s->bus().dropped();
    rep.trace.insert(rep.trace.end(), s->trace_spans().begin(),
                     s->trace_spans().end());
    rep.trace_dropped += s->trace_dropped();
  }
  for (const Snapshot& snap : rep.snapshots)
    for (std::size_t c = 0; c < kCounterCount; ++c)
      rep.totals[c] += snap.counts[c];
  rep.spans = spans_;
  rep.samples = samples_;
  rep.events = events_;
  rep.flight = dumps_;
  return rep;
}

}  // namespace uwp::telemetry
