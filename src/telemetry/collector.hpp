// ShardStream + Collector: the two halves of the fleet telemetry plane.
//
// One ShardStream per producer thread (a fleet shard, a server worker, or
// the ingest loop). Everything a stream records stays producer-local, so
// the hot path never synchronizes and nothing is ever dropped. It carries
// three kinds of state with different guarantees:
//
//   * Counter pages — deterministic. count() accumulates into a dense page
//     indexed by (virtual-time window, Counter). Because every counter
//     event carries virtual time (fleet tick / frame t_s), the per-window
//     sums merged in stream order are invariant to how sessions are
//     partitioned across shards, workers, or threads. This is the section
//     uwp_run emits as "counters" and CI diffs bit-for-bit.
//   * Timing histograms — run-varying. span() and sample() record into the
//     stream's own log-bucket histograms; every span of the run is counted.
//   * Flight ring — the stream's most recent events (counters, spans,
//     samples), dumped when an anomaly trigger fires on a counter event.
//
// The Collector owns the streams and renders the final TelemetryReport by
// merging them in stream order: counter pages into deterministic window
// Snapshots + totals, histograms via Histogram::merge, trace spans and
// flight dumps concatenated.
//
// Threading: open() before producers start; each stream is written by
// exactly one thread; report() only after producers have joined (it reads
// every stream's producer-local state, which is intentionally
// unsynchronized).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/trace.hpp"

namespace uwp::telemetry {

// Flight recorder knobs. Each stream keeps a bounded ring of its most
// recent events and snapshots it when an anomaly trigger fires, so tail
// incidents are debuggable after the fact. Thresholds are counter deltas
// per snapshot window; a trigger fires as a pure function of the stream's
// counter events.
struct FlightOptions {
  std::size_t capacity = 256;  // events retained per stream; 0 disables
  std::size_t max_dumps = 4;   // dump budget per stream
  std::uint64_t evict_storm = 8;        // kEvicts per window
  std::uint64_t shed_burst = 16;        // kIngestShed per window
  std::uint64_t localize_failures = 8;  // kLocalizeFailures per window
};

struct TelemetryOptions {
  bool enabled = false;
  // Span timers read steady_clock twice per stage; disabling `timing` keeps
  // the deterministic counter plane while skipping every clock read.
  bool timing = true;
  // Snapshot window in virtual-time units (ticks for the fleet driver,
  // seconds for the ingest server — the factory scales by tick_period_s).
  double window = 16.0;
  // Causal round traces: producer-local span records. Off by default —
  // tracing reads the clock per span.
  bool trace = false;
  // Per-stream span cap (safety valve; overflow counts as trace_dropped).
  std::size_t trace_max_spans = 1 << 20;
  FlightOptions flight;
};

enum class FlightTrigger : std::uint8_t {
  kEvictStorm = 0,  // session evictions clustered in one window
  kShedBurst,       // shaper shed a burst of measurement frames
  kSolverStall,     // localize stages failing to produce fixes
  kCount_,
};
inline constexpr std::size_t kFlightTriggerCount =
    static_cast<std::size_t>(FlightTrigger::kCount_);
const char* to_string(FlightTrigger t);

// One flight-recorder dump: the retained event ring of `stream` at the
// moment `trigger` fired, oldest event first.
struct FlightDump {
  std::size_t stream = 0;
  FlightTrigger trigger = FlightTrigger::kEvictStorm;
  double t = 0.0;            // virtual time of the triggering event
  std::uint64_t window = 0;  // snapshot window of the triggering event
  std::vector<Event> events;
};

// Per-window deterministic counter sums, merged across streams.
struct Snapshot {
  std::uint64_t window = 0;  // window index: floor(t / options.window)
  std::array<std::uint64_t, kCounterCount> counts{};
};

struct TelemetryReport {
  TelemetryOptions options;
  std::size_t streams = 0;
  // Deterministic plane: one Snapshot per window, dense from window 0.
  std::vector<Snapshot> snapshots;
  std::array<std::uint64_t, kCounterCount> totals{};
  // Run-varying plane: every stream's histograms, merged.
  std::array<Histogram, kStageCount> spans;
  std::array<Histogram, kSampleCount> samples;
  // Trace plane: producer-local spans concatenated in stream order. The
  // span *structure* (trace_structure_digest) is deterministic; ts/dur and
  // stream placement are not.
  std::vector<TraceSpan> trace;
  std::uint64_t trace_dropped = 0;  // spans lost to the per-stream cap
  // Flight-recorder dumps in stream order, each stream's in capture order.
  std::vector<FlightDump> flight;

  // Bit-equality of the deterministic plane (the ctest pin).
  bool counters_equal(const TelemetryReport& o) const;
};

class ShardStream {
 public:
  using Clock = std::chrono::steady_clock;

  ShardStream(const TelemetryOptions& opts, std::size_t index,
              Clock::time_point epoch);

  // Set the producer's current virtual time; subsequent count() calls land
  // in floor(t / window). Negative times clamp to window 0.
  void set_time(double t);

  void count(Counter c, std::uint64_t delta = 1);
  void sample(Sample s, double value);
  void span(Stage s, double seconds);

  bool timing_enabled() const { return timing_; }

  // This stream's timing histograms and flight dumps (same read rule as
  // pages(): other threads only after the producer has joined).
  const std::array<Histogram, kStageCount>& spans() const { return spans_; }
  const std::array<Histogram, kSampleCount>& samples() const { return samples_; }
  const std::vector<FlightDump>& flight_dumps() const { return dumps_; }

  // Trace plane. trace_now() is the span-start timestamp (seconds since
  // the collector epoch, shared by every stream so cross-stream spans
  // align); it reads the clock only when tracing is on. trace_span()
  // records {id, op, parent, virtual time, ts0 .. now} producer-locally.
  bool trace_enabled() const { return trace_; }
  double trace_now() const;
  void trace_span(std::uint64_t trace_id, TraceOp op, TraceOp parent,
                  double ts0_s);
  const std::vector<TraceSpan>& trace_spans() const { return trace_spans_; }
  std::uint64_t trace_dropped() const { return trace_dropped_; }

  // The deterministic pages, one per window from window 0. The producing
  // thread may read them at any time; any other thread only after that
  // producer has joined.
  using CounterPage = std::array<std::uint64_t, kCounterCount>;
  const std::vector<CounterPage>& pages() const { return pages_; }

 private:
  void flight_observe(const Event& e);
  void flight_dump(FlightTrigger trig);

  FlightOptions flight_;
  double window_ = 16.0;
  bool timing_ = true;
  bool trace_ = false;
  std::size_t index_ = 0;
  std::size_t trace_max_ = 0;
  Clock::time_point epoch_;
  double time_ = 0.0;
  std::size_t window_index_ = 0;
  std::vector<CounterPage> pages_;
  std::vector<TraceSpan> trace_spans_;
  std::uint64_t trace_dropped_ = 0;
  std::array<Histogram, kStageCount> spans_;
  std::array<Histogram, kSampleCount> samples_;
  // Flight ring: circular once full, `ring_next_` is the oldest slot.
  std::vector<Event> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t trigger_window_ = ~0ull;  // window trigger_counts_ belong to
  std::array<std::uint64_t, kFlightTriggerCount> trigger_counts_{};
  std::array<std::uint64_t, kFlightTriggerCount> last_dump_window_;
  std::vector<FlightDump> dumps_;
};

// Scoped wall-clock span timer. Cost when the stream is null or timing is
// disabled: one branch, no clock read.
class SpanTimer {
 public:
  SpanTimer(ShardStream* s, Stage stage)
      : s_(s != nullptr && s->timing_enabled() ? s : nullptr), stage_(stage) {
    if (s_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { stop(); }

  // Emits the span and returns its duration in seconds (0.0 when timing is
  // off), so callers can accumulate stage times into an aggregate span.
  double stop() {
    if (s_ == nullptr) return 0.0;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0_;
    s_->span(stage_, dt.count());
    s_ = nullptr;
    return dt.count();
  }

 private:
  ShardStream* s_;
  Stage stage_;
  std::chrono::steady_clock::time_point t0_;
};

class Collector {
 public:
  explicit Collector(const TelemetryOptions& opts);

  const TelemetryOptions& options() const { return opts_; }
  bool enabled() const { return opts_.enabled; }

  // Allocate `n` producer streams (invalidates previous ones). Call before
  // the producer threads start.
  void open(std::size_t n);
  std::size_t streams() const { return streams_.size(); }
  ShardStream& stream(std::size_t i) { return *streams_[i]; }

  // Final report: merges every stream's pages, histograms, trace spans and
  // flight dumps in stream order. Producers must have finished.
  TelemetryReport report() const;

 private:
  TelemetryOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<ShardStream>> streams_;
};

}  // namespace uwp::telemetry
