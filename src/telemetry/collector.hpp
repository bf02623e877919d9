// ShardStream + Collector: the two halves of the fleet telemetry plane.
//
// One ShardStream per producer thread (a fleet shard, a server worker, or
// the ingest loop). It carries two planes with different guarantees:
//
//   * Counter pages — deterministic. count() accumulates into a producer-
//     local dense page indexed by (virtual-time window, Counter). Pages are
//     never dropped and never contended; the collector merges them in
//     stream order, and because every counter event carries virtual time
//     (fleet tick / frame t_s), the per-window sums are invariant to how
//     sessions are partitioned across shards, workers, or threads. This is
//     the section uwp_run emits as "counters" and CI diffs bit-for-bit.
//   * The Bus ring — run-varying. Every event (counters included, as a live
//     stream) is also pushed onto the shard's SPSC Bus; span timers and
//     scalar samples exist only there. Ring overflow drops the event and
//     bumps the drop counter — the hot path never blocks.
//
// The Collector owns the streams, drains the rings into log-bucket
// histograms (concurrently with producers if desired — Bus is SPSC and the
// collector is the one consumer), and renders the final TelemetryReport:
// deterministic window Snapshots + totals, and run-varying span/sample
// histograms with drop accounting.
//
// Threading: open() before producers start; each stream is written by
// exactly one thread; report() only after producers have joined (it reads
// the counter pages, which are intentionally unsynchronized).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/bus.hpp"
#include "telemetry/events.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/trace.hpp"

namespace uwp::telemetry {

// Flight recorder knobs. The recorder keeps a bounded collector-side ring
// of the most recently drained events per stream and snapshots it when an
// anomaly trigger fires, so tail incidents are debuggable after the fact.
// Thresholds are counter deltas per snapshot window; triggers ride the
// lossy ring, so detection is best-effort by design (the deterministic
// counter plane is unaffected either way).
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
  // Per-stream Bus capacity (rounded up to a power of two).
  std::size_t ring_capacity = 1 << 15;
  // Causal round traces: producer-local span records + kTraceSpan mirror
  // events on the Bus. Off by default — tracing reads the clock per span.
  bool trace = false;
  // Per-stream span cap (safety valve; overflow counts as trace_dropped).
  std::size_t trace_max_spans = 1 << 20;
  FlightOptions flight;
};

enum class FlightTrigger : std::uint8_t {
  kEvictStorm = 0,  // session evictions clustered in one window
  kShedBurst,       // shaper shed a burst of measurement frames
  kSolverStall,     // localize stages failing to produce fixes
  kRingOverflow,    // the stream's Bus dropped events since the last drain
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
  // Run-varying plane.
  std::array<Histogram, kStageCount> spans;
  std::array<Histogram, kSampleCount> samples;
  std::uint64_t events = 0;   // events drained from the rings
  std::uint64_t dropped = 0;  // ring-overflow drops across all streams
  // Trace plane: producer-local spans concatenated in stream order. The
  // span *structure* (trace_structure_digest) is deterministic; ts/dur and
  // stream placement are not.
  std::vector<TraceSpan> trace;
  std::uint64_t trace_dropped = 0;  // spans lost to the per-stream cap
  // Flight-recorder dumps captured during drains, in capture order.
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
  double time() const { return time_; }

  void count(Counter c, std::uint64_t delta = 1);
  void sample(Sample s, double value);
  void span(Stage s, double seconds);

  bool timing_enabled() const { return timing_; }
  Bus& bus() { return bus_; }

  // Trace plane. trace_now() is the span-start timestamp (seconds since
  // the collector epoch, shared by every stream so cross-stream spans
  // align); it reads the clock only when tracing is on. trace_span()
  // records {id, op, parent, virtual time, ts0 .. now} producer-locally
  // and mirrors a kTraceSpan event onto the Bus.
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
  Bus bus_;
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
  // the producer threads start. Serialized against drain()/report() so a
  // tailer thread can keep draining across a re-open.
  void open(std::size_t n);
  std::size_t streams() const { return streams_.size(); }
  ShardStream& stream(std::size_t i) { return *streams_[i]; }

  // Drain every stream's Bus into the timing accumulators and the flight
  // rings. Safe to call while producers are live (the collector is the
  // single ring consumer) and from a thread other than the one calling
  // open()/report().
  void drain();

  // Final report: drains, then merges counter pages in stream order.
  // Producers must have finished.
  TelemetryReport report();

 private:
  // Per-stream flight-recorder state, collector-side only (touched under
  // mu_ during drains — producers never see it).
  struct FlightRing {
    std::vector<Event> ring;  // circular, `next` is the oldest slot
    std::size_t next = 0;
    bool full = false;
    std::uint64_t window = ~0ull;  // window the counts below belong to
    std::array<std::uint64_t, kFlightTriggerCount> counts{};
    std::array<std::uint64_t, kFlightTriggerCount> last_dump_window;
    std::uint64_t dropped_seen = 0;
    std::size_t dumps = 0;
    FlightRing() { last_dump_window.fill(~0ull); }
  };

  void drain_locked();
  void flight_observe(std::size_t stream, FlightRing& fr, const Event& e);
  void flight_dump(std::size_t stream, FlightRing& fr, FlightTrigger trig,
                   double t, std::uint64_t window);

  TelemetryOptions opts_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // open()/drain()/report() vs a concurrent tailer
  std::vector<std::unique_ptr<ShardStream>> streams_;
  std::vector<FlightRing> flight_;
  std::vector<FlightDump> dumps_;
  std::array<Histogram, kStageCount> spans_;
  std::array<Histogram, kSampleCount> samples_;
  std::uint64_t events_ = 0;
};

}  // namespace uwp::telemetry
