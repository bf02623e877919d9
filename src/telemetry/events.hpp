// Typed telemetry events for the fleet observability plane.
//
// Every instrumented site emits one of three event families, and the family
// decides which side of the metrics-vs-timing JSON contract the data lands
// on (the same split uwp_run enforces for run metrics):
//
//   * Counter — deterministic occurrence counts keyed by *virtual* time
//     (fleet tick, or a served frame's t_s). Counters are accumulated
//     producer-locally and merged per virtual-time window, so their sums
//     are bit-identical at any shard/worker/thread count. They are never
//     dropped.
//   * Stage — wall-clock span durations from scoped timers around pipeline
//     and ingest stages. Wall time is inherently run-varying; every span
//     feeds its stream's log-bucket histograms (p50/p99/p999).
//   * Sample — run-varying scalar observations (live queue depth) whose
//     values depend on scheduling, not the spec.
//   * TraceOp — causal round-trace spans. Each traced round carries one
//     trace id from ingest through the queue and every pipeline stage;
//     span *structure* (which ops fired, parent links, virtual time) is
//     deterministic, wall-clock start/duration is not.
//
// The Event struct is the flight recorder's ring slot: a 24-byte POD, so
// retaining one compiles to a handful of stores.
#pragma once

#include <cstdint>

namespace uwp::telemetry {

// Deterministic occurrence counters (the "counters" JSON section).
enum class Counter : std::uint8_t {
  kRounds = 0,         // measurement rounds executed by a pipeline
  kLocalized,          // rounds that produced a localization fix
  kCoasts,             // tracker coasts (dropouts + shed rounds)
  kEvicts,             // session evictions (lifetime end / kBye)
  kAdmits,             // session admissions (runtime built at admit tick)
  kSolverIterations,   // SMACOF iterations across all candidate solves
  kIngestAdmitted,     // shaper verdicts: measurement frames dispatched
  kIngestShed,         // shaper verdicts: measurement frames shed to coast
  kIngestDeferred,     // shaper verdicts: individual defer attempts
  kWarmStartHits,      // localize stages seeded from predicted geometry
  kWarmStartMisses,    // localize stages cold-seeded (admit/coast gap)
  kLocalizeFailures,   // rounds whose localize stage produced no fix
  kAdmitDevices,       // devices admitted (group size summed at admit)
  kEvictDevices,       // devices evicted (group size summed at evict)
  kControlWindows,     // control-plane windows observed by the policy engine
  kControlActions,     // control actions emitted (ControlLog entries)
  kCount_,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);
const char* to_string(Counter c);

// Wall-clock span timers (the "timing" JSON section).
enum class Stage : std::uint8_t {
  kQuantize = 0,  // payload quantization round trip
  kRanging,       // arrival solve + ranging diagnostics
  kLocalize,      // outlier search + localization
  kTrack,         // tracker predict/update
  kRound,         // whole run_round as seen by the session/worker
  kIngest,        // ingest-loop handling of one frame (scheduler included)
  kCount_,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount_);
const char* to_string(Stage s);

// Run-varying scalar samples (the "timing" JSON section).
enum class Sample : std::uint8_t {
  kQueueDepth = 0,   // dispatch-queue occupancy at enqueue time
  kCount_,
};
inline constexpr std::size_t kSampleCount =
    static_cast<std::size_t>(Sample::kCount_);
const char* to_string(Sample s);

// Causal trace ops. Each op occurs at most once per trace id, so a span is
// identified by (trace_id, op) and its parent by the parent op alone.
// kNone marks the root (the round span has no parent).
enum class TraceOp : std::uint8_t {
  kRound = 0,  // whole round, root span
  kIngest,     // serve mode: frame decode + shaper verdict (ingest stream)
  kQueue,      // serve mode: dispatch-queue residency (enqueue -> worker pop)
  kQuantize,   // pipeline stages, children of kRound
  kRanging,
  kLocalize,
  kTrack,
  kCount_,
  kNone = 255,
};
inline constexpr std::size_t kTraceOpCount =
    static_cast<std::size_t>(TraceOp::kCount_);
const char* to_string(TraceOp op);

enum class EventKind : std::uint8_t {
  kCounter = 0,
  kSpan = 1,
  kSample = 2,
};

// One flight-ring slot. `id` is the Counter/Stage/Sample enum value for
// `kind`; `t` is the producer's virtual time; `value` is the counter
// delta, span seconds, or sample value.
struct Event {
  EventKind kind = EventKind::kCounter;
  std::uint8_t id = 0;
  double t = 0.0;
  double value = 0.0;
};

}  // namespace uwp::telemetry
