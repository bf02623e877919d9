// Causal round traces: every traced round carries one 64-bit trace id from
// the ingest loop (frame decode + shaper verdict) through the dispatch
// queue and each stage of RoundPipeline::run_round. Spans live on two
// planes, mirroring the counter/timing split:
//
//   * Structure — deterministic. Which spans fired, their trace ids,
//     parent links, and virtual times are a pure function of the spec and
//     workload: each op occurs at most once per trace, so span identity is
//     (trace_id, op) and the parent link is the parent op alone.
//     trace_structure_digest() folds exactly those fields (sorted, stream
//     index excluded) into one FNV hash that is bit-identical at any
//     shard/worker/thread count.
//   * Timing — run-varying. Wall-clock start/duration (seconds since the
//     collector epoch) and the stream a span landed on depend on
//     scheduling and are excluded from the digest.
//
// Spans are recorded producer-locally (never dropped below the per-stream
// cap, like counter pages). write_chrome_trace()
// renders the Chrome trace-event JSON that Perfetto / chrome://tracing
// load directly, including flow arrows chaining cross-thread spans of one
// trace (ingest -> queue -> round).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "telemetry/events.hpp"

namespace uwp::telemetry {

// One recorded span. `t` is the producer's virtual time at emission;
// `ts_s`/`dur_s` are wall-clock seconds relative to the collector epoch.
struct TraceSpan {
  std::uint64_t trace_id = 0;
  TraceOp op = TraceOp::kRound;
  TraceOp parent = TraceOp::kNone;
  std::uint16_t stream = 0;
  double t = 0.0;
  double ts_s = 0.0;
  double dur_s = 0.0;
};

// Trace ids pack (session id, round index) so they are meaningful in the
// viewer and deterministic across runs. Round is biased by one so a valid
// id is never 0 — 0 means "not tracing" throughout the pipeline.
inline constexpr std::uint64_t make_trace_id(std::uint64_t session_id,
                                             std::uint64_t round) {
  return (session_id << 24) | ((round + 1) & 0xFFFFFF);
}
inline constexpr std::uint64_t trace_session(std::uint64_t id) {
  return id >> 24;
}
inline constexpr std::uint64_t trace_round(std::uint64_t id) {
  return (id & 0xFFFFFF) - 1;
}

// FNV-1a over the deterministic span fields (trace_id, op, parent, virtual
// time), folded in (trace_id, op) order so the digest is invariant to how
// spans were partitioned across streams or interleaved in wall time.
std::uint64_t trace_structure_digest(std::span<const TraceSpan> spans);

// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds,
// tid = telemetry stream index), plus "s"/"t" flow events linking the
// spans of each trace that crossed streams. Perfetto-loadable as-is.
void write_chrome_trace(std::ostream& out, std::span<const TraceSpan> spans);

}  // namespace uwp::telemetry
