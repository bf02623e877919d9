// Record/replay for fleet runs, in the spirit of game-traffic capture
// systems: a live run is captured once — every session's measurement bytes,
// coasts, and per-round results, in session order — and regression tests
// replay the trace through the real service stack, expecting bit-identical
// per-session metrics. Because each session's events are recorded on the one
// shard that owns it, recording needs no locks and the trace is independent
// of the shard count that produced it.
//
// Trace file layout (little-endian, fleet wire primitives):
//   u32 magic "UWFT" | u16 version
//   u64 master_seed | u64 workload_digest
//   WorkloadParams (u64 x7, u8 include_des, u8 force_kind: 0xFF = mixed)
//   u64 session_count
//   per session (id order):
//     u64 session_id | u64 event_count
//     events in order:
//       u8 kCoast       | f64 dt
//       u8 kMeasurement | f64 dt | u32 round | u64 len | encode_measurement bytes
//       u8 kRoundResult |                      u64 len | encode_round_record bytes
//
// The header carries the workload *parameters*, not the scenarios: the
// workload generator is deterministic in (params, session_id), so the
// replayer regenerates identical pipeline configurations and re-derives
// each session's solver stream from master_seed — only measurements ride in
// the trace. Replay therefore exercises the real decode -> pipeline path.
// The workload_digest (fleet::workload_digest over the generated scenarios)
// pins that regeneration: a trace recorded under a different workload
// generator fails replay with a clear version-skew error instead of
// silently replaying different sessions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/session.hpp"
#include "sim/fleet_workload.hpp"

namespace uwp::telemetry {
class Collector;
}

namespace uwp::fleet {

inline constexpr std::uint32_t kTraceMagic = 0x54465755u;  // "UWFT" little-endian
// v2: header gained workload_digest + WorkloadParams::force_kind.
inline constexpr std::uint16_t kTraceVersion = 2;

enum class FrameKind : std::uint8_t {
  kCoast = 1,
  kMeasurement = 2,
  kRoundResult = 3,
};

struct TraceEvent {
  FrameKind kind = FrameKind::kCoast;
  double dt_s = 0.0;       // kCoast / kMeasurement
  std::uint32_t round = 0;  // kMeasurement
  std::vector<std::uint8_t> payload;  // wire-encoded record, when any
};

struct SessionTrace {
  std::uint64_t session_id = 0;
  std::vector<TraceEvent> events;
};

struct FleetTrace {
  std::uint64_t master_seed = 0;
  // fleet::workload_digest of the workload generated from `workload` at
  // record time; Replayer refuses a trace whose regeneration disagrees.
  std::uint64_t workload_digest = 0;
  sim::WorkloadParams workload;
  std::vector<SessionTrace> sessions;  // indexed by session id
};

// Captures one live FleetService run. Construct for the workload parameters
// the service's workload was generated from, pass to FleetService::run.
// The hook methods are called by sessions from shard threads; each session's
// slot is touched by exactly one shard, so they are lock-free by design.
class SessionRecorder {
 public:
  // The params-only form regenerates the workload once to pin its digest in
  // the header; callers that already hold the generated workload (the usual
  // case — the service was built from it) should pass it to skip that.
  SessionRecorder(std::uint64_t master_seed, const sim::WorkloadParams& params);
  SessionRecorder(std::uint64_t master_seed, const sim::WorkloadParams& params,
                  const std::vector<sim::GroupScenario>& workload);

  // Session hooks (see fleet::SessionConsumer). Eviction is implicit in the
  // format, so it has no hook.
  void on_admit(const sim::GroupScenario& scenario);
  void on_measurement(std::uint64_t session_id, std::uint32_t round, double dt_s,
                      const pipeline::RoundMeasurement& m);
  void on_round_result(std::uint64_t session_id, const RoundRecord& r);
  void on_coast(std::uint64_t session_id, double dt_s);

  const FleetTrace& trace() const { return trace_; }

  void write(std::ostream& out) const;
  void save(const std::string& path) const;

 private:
  SessionTrace& slot(std::uint64_t session_id);

  FleetTrace trace_;
};

// Parse a trace; throws WireError (or std::runtime_error for I/O failures)
// on malformed input.
FleetTrace read_fleet_trace(std::istream& in);
FleetTrace load_fleet_trace(const std::string& path);

// Serialize without a recorder (used by tests to re-save a loaded trace).
void write_fleet_trace(std::ostream& out, const FleetTrace& trace);

// Replays a captured fleet run through the real service stack: regenerates
// the workload from the trace header and serves each session, in id order,
// through a SessionConsumer leasing from one ShardArena — the same
// admit/coast/round/evict path the live services use. Every measurement is
// decoded from its recorded bytes and run with the session's re-derived
// solver stream. Produces the same FleetResult a live run produces, bit for
// bit.
class Replayer {
 public:
  explicit Replayer(FleetTrace trace);

  struct ReplayResult {
    FleetResult fleet;
    // Rounds whose recomputed result record differed bit-for-bit from the
    // recorded one; always 0 unless the trace or the code base changed.
    std::size_t result_mismatches = 0;
  };
  // `telemetry`, when given and enabled, is opened with one stream that the
  // arena and the consumers count into, as a live tick-scheduled fleet
  // run's shards do — each event stamped at virtual time admit_tick + event
  // index, so with the live run's window length the rebuilt counter plane
  // matches the live one page for page.
  ReplayResult replay(telemetry::Collector* telemetry = nullptr) const;

 private:
  FleetTrace trace_;
  std::vector<sim::GroupScenario> workload_;
};

}  // namespace uwp::fleet
