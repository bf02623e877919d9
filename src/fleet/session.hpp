// One serving session: the full lifecycle (admit -> rounds -> coast ->
// evict) of a single positioning group inside the fleet, backed by its own
// pipeline::RoundPipeline (built at admit, dropped at evict) and one of the
// pipeline front-ends (the calibrated fast closed form for most groups, a
// full packet-level des::DesSessionSource for the DES slice).
//
// Determinism contract (the fleet analog of sim::SweepRunner's): a session
// consumes exactly two private rng streams derived from
// (master_seed, session_id) —
//   * the measurement stream (motion-independent sensor/arrival/vote noise
//     and dropout draws), and
//   * the solver stream (localizer restarts),
// so its results never depend on which shard ran it or on the shard count.
// The split is what makes record/replay exact: a replayed session skips the
// measurement stream entirely (measurements come from the trace as bytes)
// and re-derives only the solver stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "des/mobility.hpp"
#include "fleet/wire.hpp"
#include "pipeline/closed_form.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/fleet_workload.hpp"
#include "util/stats.hpp"

namespace uwp::telemetry {
class ShardStream;
}

namespace uwp::fleet {

class SessionRecorder;  // recorder.hpp

// --- deterministic stream derivation ---------------------------------------

inline constexpr std::uint64_t kMeasurementStream = 0x6d656173u;  // "meas"
inline constexpr std::uint64_t kSolverStream = 0x736f6c76u;       // "solv"

// Seed of one session stream: splitmix64 over (master_seed xor stream tag,
// session_id), the same finalizer SweepRunner uses for trial streams.
std::uint64_t session_stream_seed(std::uint64_t master_seed, std::uint64_t session_id,
                                  std::uint64_t stream);

// --- metrics ----------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over the 8 bytes of `v`, little-endian. The fleet's bit-identity
// checks hash every round output through this.
void fnv_mix(std::uint64_t& h, std::uint64_t v);
void fnv_mix(std::uint64_t& h, double v);

// Per-session outcome record. `digest` folds every event (round or coast)
// in order — localized flags, error vectors, stress — so two runs agree on
// a session iff their digests (and sample vectors) agree bit for bit.
struct SessionMetrics {
  std::uint64_t session_id = 0;
  sim::GroupScenarioKind kind = sim::GroupScenarioKind::kStatic;
  std::size_t rounds = 0;
  std::size_t localized = 0;
  std::size_t coasts = 0;
  // Finite per-device horizontal errors in round order.
  std::vector<double> errors;
  double error_sum = 0.0;
  std::uint64_t digest = kFnvOffsetBasis;

  void note_coast();
  void note_round(const pipeline::RoundOutput& out);
  double mean_error() const {
    return errors.empty() ? 0.0 : error_sum / static_cast<double>(errors.size());
  }
  bool bit_equal(const SessionMetrics& o) const;
};

// Fleet-level aggregate, sessions in id order (so it is bit-identical for
// any shard count by construction). Latency/wall fields are filled by the
// service and are the only run-dependent parts.
struct FleetResult {
  std::vector<SessionMetrics> sessions;
  std::size_t rounds = 0;
  std::size_t localized = 0;
  std::size_t coasts = 0;
  std::vector<double> errors;  // flattened in session order
  Summary summary;
  std::uint64_t fleet_digest = kFnvOffsetBasis;  // FNV over session digests
  // Wall-clock measurements (not part of any determinism contract).
  std::vector<double> round_latency_s;
  double wall_seconds = 0.0;
  std::size_t shards_used = 0;
};

// Fold per-session metrics into the aggregate (deterministic part only).
FleetResult finalize_fleet_result(std::vector<SessionMetrics> sessions);

// A session's serving runtime: its pipeline plus the measurement buffer it
// churns. Built at admit and dropped at evict, so an evicted session holds
// no solver memory.
struct SessionRuntime {
  pipeline::RoundPipeline pipe;
  pipeline::RoundMeasurement meas;

  explicit SessionRuntime(const pipeline::PipelineOptions& opts) : pipe(opts) {}
};

// The pipeline configuration a scenario's sessions run with (shared by the
// live service and the trace replayer, which must agree exactly).
pipeline::PipelineOptions pipeline_options_for(const sim::GroupScenario& sc);

// The workload contract FleetService and Server serve under:
// workload[i].session_id == i and lifetime_rounds >= 1. A zero-lifetime
// session would either run one round anyway (eviction is checked after the
// event) or never be admitted, depending on unrelated sessions' timelines.
// Throws std::invalid_argument, prefixed with `owner`, otherwise.
void check_workload(const std::vector<sim::GroupScenario>& workload, const char* owner);

// --- measurement feed -------------------------------------------------------

// The client side of a session: the deterministic event stream its devices
// produce — dropout draws, closed-form motion, front-end sampling — with no
// serving-side state attached. The live FleetService couples producer and
// consumer in-process (Session owns a feed and a SessionConsumer); the
// ingest server's workload feeder runs the same feed on the producer side
// of a Transport. Both paths consume the identical measurement rng stream,
// so a served fleet is bit-identical to the synchronous one on the same
// (workload, master_seed).
class MeasurementFeed {
 public:
  MeasurementFeed(const sim::GroupScenario& scenario, std::uint64_t master_seed);

  // Build the front-end (admit time) / drop it (evict time). The rng stream
  // is seeded at construction; open/close only manage front-end memory so a
  // large fleet holds models only for its live sessions.
  void open();
  void close();

  enum class Event : std::uint8_t { kCoast, kMeasurement };

  // dt the pipeline expects for the *next* event (0.0 for the first).
  double next_dt_s() const {
    return events_done_ == 0 ? 0.0 : sc_->round_period_s;
  }
  // Produce the session's next event. For kMeasurement `out` holds the
  // sampled round; for a jammed dropout round it is untouched. Requires
  // open() and !exhausted().
  Event next(pipeline::RoundMeasurement& out);

  std::size_t events_done() const { return events_done_; }
  bool exhausted() const { return events_done_ >= sc_->lifetime_rounds; }
  const sim::GroupScenario& scenario() const { return *sc_; }

 private:
  const sim::GroupScenario* sc_;
  std::size_t events_done_ = 0;
  uwp::Rng rng_;  // the session's private measurement stream
  std::unique_ptr<pipeline::MeasurementModel> model_;
  pipeline::ClosedFormModel* closed_form_ = nullptr;  // owned via model_
  std::shared_ptr<const des::MobilityModel> mobility_;  // closed-form motion
};

// --- session consumer -------------------------------------------------------

enum class SessionState : std::uint8_t { kPending, kActive, kEvicted };

// The serving side of a session, the counterpart of MeasurementFeed: the
// runtime, the solver stream and the metrics behind one
// pending -> active -> evicted state machine. Every serving loop runs rounds
// through it — FleetService's Session (feed and consumer in one process),
// the ingest Server's workers (frames off a Transport) and the trace
// Replayer (recorded bytes) — so the admit/coast/round/evict accounting,
// the recorder hooks and the device-count guard on decoded bytes exist
// once.
class SessionConsumer {
 public:
  SessionConsumer(const sim::GroupScenario& scenario, std::uint64_t master_seed);

  SessionState state() const { return state_; }
  const SessionMetrics& metrics() const { return metrics_; }
  SessionMetrics take_metrics() { return std::move(metrics_); }

  // Build the session's runtime and go active. `recorder`, when set,
  // captures the session's trace; `telemetry`, when set, receives the
  // admit/coast/evict counters and is bound into the pipeline for stage
  // spans (the caller keeps its virtual time current). Both stay bound
  // until evict(). Requires kPending.
  void admit(SessionRecorder* recorder, telemetry::ShardStream* telemetry);

  // Coast the tracker through a round without a measurement (device-side
  // dropout or server-side shed). Requires kActive.
  void coast(double dt_s);

  // The buffer the next round() runs on: a front-end fills it in
  // place, or decode() fills it from wire bytes. Requires kActive.
  pipeline::RoundMeasurement& measurement() { return rt_->meas; }
  // Decode one wire-encoded measurement into measurement(). A record is only
  // internally consistent, and the pipeline indexes by the scenario's device
  // count, so a record for another group size throws WireError here rather
  // than being read out of bounds downstream.
  void decode(std::span<const std::uint8_t> bytes);

  // Run round `index` on measurement() and return its result record.
  // `latencies`, when set, receives the wall-clock of the run_round call.
  const RoundRecord& round(std::uint32_t index, double dt_s,
                           std::vector<double>* latencies);

  // End the session from any state; an active one drops its runtime.
  void evict();

 private:
  const sim::GroupScenario* sc_;
  SessionState state_ = SessionState::kPending;
  uwp::Rng solve_rng_;
  SessionMetrics metrics_;
  RoundRecord record_;
  std::unique_ptr<SessionRuntime> rt_;
  SessionRecorder* recorder_ = nullptr;
  telemetry::ShardStream* telemetry_ = nullptr;
};

// --- session ----------------------------------------------------------------

// A FleetService session: its MeasurementFeed coupled in-process to its
// SessionConsumer.
class Session {
 public:
  Session(const sim::GroupScenario& scenario, std::uint64_t master_seed);

  SessionMetrics take_metrics() { return consumer_.take_metrics(); }

  // Advance one scheduler tick: admit at the scenario's admit tick, then
  // run one round — or coast through a jammed one — per tick until the
  // scheduled lifetime is exhausted, then evict. `latencies`, `recorder` and
  // `telemetry` are as for SessionConsumer (the caller has already set the
  // stream's virtual time to this tick).
  void tick(std::size_t tick, SessionRecorder* recorder, std::vector<double>* latencies,
            telemetry::ShardStream* telemetry = nullptr);

 private:
  MeasurementFeed feed_;
  SessionConsumer consumer_;
};

}  // namespace uwp::fleet
