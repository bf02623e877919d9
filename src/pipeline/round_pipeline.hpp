// The leader-side round pipeline — the single owner of the chain
//   §2.4 payload quantization -> proto::RangingSolver -> core::Localizer ->
//   (optional) core::GroupTracker -> per-device error metrics
// for every front-end. sim::ScenarioRunner and des::DesScenario are thin
// adapters over this class; new scenario front-ends plug in a
// MeasurementModel and inherit the whole chain. All solver scratch lives in
// workspaces owned here, so a steady-state round performs near-zero heap
// allocations.
#pragma once

#include <vector>

#include "core/localizer.hpp"
#include "core/tracker.hpp"
#include "pipeline/measurement.hpp"
#include "proto/payload_codec.hpp"
#include "proto/ranging_solver.hpp"

namespace uwp::telemetry {
class ShardStream;
enum class TraceOp : std::uint8_t;
}

namespace uwp::pipeline {

struct PipelineOptions {
  // Protocol configuration with the water's TRUE sound speed (what the
  // measurement produced); the solver runs at true speed + the offset below.
  proto::ProtocolConfig protocol{};
  // Apply the §2.4 payload quantization (2-sample resolution) to the
  // reported timestamps before solving.
  bool quantize_payload = true;
  // Leader-side configured sound speed offset (§2 misestimation error).
  double sound_speed_error_mps = 22.0;
  core::LocalizerOptions localizer{};
  // Run the continuous-tracking stage (per-diver Kalman filters).
  bool track = false;
  core::TrackerConfig tracker{};
  // When >= 0, each round's tracker measurement noise is the localization's
  // normalized stress plus this offset (meters) — noisy rounds get less
  // Kalman gain. Negative = use TrackerConfig::measurement_sigma_m as is.
  double tracker_stress_sigma_offset_m = -1.0;
};

// One round's outputs. Returned by reference from run_round and reused
// across rounds; copy out whatever must outlive the next call.
struct RoundOutput {
  bool localized = false;
  proto::RangingSolution ranging;
  core::LocalizationResult localization;
  // The exact localization input used (distances, weights, depths, pointing,
  // votes) so ablations can re-localize the same measurements.
  core::LocalizationInput localizer_input;
  // Per-device horizontal errors vs ground truth; entry 0 (leader) = 0, NaN
  // when unavailable.
  std::vector<double> error_2d;
  std::vector<double> tracked_error_2d;  // NaN when track is off / cold
  // Per measured link |estimated - true| 1D distance errors (diagnostics).
  std::vector<double> ranging_errors;
};

class RoundPipeline {
 public:
  explicit RoundPipeline(PipelineOptions opts);

  const PipelineOptions& options() const { return opts_; }
  const core::GroupTracker& tracker() const { return tracker_; }

  // Forget cross-round state (the tracker); solver workspaces stay warm.
  void reset();

  // The §2.4 payload quantization table this pipeline applies, exposed so
  // codecs (fleet wire codec, trace tooling) stay in sync with the round
  // chain's on-the-wire resolution.
  const proto::PayloadCodecConfig& codec_config() const { return codec_; }

  // Attach the owning shard's/worker's telemetry stream (nullptr = off;
  // the default). run_round then emits per-stage span timers plus the
  // round/localized/solver-iteration counters.
  void set_telemetry(telemetry::ShardStream* stream) { telemetry_ = stream; }

  // Arm the causal trace for the next round: every stage of that round
  // emits a trace span tagged `trace_id` (children of the round-root span)
  // onto the attached stream. run_round() disarms, so coasts and
  // untraced rounds between explicit arms emit nothing. No-op when the
  // stream is null or its trace plane is off.
  void set_trace(std::uint64_t trace_id) { trace_id_ = trace_id; }

  // Process one measurement: tracker predict, §2.4 payload quantization,
  // ranging, localization (SMACOF + Algorithm 1 + ambiguity, warm-started
  // from the tracker's prediction when the previous round localized), then
  // the tracker update. `dt_s` is the time since the previous round
  // (tracker prediction horizon; ignored when tracking is off). Payload
  // quantization mutates m.protocol in place — afterwards it holds exactly
  // the table the leader decoded. The returned reference stays valid until
  // the next run_round call.
  const RoundOutput& run_round(RoundMeasurement& m, uwp::Rng& rng, double dt_s = 0.0);

  // A round that never happened (e.g. jammed by noise): advance the tracker
  // so it coasts on its motion model.
  void coast(double dt_s);

 private:
  bool tracing() const;
  double trace_begin() const;  // span-start ts, 0.0 when not tracing
  void trace_emit(telemetry::TraceOp op, double ts0_s);

  PipelineOptions opts_;
  proto::RangingSolver solver_;
  proto::PayloadCodecConfig codec_;
  core::Localizer localizer_;
  core::GroupTracker tracker_;
  core::LocalizerWorkspace loc_ws_;
  std::vector<std::optional<Vec2>> tracker_update_;
  RoundOutput out_;
  telemetry::ShardStream* telemetry_ = nullptr;
  // Cross-round warm start: true when the previous event was a localized,
  // tracked round (cleared on reset/coast and failed rounds), so the
  // tracker's predicted geometry is a trustworthy SMACOF seed.
  bool warm_valid_ = false;
  std::vector<Vec2> warm_init_;
  std::uint64_t trace_id_ = 0;  // armed trace id; 0 = not tracing
};

}  // namespace uwp::pipeline
