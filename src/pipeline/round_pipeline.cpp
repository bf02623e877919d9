#include "pipeline/round_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/collector.hpp"

namespace uwp::pipeline {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

proto::ProtocolConfig solver_config(const PipelineOptions& opts) {
  proto::ProtocolConfig cfg = opts.protocol;
  cfg.sound_speed_mps += opts.sound_speed_error_mps;
  return cfg;
}

proto::PayloadCodecConfig make_codec_config(const PipelineOptions& opts) {
  proto::PayloadCodecConfig cfg;
  cfg.protocol = opts.protocol;
  return cfg;
}
}  // namespace

RoundPipeline::RoundPipeline(PipelineOptions opts)
    : opts_(opts),
      solver_(solver_config(opts)),
      codec_(make_codec_config(opts)),
      localizer_(opts.localizer),
      tracker_(opts.protocol.num_devices, opts.tracker) {
  if (opts_.protocol.num_devices < 2)
    throw std::invalid_argument("RoundPipeline: need >= 2 devices");
}

void RoundPipeline::reset() {
  tracker_ = core::GroupTracker(opts_.protocol.num_devices, opts_.tracker);
  warm_valid_ = false;
}

bool RoundPipeline::tracing() const {
  return trace_id_ != 0 && telemetry_ != nullptr &&
         telemetry_->trace_enabled();
}

double RoundPipeline::trace_begin() const {
  return tracing() ? telemetry_->trace_now() : 0.0;
}

void RoundPipeline::trace_emit(telemetry::TraceOp op, double ts0_s) {
  if (tracing())
    telemetry_->trace_span(trace_id_, op, telemetry::TraceOp::kRound, ts0_s);
}

void RoundPipeline::coast(double dt_s) {
  tracker_.predict(dt_s);
  // A coast gap means the predicted geometry has drifted unverified; the
  // next round re-seeds from cold classical MDS.
  warm_valid_ = false;
}

const RoundOutput& RoundPipeline::run_round(RoundMeasurement& m, uwp::Rng& rng,
                                            double dt_s) {
  const std::size_t n = opts_.protocol.num_devices;
  const double round_ts0 = trace_begin();
  double elapsed = 0.0;  // summed stage spans for the kRound span

  // Tracker prediction runs first (it used to sit with the update after
  // localization — same predict/update sequence either way) so the predicted
  // geometry can warm-start the localize stage.
  if (opts_.track) {
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kTrack);
    tracker_.predict(dt_s);
    elapsed += span.stop();
  }

  // Payload quantization (§2.4): timestamps ride to the leader as 10-bit
  // slot-relative deltas at 2-sample resolution.
  {
    const double tts = trace_begin();
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kQuantize);
    if (opts_.quantize_payload) proto::quantize_run_payload(m.protocol, codec_);
    elapsed += span.stop();
    trace_emit(telemetry::TraceOp::kQuantize, tts);
  }

  {
    const double tts = trace_begin();
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kRanging);
    // Pairwise distances from the timestamp table.
    solver_.solve_into(out_.ranging, m.protocol);

    // Per-link 1D ranging diagnostics against the true geometry.
    out_.ranging_errors.clear();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (out_.ranging.weights(i, j) > 0.0) {
          const double true_d = distance(m.truth_pos[i], m.truth_pos[j]);
          out_.ranging_errors.push_back(std::abs(out_.ranging.distances(i, j) - true_d));
        }
    elapsed += span.stop();
    trace_emit(telemetry::TraceOp::kRanging, tts);
  }

  out_.localizer_input.distances = out_.ranging.distances;
  out_.localizer_input.weights = out_.ranging.weights;
  out_.localizer_input.depths = m.depths;
  out_.localizer_input.pointing_bearing_rad = m.pointing_bearing_rad;
  out_.localizer_input.votes = m.votes;

  out_.error_2d.assign(n, kNaN);
  out_.tracked_error_2d.assign(n, kNaN);
  out_.error_2d[0] = 0.0;

  // Cross-round warm start: when the previous round localized and updated
  // the tracker, seed SMACOF from the predicted geometry (leader pinned at
  // the origin) instead of cold classical MDS. SMACOF only sees pairwise
  // distances, so the output-frame prediction is a valid seed; ambiguity
  // resolution re-normalizes the frame afterwards as usual. A non-finite
  // prediction never seeds a solve.
  bool warm = opts_.track && warm_valid_;
  if (warm) {
    warm_init_.resize(n);
    warm_init_[0] = {0.0, 0.0};
    for (std::size_t i = 1; i < n; ++i) {
      const core::DiverTrack& track = tracker_.track(i);
      const Vec2 p = track.position();
      if (!track.initialized() || !std::isfinite(p.x) || !std::isfinite(p.y)) {
        warm = false;
        break;
      }
      warm_init_[i] = p;
    }
  }

  {
    const double tts = trace_begin();
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kLocalize);
    try {
      localizer_.localize_into(out_.localization, out_.localizer_input, rng, loc_ws_,
                               warm ? &warm_init_ : nullptr);
      out_.localized = true;
    } catch (const std::exception&) {
      out_.localized = false;
    }
    elapsed += span.stop();
    trace_emit(telemetry::TraceOp::kLocalize, tts);
  }
  if (telemetry_ != nullptr)
    telemetry_->count(warm ? telemetry::Counter::kWarmStartHits
                           : telemetry::Counter::kWarmStartMisses);

  if (out_.localized) {
    for (std::size_t i = 1; i < n; ++i)
      out_.error_2d[i] = distance(out_.localization.positions[i].xy(), m.truth_xy[i]);
  }

  // Tracking: coast through failed rounds, fuse successful ones (the predict
  // half already ran above).
  if (opts_.track) {
    const double tts = trace_begin();
    telemetry::SpanTimer span(telemetry_, telemetry::Stage::kTrack);
    if (out_.localized) {
      tracker_update_.assign(n, std::nullopt);
      for (std::size_t i = 1; i < n; ++i)
        tracker_update_[i] = out_.localization.positions[i].xy();
      const double sigma =
          opts_.tracker_stress_sigma_offset_m >= 0.0
              ? out_.localization.normalized_stress + opts_.tracker_stress_sigma_offset_m
              : -1.0;
      tracker_.update(tracker_update_, sigma);
    }
    for (std::size_t i = 1; i < n; ++i) {
      const core::DiverTrack& track = tracker_.track(i);
      if (track.initialized())
        out_.tracked_error_2d[i] = distance(track.position(), m.truth_xy[i]);
    }
    elapsed += span.stop();
    trace_emit(telemetry::TraceOp::kTrack, tts);
    warm_valid_ = out_.localized;
  }

  telemetry::ShardStream* const tel = telemetry_;
  if (tel != nullptr) {
    if (tel->timing_enabled()) tel->span(telemetry::Stage::kRound, elapsed);
    tel->count(telemetry::Counter::kRounds);
    if (out_.localized) {
      tel->count(telemetry::Counter::kLocalized);
      tel->count(telemetry::Counter::kSolverIterations,
                 static_cast<std::uint64_t>(out_.localization.solver_iterations));
    } else {
      tel->count(telemetry::Counter::kLocalizeFailures);
    }
  }
  // Root span: wall time of the whole round, stages included.
  if (tracing())
    tel->trace_span(trace_id_, telemetry::TraceOp::kRound, telemetry::TraceOp::kNone,
                    round_ts0);
  trace_id_ = 0;
  return out_;
}

}  // namespace uwp::pipeline
