#include "control/engine.hpp"

#include <algorithm>
#include <cstring>

namespace uwp::control {
namespace {

bool dbits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::uint64_t get(const telemetry::Snapshot& snap, telemetry::Counter c) {
  return snap.counts[static_cast<std::size_t>(c)];
}

}  // namespace

void ShaperTunerPolicy::observe(const telemetry::Snapshot& snap,
                                ShardControls& c) const {
  using telemetry::Counter;
  if (base_.shaper_rate <= 0.0) return;  // shaping disabled at baseline
  const std::uint64_t shed = get(snap, Counter::kIngestShed);
  const std::uint64_t deferred = get(snap, Counter::kIngestDeferred);
  const std::uint64_t admitted = get(snap, Counter::kIngestAdmitted);
  const std::uint64_t rounds = get(snap, Counter::kRounds);

  const double rate_max = base_.shaper_rate * cfg_.rate_max_multiplier;
  const double burst_max = base_.shaper_burst * cfg_.rate_max_multiplier;
  if (shed > 0 && rounds >= admitted) {
    // Frames shed while the workers drained everything they were given:
    // the bucket, not the solvers, was the bottleneck. Open it up.
    c.shaper_rate = std::min(rate_max, c.shaper_rate * cfg_.rate_step);
    c.shaper_burst = std::min(burst_max, c.shaper_burst + 2.0);
    c.shaper_max_defers =
        std::min(base_.shaper_max_defers * 4, c.shaper_max_defers + 2);
  } else if (shed == 0 && deferred == 0) {
    // Quiet window: step back toward the configured baseline.
    c.shaper_rate = std::max(base_.shaper_rate, c.shaper_rate / cfg_.rate_step);
    c.shaper_burst = std::max(base_.shaper_burst, c.shaper_burst - 2.0);
    if (c.shaper_max_defers > base_.shaper_max_defers)
      c.shaper_max_defers = c.shaper_max_defers - 1;
  }
}

ControlEngine::ControlEngine(const ControlConfig& cfg,
                             const ShardControls& baseline)
    : controls_(baseline), shaper_(cfg, baseline) {}

void ControlEngine::bind_stream(telemetry::ShardStream* stream,
                                double window_span) {
  stream_ = stream;
  window_span_ = window_span;
}

void ControlEngine::observe_window(std::uint64_t window,
                                   telemetry::Snapshot snap) {
  using telemetry::Counter;
  // Mask the engine's own counters so its emissions never feed back into
  // its decisions.
  snap.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 0;
  snap.counts[static_cast<std::size_t>(Counter::kControlActions)] = 0;

  ShardControls next = controls_;
  shaper_.observe(snap, next);

  std::uint64_t emitted = 0;
  const auto emit = [&](ActionKind kind, double value) {
    log_.actions.push_back(ControlAction{window, kind, value});
    ++emitted;
  };
  if (!dbits_equal(next.shaper_rate, controls_.shaper_rate))
    emit(ActionKind::kShaperRate, next.shaper_rate);
  if (!dbits_equal(next.shaper_burst, controls_.shaper_burst))
    emit(ActionKind::kShaperBurst, next.shaper_burst);
  if (next.shaper_max_defers != controls_.shaper_max_defers)
    emit(ActionKind::kShaperMaxDefers,
         static_cast<double>(next.shaper_max_defers));

  controls_ = next;
  ++log_.windows_observed;

  if (stream_ != nullptr) {
    // Decisions take effect in the *next* window; stamp the emissions there
    // so the observed window's sums stay final.
    stream_->set_time(static_cast<double>(window + 1) * window_span_);
    stream_->count(Counter::kControlWindows, 1);
    if (emitted > 0) stream_->count(Counter::kControlActions, emitted);
  }
}

}  // namespace uwp::control
