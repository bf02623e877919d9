#include "control/engine.hpp"

#include <cstring>

#include "control/policies.hpp"

namespace uwp::control {
namespace {

bool dbits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

}  // namespace

ControlEngine::ControlEngine(const ControlConfig& cfg,
                             const ShardControls& baseline)
    : cfg_(cfg), controls_(baseline) {
  // Fixed construction order == fixed fold order; part of the determinism
  // contract (policies compose through the shared ShardControls).
  if (cfg_.arena) policies_.push_back(std::make_unique<ArenaTunerPolicy>(cfg_));
  if (cfg_.shaper)
    policies_.push_back(std::make_unique<ShaperTunerPolicy>(cfg_, baseline));
}

void ControlEngine::bind_stream(telemetry::ShardStream* stream,
                                double window_span) {
  stream_ = stream;
  window_span_ = window_span;
}

void ControlEngine::observe_window(std::uint64_t window,
                                   telemetry::Snapshot snap) {
  using telemetry::Counter;
  // Mask the engine's own counters: a replayed counter plane has no live
  // engine stream, and re-execution must see byte-identical inputs.
  snap.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 0;
  snap.counts[static_cast<std::size_t>(Counter::kControlActions)] = 0;

  ShardControls next = controls_;
  for (const std::unique_ptr<Policy>& p : policies_)
    p->observe(window, snap, next);

  std::uint64_t emitted = 0;
  const auto emit = [&](ActionKind kind, double value) {
    log_.actions.push_back(ControlAction{window, kind, value});
    ++emitted;
  };
  if (next.arena_retain != controls_.arena_retain)
    emit(ActionKind::kArenaRetain, static_cast<double>(next.arena_retain));
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

ControlLog ControlEngine::reexecute(
    const ControlConfig& cfg, const ShardControls& baseline,
    const std::vector<telemetry::Snapshot>& snaps) {
  ControlEngine engine(cfg, baseline);
  for (const telemetry::Snapshot& snap : snaps)
    engine.observe_window(snap.window, snap);
  return engine.log_;
}

}  // namespace uwp::control
