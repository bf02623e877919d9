// ControlEngine: the deterministic fold from counter snapshots to actions.
//
// The engine owns the active ShardControls, the shaper tuner, and the
// ControlLog. At every window boundary the ingest server hands it the
// merged counter Snapshot for the window that just closed; the engine masks
// its own control counters out, folds the shaper tuner, diffs the resulting
// knob bundle against the active one, and appends one ControlAction per
// changed field. The whole fold is
//
//   log = f(config, baseline, snapshots[0..n])
//
// — no wall clock, no RNG, no thread-count dependence — which is what makes
// the log byte-identical across worker/thread counts.
#pragma once

#include <cstdint>

#include "control/actions.hpp"
#include "control/log.hpp"
#include "telemetry/collector.hpp"

namespace uwp::control {

// Shaper tuner knobs, spec-derived (config::make_control_config). The
// decision cadence is not a knob: the engine folds the collector's own
// telemetry windows.
struct ControlConfig {
  // Multiplicative rate step per congested window, and the ceiling as a
  // multiple of the spec's baseline rate.
  double rate_step = 1.25;
  double rate_max_multiplier = 4.0;
};

// Shaper tuner: token-bucket rate/burst/defer budget from shed pressure.
// Raises the admission rate multiplicatively while frames shed *and* the
// workers kept pace with what was admitted (rounds >= admitted — shedding
// was the bottleneck, not the solvers); decays back toward the spec
// baseline on quiet windows. The defer budget rises with shed pressure so
// bursts spread into the retry heap instead of coasting.
//
// observe() is a pure function of (snapshot, config, baseline) folded over
// the ShardControls it is handed: it holds no mutable state, reads no wall
// clock or RNG, and branches only on exact integer counter comparisons, so
// the same snapshot sequence reproduces the same decisions bit for bit.
class ShaperTunerPolicy {
 public:
  ShaperTunerPolicy(const ControlConfig& cfg, const ShardControls& baseline)
      : cfg_(cfg), base_(baseline) {}
  void observe(const telemetry::Snapshot& snap, ShardControls& controls) const;

 private:
  ControlConfig cfg_;
  ShardControls base_;
};

class ControlEngine {
 public:
  ControlEngine(const ControlConfig& cfg, const ShardControls& baseline);

  // Attach the engine's own telemetry stream (it emits kControlWindows /
  // kControlActions there). `window_span` is the telemetry window length in
  // virtual seconds, used to stamp emissions into the window *after* the
  // one observed (decisions apply going forward).
  void bind_stream(telemetry::ShardStream* stream, double window_span);

  // Fold one closed window. Windows must be presented in increasing order;
  // `snap` is the merged Snapshot for exactly that window.
  void observe_window(std::uint64_t window, telemetry::Snapshot snap);

  const ShardControls& controls() const { return controls_; }
  const ControlLog& log() const { return log_; }

 private:
  ShardControls controls_;
  ShaperTunerPolicy shaper_;
  ControlLog log_;
  telemetry::ShardStream* stream_ = nullptr;
  double window_span_ = 0.0;
};

}  // namespace uwp::control
