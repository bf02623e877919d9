// The two built-in control policies.
//
// Each one reads only deterministic counters from the merged window
// Snapshot and nudges one knob group in ShardControls. They hold no mutable
// state of their own — everything they adapt lives in the ShardControls
// fold, so re-executing them over the same snapshot sequence reproduces the
// same decisions bit-for-bit (the ControlLog contract).
#pragma once

#include "control/policy.hpp"

namespace uwp::control {

// Arena tuner: free-list retention from churn signals.
//   * evict storm (kEvicts >= evict_storm per window) — double retention
//     toward retain_max so evicted pipelines stay warm for readmissions.
//   * idle window — decay retention halfway back toward retain_base.
class ArenaTunerPolicy final : public Policy {
 public:
  explicit ArenaTunerPolicy(const ControlConfig& cfg) : cfg_(cfg) {}
  const char* name() const override { return "arena_tuner"; }
  void observe(std::uint64_t window, const telemetry::Snapshot& snap,
               ShardControls& controls) override;

 private:
  ControlConfig cfg_;
};

// Shaper tuner: token-bucket rate/burst/defer budget from shed pressure.
// Raises the admission rate multiplicatively while frames shed *and* the
// workers kept pace with what was admitted (rounds >= admitted — shedding
// was the bottleneck, not the solvers); decays back toward the spec
// baseline on quiet windows. The defer budget rises with shed pressure so
// bursts spread into the retry heap instead of coasting.
class ShaperTunerPolicy final : public Policy {
 public:
  ShaperTunerPolicy(const ControlConfig& cfg, const ShardControls& baseline)
      : cfg_(cfg), base_(baseline) {}
  const char* name() const override { return "shaper_tuner"; }
  void observe(std::uint64_t window, const telemetry::Snapshot& snap,
               ShardControls& controls) override;

 private:
  ControlConfig cfg_;
  ShardControls base_;
};

}  // namespace uwp::control
