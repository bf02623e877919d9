#include "control/policies.hpp"

#include <algorithm>

namespace uwp::control {
namespace {

std::uint64_t get(const telemetry::Snapshot& snap, telemetry::Counter c) {
  return snap.counts[static_cast<std::size_t>(c)];
}

}  // namespace

void ArenaTunerPolicy::observe(std::uint64_t /*window*/,
                               const telemetry::Snapshot& snap,
                               ShardControls& c) {
  using telemetry::Counter;
  const std::uint64_t admits = get(snap, Counter::kAdmits);
  const std::uint64_t evicts = get(snap, Counter::kEvicts);

  if (evicts >= cfg_.evict_storm) {
    // Storm: double retention so the wave of released pipelines survives to
    // serve the readmissions that usually follow.
    const std::size_t cur =
        c.arena_retain == 0 ? cfg_.retain_base : c.arena_retain;
    c.arena_retain = std::min(cfg_.retain_max,
                              std::max(cur * 2, cfg_.retain_base));
  } else if (admits == 0 && evicts == 0 && c.arena_retain > cfg_.retain_base) {
    // Idle: decay halfway back toward the base so a one-off storm doesn't
    // pin memory forever.
    c.arena_retain = std::max(cfg_.retain_base, c.arena_retain / 2);
  }
}

void ShaperTunerPolicy::observe(std::uint64_t /*window*/,
                                const telemetry::Snapshot& snap,
                                ShardControls& c) {
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

}  // namespace uwp::control
