// Typed control-plane actions and the per-shard knob bundle they drive.
//
// The control plane closes the loop between the deterministic telemetry
// counter plane and the fleet's tunable knobs. Everything in this header is
// plain data: a ControlAction records one knob change decided at one window
// boundary, and ShardControls is the full knob bundle a shard (or server
// worker) applies between boundaries. Policies never touch the fleet
// directly — they edit a ShardControls and the engine diffs it into actions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace uwp::control {

// One knob per action kind; `value` is the new setting (integral knobs are
// stored as exact small doubles, so the encoding round-trips bit-exactly).
enum class ActionKind : std::uint8_t {
  kArenaRetain = 0,  // value = retained free entries per size (0 = all)
  kShaperRate,       // value = token-bucket rate, rounds/sec (0 = off)
  kShaperBurst,      // value = token-bucket burst, rounds
  kShaperMaxDefers,  // value = defer budget before a frame sheds
  kCount_,
};
inline constexpr std::size_t kActionKindCount =
    static_cast<std::size_t>(ActionKind::kCount_);
const char* to_string(ActionKind k);

// One decided knob change: at the boundary closing `window`, set `kind` to
// `value`. A ControlLog is a flat sequence of these.
struct ControlAction {
  std::uint64_t window = 0;
  ActionKind kind = ActionKind::kArenaRetain;
  double value = 0.0;
};

bool bit_equal(const ControlAction& a, const ControlAction& b);

// The full knob bundle. Defaults reproduce the uncontrolled fleet exactly;
// the engine seeds this from the spec-derived baseline and policies nudge
// it at window boundaries.
struct ShardControls {
  std::size_t arena_retain = 0;  // free entries kept per group size; 0 = all
  double shaper_rate = 0.0;      // rounds/sec admitted; 0 disables the bucket
  double shaper_burst = 8.0;     // bucket depth in rounds
  std::size_t shaper_max_defers = 8;
};

bool bit_equal(const ShardControls& a, const ShardControls& b);

}  // namespace uwp::control
