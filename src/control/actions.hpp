// Typed control-plane actions and the shaper knob bundle they drive.
//
// The control plane closes the loop between the deterministic telemetry
// counter plane and the ingest server's token-bucket shaper. Everything in
// this header is plain data: a ControlAction records one knob change decided
// at one window boundary, and ShardControls is the full knob bundle the
// shaper runs with between boundaries. The shaper tuner never touches the
// server directly — it edits a ShardControls and the engine diffs it into
// actions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace uwp::control {

// One knob per action kind; `value` is the new setting (integral knobs are
// stored as exact small doubles, so the encoding round-trips bit-exactly).
enum class ActionKind : std::uint8_t {
  kShaperRate = 0,   // value = token-bucket rate, rounds/sec (0 = off)
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
  ActionKind kind = ActionKind::kShaperRate;
  double value = 0.0;
};

bool bit_equal(const ControlAction& a, const ControlAction& b);

// The full knob bundle. The engine seeds it from the spec-derived baseline
// and the shaper tuner nudges it at window boundaries.
struct ShardControls {
  double shaper_rate = 0.0;   // rounds/sec admitted; 0 disables the bucket
  double shaper_burst = 8.0;  // bucket depth in rounds
  std::size_t shaper_max_defers = 8;
};

bool bit_equal(const ShardControls& a, const ShardControls& b);

}  // namespace uwp::control
