#include "control/actions.hpp"

#include <cstring>

namespace uwp::control {
namespace {

// Bit-pattern double equality: the log contract is *byte* identity, so
// -0.0 vs +0.0 (or any NaN payload drift) must count as different.
bool dbits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

}  // namespace

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::kArenaRetain:
      return "arena_retain";
    case ActionKind::kShaperRate:
      return "shaper_rate";
    case ActionKind::kShaperBurst:
      return "shaper_burst";
    case ActionKind::kShaperMaxDefers:
      return "shaper_max_defers";
    case ActionKind::kCount_:
      break;
  }
  return "unknown";
}

bool bit_equal(const ControlAction& a, const ControlAction& b) {
  return a.window == b.window && a.kind == b.kind && dbits_equal(a.value, b.value);
}

bool bit_equal(const ShardControls& a, const ShardControls& b) {
  return a.arena_retain == b.arena_retain &&
         dbits_equal(a.shaper_rate, b.shaper_rate) &&
         dbits_equal(a.shaper_burst, b.shaper_burst) &&
         a.shaper_max_defers == b.shaper_max_defers;
}

}  // namespace uwp::control
