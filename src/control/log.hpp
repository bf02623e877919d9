// ControlLog: the flat, replayable record of every control decision.
//
// The log is the control plane's determinism artifact, playing the role the
// fleet trace plays for session rounds: a serve run's log must be
// byte-identical at any worker/thread count, and verify_ingest_schedule
// re-derives the shaper's decisions with its retunes folded in. The binary
// codec is versioned and little-endian; `control_log_digest` gives a cheap
// fingerprint for CI diffs and the uwp_run metrics JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "control/actions.hpp"

namespace uwp::control {

inline constexpr std::uint32_t kControlLogMagic = 0x4C435755u;  // "UWCL"
// v3: the action kinds were renumbered when the arena knob was removed.
inline constexpr std::uint16_t kControlLogVersion = 3;

struct ControlLog {
  std::vector<ControlAction> actions;
  // Windows the engine observed (actions reference a subset of these).
  std::uint64_t windows_observed = 0;
};

bool bit_equal(const ControlLog& a, const ControlLog& b);

// FNV-1a over the log's canonical byte encoding (action fields in order,
// doubles by bit pattern). Stable across platforms.
std::uint64_t control_log_digest(const ControlLog& log);

// Binary codec. write never fails silently; read throws std::runtime_error
// on bad magic/version, a truncated stream, or an action count larger than
// the remaining bytes could hold.
void write_control_log(std::ostream& out, const ControlLog& log);
ControlLog read_control_log(std::istream& in);

}  // namespace uwp::control
