// Versioned binary wire codec for the fleet layer. A positioning service
// cannot assume its measurements were produced in-process: they arrive from
// devices as bytes, and regression traces replay those same bytes. This
// codec serializes pipeline::RoundMeasurement (the full leader-side round
// input, ground truth included) and the compact per-round result record
// exchanged between shards and trace files.
//
// Format rules:
//   * every record starts with magic "UWPF" (u32 LE), a u16 version, and a
//     u8 record kind, so streams are self-describing and refuse foreign or
//     future bytes instead of misparsing them;
//   * integers are little-endian fixed width; doubles ride as their IEEE-754
//     bit pattern, so round trips are bit-exact for every field including
//     NaN sentinels;
//   * the heard matrix and vote signs travel as MSB-first bitfields built on
//     proto::push_bits / proto::pop_bits — the same bitstream primitives the
//     §2.4 payload codec uses;
//   * decoders validate everything (magic, version, kind, sizes, value
//     domains) and throw uwp::fleet::WireError on malformed input; they
//     never read past the buffer and never allocate unbounded memory (device
//     counts are capped at kMaxWireDevices).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline/measurement.hpp"
#include "sim/fleet_workload.hpp"

namespace uwp::fleet {

inline constexpr std::uint32_t kWireMagic = 0x46505755u;  // "UWPF" little-endian
inline constexpr std::uint16_t kWireVersion = 1;
// Sanity cap on the decoded device count: a fleet group is tens of devices;
// anything larger is a corrupt or hostile length field, rejected before any
// allocation is sized from it.
inline constexpr std::size_t kMaxWireDevices = sim::kMaxGroupSize;

enum class RecordKind : std::uint8_t {
  kMeasurement = 1,  // a full pipeline::RoundMeasurement
  kRoundRecord = 2,  // a per-round result summary (RoundRecord below)
};

// Thrown on any malformed input: bad magic/version/kind, truncated buffer,
// inconsistent field sizes, or out-of-domain values.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// --- little-endian byte primitives ------------------------------------------
// Shared by the record codecs below and the fleet trace recorder.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_f64(std::vector<std::uint8_t>& out, double v);

// Bounds-checked cursor; every accessor throws WireError instead of reading
// past the end, so a truncated or hostile buffer can never fault.
struct ByteReader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;

  void need(std::size_t bytes) const;
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
};

// The per-round result summary a session emits after running one
// measurement through its pipeline: enough for downstream consumers (and
// the replay verifier) to compare runs bit-for-bit without shipping the
// whole localization state.
struct RoundRecord {
  std::uint32_t round = 0;
  bool localized = false;
  double normalized_stress = 0.0;
  // Per-device horizontal errors; NaN where unavailable (see
  // pipeline::RoundOutput). tracked_error_2d is empty when tracking is off.
  std::vector<double> error_2d;
  std::vector<double> tracked_error_2d;
};

// Append one encoded record to `out` (header included). Throws
// std::invalid_argument when the in-memory value is not encodable: vector
// sizes inconsistent with the protocol's device count, heard entries other
// than 0/1, vote signs outside {-1, 0, +1}, or more than kMaxWireDevices
// devices.
void encode_measurement(const pipeline::RoundMeasurement& m,
                        std::vector<std::uint8_t>& out);
void encode_round_record(const RoundRecord& r, std::vector<std::uint8_t>& out);

// Decode one record starting at `pos`, advancing `pos` past it. Buffers in
// `out` are reused. Throws WireError on malformed input.
void decode_measurement(std::span<const std::uint8_t> in, std::size_t& pos,
                        pipeline::RoundMeasurement& out);
void decode_round_record(std::span<const std::uint8_t> in, std::size_t& pos,
                         RoundRecord& out);

// Peek the record kind at `pos` (validating magic + version) without
// consuming it; throws WireError when the header is malformed.
RecordKind peek_record_kind(std::span<const std::uint8_t> in, std::size_t pos);

// Exact structural equality (bit-level for doubles, so NaN == NaN); the
// definition of "round trip is exact" used by the codec tests and the
// replay verifier.
bool bit_equal(const pipeline::RoundMeasurement& a, const pipeline::RoundMeasurement& b);
bool bit_equal(const RoundRecord& a, const RoundRecord& b);

// FNV-1a digest over every field of every scenario in a generated workload
// (bit-level for doubles). The fleet trace header embeds it so a replay that
// regenerates a *different* workload from the recorded parameters — a
// workload-generator version skew — fails loudly instead of silently
// replaying different sessions.
std::uint64_t workload_digest(const std::vector<sim::GroupScenario>& workload);

}  // namespace uwp::fleet
