#include "fleet/transport.hpp"

#include <cmath>

namespace uwp::fleet {

void encode_ingest_frame(const IngestFrame& f, std::vector<std::uint8_t>& out) {
  out.clear();
  put_u32(out, kIngestMagic);
  put_u16(out, kIngestVersion);
  put_u8(out, static_cast<std::uint8_t>(f.kind));
  put_u64(out, f.session_id);
  put_u32(out, f.round);
  put_f64(out, f.t_s);
  put_f64(out, f.dt_s);
  put_u64(out, f.payload.size());
  out.insert(out.end(), f.payload.begin(), f.payload.end());
}

void decode_ingest_frame(std::span<const std::uint8_t> in, IngestFrame& out) {
  ByteReader r{in, 0};
  if (r.u32() != kIngestMagic) throw WireError("ingest frame: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kIngestVersion)
    throw WireError("ingest frame: unsupported version " + std::to_string(version));
  const std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(IngestKind::kMeasurement) ||
      kind > static_cast<std::uint8_t>(IngestKind::kBye))
    throw WireError("ingest frame: unknown kind " + std::to_string(kind));
  out.kind = static_cast<IngestKind>(kind);
  out.session_id = r.u64();
  out.round = r.u32();
  out.t_s = r.f64();
  out.dt_s = r.f64();
  // The virtual clock keys shaping and telemetry windows, and dt_s feeds the
  // tracker: neither may carry NaN or inf, nor may time run before zero.
  if (!std::isfinite(out.t_s) || out.t_s < 0.0)
    throw WireError("ingest frame: t_s must be finite and nonnegative");
  if (!std::isfinite(out.dt_s)) throw WireError("ingest frame: dt_s must be finite");
  const std::uint64_t len = r.u64();
  r.need(len);
  if (out.kind != IngestKind::kMeasurement && len != 0)
    throw WireError("ingest frame: unexpected payload on a control frame");
  out.payload.assign(in.begin() + static_cast<std::ptrdiff_t>(r.pos),
                     in.begin() + static_cast<std::ptrdiff_t>(r.pos + len));
  r.pos += len;
  if (r.pos != in.size()) throw WireError("ingest frame: trailing bytes");
}

}  // namespace uwp::fleet
