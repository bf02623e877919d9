#include "proto/payload_codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "proto/timestamp_protocol.hpp"

namespace uwp::proto {

void push_bits(std::vector<std::uint8_t>& out, unsigned value, unsigned bits) {
  for (unsigned b = bits; b-- > 0;)
    out.push_back(static_cast<std::uint8_t>((value >> b) & 1u));
}

unsigned pop_bits(const std::vector<std::uint8_t>& in, std::size_t& pos, unsigned bits) {
  unsigned v = 0;
  for (unsigned b = 0; b < bits; ++b) {
    if (pos >= in.size()) throw std::invalid_argument("payload: truncated bitstream");
    v = (v << 1) | (in[pos++] & 1u);
  }
  return v;
}

PayloadCodec::PayloadCodec(PayloadCodecConfig cfg) : cfg_(cfg) {
  if (cfg_.protocol.num_devices < 2)
    throw std::invalid_argument("PayloadCodec: need >= 2 devices");
}

unsigned PayloadCodec::quantize_depth(double depth_m) const {
  const unsigned max_q = (1u << cfg_.depth_bits) - 1u;
  const double q = std::round(std::max(depth_m, 0.0) / cfg_.depth_resolution_m);
  return static_cast<unsigned>(std::min(q, static_cast<double>(max_q)));
}

double PayloadCodec::dequantize_depth(unsigned q) const {
  return static_cast<double>(q) * cfg_.depth_resolution_m;
}

unsigned PayloadCodec::quantize_delta(double delta_s) const {
  // Field counts units of `timestamp_resolution_samples` samples; the
  // sentinel value is reserved for "missing".
  const unsigned sentinel = missing_sentinel();
  const double samples = std::max(delta_s, 0.0) * cfg_.protocol.fs_hz;
  const double units =
      std::round(samples / static_cast<double>(cfg_.timestamp_resolution_samples));
  const unsigned max_valid = sentinel - 1u;
  return static_cast<unsigned>(std::min(units, static_cast<double>(max_valid)));
}

double PayloadCodec::dequantize_delta(unsigned q) const {
  return static_cast<double>(q * cfg_.timestamp_resolution_samples) /
         cfg_.protocol.fs_hz;
}

std::vector<std::uint8_t> PayloadCodec::encode(const DeviceReport& report,
                                               std::size_t self_id) const {
  const std::size_t n = cfg_.protocol.num_devices;
  if (report.slot_delta_s.size() != n)
    throw std::invalid_argument("PayloadCodec: slot_delta size != N");
  if (self_id >= n) throw std::invalid_argument("PayloadCodec: bad self_id");

  std::vector<std::uint8_t> bits;
  bits.reserve(cfg_.payload_bits());
  push_bits(bits, quantize_depth(report.depth_m), cfg_.depth_bits);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self_id) continue;
    const auto& delta = report.slot_delta_s[j];
    push_bits(bits, delta ? quantize_delta(*delta) : missing_sentinel(),
              cfg_.timestamp_bits);
  }
  return bits;
}

DeviceReport PayloadCodec::decode(const std::vector<std::uint8_t>& bits,
                                  std::size_t self_id) const {
  const std::size_t n = cfg_.protocol.num_devices;
  if (self_id >= n) throw std::invalid_argument("PayloadCodec: bad self_id");
  DeviceReport report;
  report.slot_delta_s.assign(n, std::nullopt);
  std::size_t pos = 0;
  report.depth_m = dequantize_depth(pop_bits(bits, pos, cfg_.depth_bits));
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self_id) continue;
    const unsigned q = pop_bits(bits, pos, cfg_.timestamp_bits);
    if (q != missing_sentinel()) report.slot_delta_s[j] = dequantize_delta(q);
  }
  return report;
}

void quantize_run_payload(ProtocolRun& run, const PayloadCodecConfig& cfg) {
  const PayloadCodec codec(cfg);
  const std::size_t n = cfg.protocol.num_devices;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) {
      if (i == j || run.heard(i, j) <= 0.0) continue;
      if (run.sync_ref[j] != 0) continue;  // relay slots ride as-is
      const double slot = slot_time_leader_sync(cfg.protocol, j);
      const double delta = run.timestamps(i, j) - slot;
      // Out-of-field deltas ride as-is; the negated test keeps a NaN one
      // (a timestamp off the wire, say) away from quantize_delta's cast.
      if (!(delta >= 0.0 && delta < codec.dequantize_delta(codec.missing_sentinel() - 1)))
        continue;
      run.timestamps(i, j) = slot + codec.dequantize_delta(codec.quantize_delta(delta));
    }
  }
}

}  // namespace uwp::proto
