#include "control/log.hpp"

#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

namespace uwp::control {
namespace {

// Local little-endian primitives. fleet/wire.hpp has equivalents, but the
// control layer sits *below* the fleet in the dependency order, so it keeps
// its own (the formats are independent anyway — different magic/version).
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
// Encoded action: u64 window + u8 kind + u64 value bits.
constexpr std::size_t kActionRecordBytes = 17;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t dbits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Reader {
  const std::vector<std::uint8_t>& in;
  std::size_t pos = 0;

  void need(std::size_t bytes) const {
    if (pos + bytes > in.size())
      throw std::runtime_error("control log: truncated input");
  }
  std::uint8_t u8() {
    need(1);
    return in[pos++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<std::uint16_t>(v | (std::uint16_t(in[pos + i]) << (8 * i)));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
};

}  // namespace

bool bit_equal(const ControlLog& a, const ControlLog& b) {
  if (a.windows_observed != b.windows_observed) return false;
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i)
    if (!bit_equal(a.actions[i], b.actions[i])) return false;
  return true;
}

std::uint64_t control_log_digest(const ControlLog& log) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv_u64(h, log.windows_observed);
  h = fnv_u64(h, log.actions.size());
  for (const ControlAction& a : log.actions) {
    h = fnv_u64(h, a.window);
    h = fnv_u64(h, static_cast<std::uint64_t>(a.kind));
    h = fnv_u64(h, dbits(a.value));
  }
  return h;
}

void write_control_log(std::ostream& out, const ControlLog& log) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, kControlLogMagic);
  put_u16(buf, kControlLogVersion);
  put_u64(buf, log.windows_observed);
  put_u64(buf, log.actions.size());
  for (const ControlAction& a : log.actions) {
    put_u64(buf, a.window);
    buf.push_back(static_cast<std::uint8_t>(a.kind));
    put_u64(buf, dbits(a.value));
  }
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("control log: write failed");
}

ControlLog read_control_log(std::istream& in) {
  std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  Reader r{buf, 0};
  if (r.u32() != kControlLogMagic)
    throw std::runtime_error("control log: bad magic");
  if (r.u16() != kControlLogVersion)
    throw std::runtime_error("control log: unsupported version");
  ControlLog log;
  log.windows_observed = r.u64();
  const std::uint64_t n = r.u64();
  // The count is untrusted: never reserve more records than the remaining
  // bytes can hold.
  if (n > (buf.size() - r.pos) / kActionRecordBytes)
    throw std::runtime_error("control log: action count exceeds input");
  log.actions.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ControlAction a;
    a.window = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind >= kActionKindCount)
      throw std::runtime_error("control log: unknown action kind");
    a.kind = static_cast<ActionKind>(kind);
    const std::uint64_t bits = r.u64();
    std::memcpy(&a.value, &bits, sizeof(a.value));
    log.actions.push_back(a);
  }
  if (r.pos != buf.size())
    throw std::runtime_error("control log: trailing bytes");
  return log;
}

}  // namespace uwp::control
