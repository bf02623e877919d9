#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace uwp::sim {

namespace {

constexpr char kMagic[4] = {'U', 'W', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("trace: truncated input");
  return value;
}

void write_samples(std::ostream& out, const std::vector<double>& xs) {
  write_pod<std::uint64_t>(out, xs.size());
  out.write(reinterpret_cast<const char*>(xs.data()),
            static_cast<std::streamsize>(xs.size() * sizeof(double)));
}

std::vector<double> read_samples(std::istream& in) {
  const auto n = read_pod<std::uint64_t>(in);
  if (n > (1ull << 32))
    throw std::runtime_error("trace: implausible sample count");
  // `n` is untrusted and the stream may not be seekable: grow the vector a
  // bounded chunk (64 Ki samples) at a time, only as samples arrive.
  std::vector<double> xs;
  while (xs.size() < n) {
    const std::size_t got = xs.size();
    xs.resize(got + std::min<std::uint64_t>(n - got, 1u << 16));
    in.read(reinterpret_cast<char*>(xs.data() + got),
            static_cast<std::streamsize>((xs.size() - got) * sizeof(double)));
    if (!in) throw std::runtime_error("trace: truncated samples");
  }
  return xs;
}

}  // namespace

void write_trace(std::ostream& out, const ReceptionTrace& trace) {
  out.write(kMagic, 4);
  write_pod<std::uint32_t>(out, kVersion);
  write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(trace.receptions.size()));
  for (const channel::Reception& rec : trace.receptions) {
    write_pod<double>(out, rec.fs_hz);
    write_pod<double>(out, rec.true_range_m);
    write_pod<double>(out, rec.true_tof_s[0]);
    write_pod<double>(out, rec.true_tof_s[1]);
    write_samples(out, rec.mic[0]);
    write_samples(out, rec.mic[1]);
  }
  if (!out) throw std::runtime_error("trace: write failed");
}

ReceptionTrace read_trace(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("trace: bad magic");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) throw std::runtime_error("trace: unsupported version");
  const auto count = read_pod<std::uint32_t>(in);

  // No reserve: `count` is untrusted, and each reception must arrive in full.
  ReceptionTrace trace;
  for (std::uint32_t i = 0; i < count; ++i) {
    channel::Reception rec;
    rec.fs_hz = read_pod<double>(in);
    rec.true_range_m = read_pod<double>(in);
    rec.true_tof_s[0] = read_pod<double>(in);
    rec.true_tof_s[1] = read_pod<double>(in);
    rec.mic[0] = read_samples(in);
    rec.mic[1] = read_samples(in);
    trace.receptions.push_back(std::move(rec));
  }
  return trace;
}

void save_trace(const std::string& path, const ReceptionTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_trace(out, trace);
}

ReceptionTrace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return read_trace(in);
}

ReceptionTrace record_link_trace(const channel::LinkSimulator& link,
                                 const channel::LinkConfig& cfg,
                                 std::span<const double> waveform, int count,
                                 uwp::Rng& rng) {
  ReceptionTrace trace;
  trace.receptions.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) trace.add(link.transmit(waveform, cfg, rng));
  return trace;
}

const char* to_string(PacketEventKind kind) {
  switch (kind) {
    case PacketEventKind::kTxStart: return "tx_start";
    case PacketEventKind::kRxDeliver: return "rx_deliver";
    case PacketEventKind::kRxCollision: return "rx_collision";
    case PacketEventKind::kRxHalfDuplexDrop: return "rx_half_duplex_drop";
    case PacketEventKind::kRxDetectFail: return "rx_detect_fail";
  }
  return "unknown";
}

void write_packet_trace_csv(std::ostream& out, const PacketTrace& trace) {
  out << "time_s,round,tx,rx,event,collision\n";
  char buf[32];
  for (const PacketEvent& e : trace.events) {
    std::snprintf(buf, sizeof buf, "%.9f", e.time_s);
    out << buf << ',' << e.round << ',' << e.tx << ',' << e.rx << ','
        << to_string(e.kind) << ',' << (e.collision ? 1 : 0) << '\n';
  }
  if (!out) throw std::runtime_error("trace: packet CSV write failed");
}

void save_packet_trace_csv(const std::string& path, const PacketTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_packet_trace_csv(out, trace);
}

}  // namespace uwp::sim
