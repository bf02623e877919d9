#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "phy/ofdm_preamble.hpp"
#include "phy/ranging.hpp"

namespace uwp::sim {
namespace {

channel::Reception make_reception(double fs, std::size_t len, double seed) {
  channel::Reception rec;
  rec.fs_hz = fs;
  rec.true_range_m = seed * 3.0;
  rec.true_tof_s = {seed * 1e-3, seed * 1e-3 + 1e-4};
  rec.mic[0].resize(len);
  rec.mic[1].resize(len + 7);
  for (std::size_t i = 0; i < rec.mic[0].size(); ++i)
    rec.mic[0][i] = std::sin(seed + static_cast<double>(i));
  for (std::size_t i = 0; i < rec.mic[1].size(); ++i)
    rec.mic[1][i] = std::cos(seed + static_cast<double>(i));
  return rec;
}

TEST(Trace, StreamRoundTripExact) {
  ReceptionTrace trace;
  trace.add(make_reception(44100.0, 100, 1.0));
  trace.add(make_reception(48000.0, 50, 2.5));

  std::stringstream buf;
  write_trace(buf, trace);
  const ReceptionTrace rt = read_trace(buf);
  ASSERT_EQ(rt.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(rt.receptions[r].fs_hz, trace.receptions[r].fs_hz);
    EXPECT_DOUBLE_EQ(rt.receptions[r].true_range_m, trace.receptions[r].true_range_m);
    ASSERT_EQ(rt.receptions[r].mic[0].size(), trace.receptions[r].mic[0].size());
    ASSERT_EQ(rt.receptions[r].mic[1].size(), trace.receptions[r].mic[1].size());
    for (std::size_t i = 0; i < rt.receptions[r].mic[0].size(); ++i)
      EXPECT_DOUBLE_EQ(rt.receptions[r].mic[0][i], trace.receptions[r].mic[0][i]);
  }
}

TEST(Trace, EmptyTraceRoundTrips) {
  std::stringstream buf;
  write_trace(buf, ReceptionTrace{});
  EXPECT_EQ(read_trace(buf).size(), 0u);
}

TEST(Trace, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOPE0000000000000000";
  EXPECT_THROW(read_trace(buf), std::runtime_error);
}

TEST(Trace, TruncatedStreamRejected) {
  ReceptionTrace trace;
  trace.add(make_reception(44100.0, 100, 1.0));
  std::stringstream buf;
  write_trace(buf, trace);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_trace(cut), std::runtime_error);

  // Counts far beyond the bytes present must fail as truncation, not as a
  // huge allocation: a 12-byte header claiming 2^32 - 1 receptions, and a
  // 52-byte file whose first sample block claims 2^32 samples.
  const auto with_count = [&full](std::size_t at, auto count) {
    std::string bytes = full.substr(0, at);
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    return bytes;
  };
  for (const std::string& bytes : {with_count(8, std::uint32_t{0xFFFFFFFFu}),
                                   with_count(44, std::uint64_t{1} << 32)}) {
    std::stringstream in(bytes);
    try {
      read_trace(in);
      ADD_FAILURE() << "read_trace accepted " << bytes.size() << " bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace: truncated"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Trace, FileRoundTrip) {
  ReceptionTrace trace;
  trace.add(make_reception(44100.0, 64, 3.0));
  const std::string path = ::testing::TempDir() + "/uwp_trace_test.uwpt";
  save_trace(path, trace);
  const ReceptionTrace rt = load_trace(path);
  ASSERT_EQ(rt.size(), 1u);
  EXPECT_DOUBLE_EQ(rt.receptions[0].true_range_m, 9.0);
  std::remove(path.c_str());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path.uwpt"), std::runtime_error);
}

TEST(Trace, RecordedTraceReplaysThroughRanger) {
  // Capture-once, analyze-many: a recorded trace must produce the same
  // ranging estimates on every replay (bitwise identical inputs).
  const channel::Environment env = channel::make_dock();
  const phy::PreambleConfig pc;
  const phy::OfdmPreamble preamble(pc);
  const phy::PreambleRanger ranger(preamble);
  const channel::LinkSimulator link(env, pc.fs_hz);
  channel::LinkConfig cfg;
  cfg.tx_pos = {0, 0, 2.5};
  cfg.rx_pos = {12, 0, 2.5};
  uwp::Rng rng(11);
  const ReceptionTrace trace =
      record_link_trace(link, cfg, preamble.waveform(), 3, rng);

  std::stringstream buf;
  write_trace(buf, trace);
  const ReceptionTrace replay = read_trace(buf);

  int detections = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto a = ranger.estimate(trace.receptions[i]);
    const auto b = ranger.estimate(replay.receptions[i]);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      ++detections;
      EXPECT_DOUBLE_EQ(a->arrival_index, b->arrival_index);
    }
  }
  EXPECT_GE(detections, 2);
}

TEST(PacketTraceCsv, RowsCarryRoundTagAndKindNames) {
  PacketTrace trace;
  trace.round = 3;
  trace.add(0.0, 0, 0, PacketEventKind::kTxStart, false);
  trace.add(0.01, 0, 1, PacketEventKind::kRxDeliver, false);
  trace.round = 4;
  trace.add(14.2, 2, 1, PacketEventKind::kRxCollision, true);
  trace.add(14.3, 2, 3, PacketEventKind::kRxHalfDuplexDrop, false);
  trace.add(14.4, 2, 4, PacketEventKind::kRxDetectFail, false);

  std::stringstream buf;
  write_packet_trace_csv(buf, trace);
  std::string line;
  std::getline(buf, line);
  EXPECT_EQ(line, "time_s,round,tx,rx,event,collision");
  std::getline(buf, line);
  EXPECT_EQ(line, "0.000000000,3,0,0,tx_start,0");
  std::getline(buf, line);
  EXPECT_EQ(line, "0.010000000,3,0,1,rx_deliver,0");
  std::getline(buf, line);
  EXPECT_EQ(line, "14.200000000,4,2,1,rx_collision,1");
  std::getline(buf, line);
  EXPECT_EQ(line, "14.300000000,4,2,3,rx_half_duplex_drop,0");
  std::getline(buf, line);
  EXPECT_EQ(line, "14.400000000,4,2,4,rx_detect_fail,0");
}

}  // namespace
}  // namespace uwp::sim
