#include "fleet/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fleet/session.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/fleet_workload.hpp"
#include "util/random.hpp"

namespace uwp::fleet {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A fully populated measurement with the awkward values the wire must carry
// exactly: NaN timestamp/tx sentinels, SIZE_MAX sync refs, negative deltas,
// denormal-ish magnitudes.
pipeline::RoundMeasurement make_measurement(std::size_t n, uwp::Rng& rng) {
  pipeline::RoundMeasurement m;
  m.protocol.timestamps.assign(n, n);
  m.protocol.heard.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool heard = rng.bernoulli(0.8);
      m.protocol.heard(i, j) = heard ? 1.0 : 0.0;
      m.protocol.timestamps(i, j) = heard ? rng.normal(1.0, 3.0) : kNaN;
    }
  }
  m.protocol.sync_ref.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    m.protocol.sync_ref[i] = rng.bernoulli(0.2) ? std::numeric_limits<std::size_t>::max()
                                                : static_cast<std::size_t>(rng.uniform_int(
                                                      0, static_cast<std::int64_t>(n) - 1));
  m.protocol.tx_global.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    m.protocol.tx_global[i] = rng.bernoulli(0.1) ? kNaN : rng.uniform(-2.0, 8.0);
  m.protocol.round_duration_s = rng.uniform(0.0, 10.0);

  m.depths.resize(n);
  for (double& d : m.depths) d = rng.uniform(0.0, 50.0);
  m.pointing_bearing_rad = rng.uniform(-3.2, 3.2);

  m.votes.clear();
  for (std::size_t i = 2; i < n; ++i)
    if (rng.bernoulli(0.7))
      m.votes.push_back({i, static_cast<int>(rng.uniform_int(-1, 1))});

  m.truth_pos.resize(n);
  m.truth_xy.resize(n);
  m.truth_depths.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.truth_pos[i] = {rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 10)};
    m.truth_xy[i] = m.truth_pos[i].xy();
    m.truth_depths[i] = m.truth_pos[i].z;
  }
  return m;
}

TEST(WireCodec, MeasurementRoundTripExactEveryField) {
  uwp::Rng rng(42);
  const pipeline::RoundMeasurement m = make_measurement(6, rng);

  std::vector<std::uint8_t> bytes;
  encode_measurement(m, bytes);
  EXPECT_EQ(peek_record_kind(bytes, 0), RecordKind::kMeasurement);

  pipeline::RoundMeasurement back;
  std::size_t pos = 0;
  decode_measurement(bytes, pos, back);
  EXPECT_EQ(pos, bytes.size());
  EXPECT_TRUE(bit_equal(m, back));

  // Field-level spot checks on top of the bit_equal sweep, so a failure
  // names the field.
  EXPECT_EQ(back.protocol.sync_ref, m.protocol.sync_ref);
  EXPECT_EQ(back.depths.size(), m.depths.size());
  for (std::size_t i = 0; i < m.depths.size(); ++i)
    EXPECT_EQ(back.depths[i], m.depths[i]);
  EXPECT_EQ(back.pointing_bearing_rad, m.pointing_bearing_rad);
  ASSERT_EQ(back.votes.size(), m.votes.size());
  for (std::size_t i = 0; i < m.votes.size(); ++i) {
    EXPECT_EQ(back.votes[i].node, m.votes[i].node);
    EXPECT_EQ(back.votes[i].mic_sign, m.votes[i].mic_sign);
  }
  // NaNs survive bit-for-bit.
  for (std::size_t i = 0; i < m.protocol.tx_global.size(); ++i)
    EXPECT_EQ(std::isnan(back.protocol.tx_global[i]),
              std::isnan(m.protocol.tx_global[i]));

  // Re-encoding the decoded value reproduces the byte stream exactly.
  std::vector<std::uint8_t> bytes2;
  encode_measurement(back, bytes2);
  EXPECT_EQ(bytes, bytes2);
}

// A NaN timestamp decoded off the wire on a heard, leader-synced link is a
// missing measurement to a session's round chain: payload quantization
// neither quantizes nor casts it, and the round equals the one where that
// slot was never heard.
TEST(WireCodec, NaNTimestampOnAHeardLinkRunsAsMissing) {
  sim::WorkloadParams params;
  params.force_kind = static_cast<int>(sim::GroupScenarioKind::kStatic);
  const sim::GroupScenario sc = sim::make_group_scenario(params, 0);
  pipeline::FastMeasurementModel model(sc.scene, sc.arrival);
  pipeline::RoundMeasurement m;
  uwp::Rng rng(3);
  model.measure(m, rng);
  ASSERT_GT(m.protocol.heard(2, 3), 0.0);
  ASSERT_EQ(m.protocol.sync_ref[3], 0u);

  pipeline::RoundMeasurement unheard = m;
  unheard.protocol.heard(2, 3) = 0.0;
  m.protocol.timestamps(2, 3) = kNaN;
  std::vector<std::uint8_t> bytes;
  encode_measurement(m, bytes);
  pipeline::RoundMeasurement back;
  std::size_t pos = 0;
  decode_measurement(bytes, pos, back);

  const pipeline::PipelineOptions opts = pipeline_options_for(sc);
  const auto run = [&opts](pipeline::RoundMeasurement& in) {
    pipeline::RoundPipeline pipe(opts);
    uwp::Rng solve_rng(9);
    const pipeline::RoundOutput& out = pipe.run_round(in, solve_rng);
    return RoundRecord{0, out.localized, out.localization.normalized_stress,
                       out.error_2d, out.tracked_error_2d};
  };
  const RoundRecord got = run(back);
  EXPECT_TRUE(got.localized);
  EXPECT_TRUE(bit_equal(got, run(unheard)));
}

TEST(WireCodec, DecodedBuffersAreReusedAcrossSizes) {
  uwp::Rng rng(7);
  pipeline::RoundMeasurement out;
  for (const std::size_t n : {8u, 3u, 5u}) {
    const pipeline::RoundMeasurement m = make_measurement(n, rng);
    std::vector<std::uint8_t> bytes;
    encode_measurement(m, bytes);
    std::size_t pos = 0;
    decode_measurement(bytes, pos, out);  // same `out` every iteration
    EXPECT_TRUE(bit_equal(m, out)) << "n=" << n;
  }
}

TEST(WireCodec, RoundRecordRoundTrip) {
  RoundRecord r;
  r.round = 17;
  r.localized = true;
  r.normalized_stress = 0.12345;
  r.error_2d = {0.0, 1.5, kNaN, 2.25};
  r.tracked_error_2d = {kNaN, 0.5, 0.75, kNaN};

  std::vector<std::uint8_t> bytes;
  encode_round_record(r, bytes);
  EXPECT_EQ(peek_record_kind(bytes, 0), RecordKind::kRoundRecord);

  RoundRecord back;
  std::size_t pos = 0;
  decode_round_record(bytes, pos, back);
  EXPECT_EQ(pos, bytes.size());
  EXPECT_TRUE(bit_equal(r, back));

  // Empty tracked vector (tracking off) round-trips too.
  r.tracked_error_2d.clear();
  bytes.clear();
  encode_round_record(r, bytes);
  pos = 0;
  decode_round_record(bytes, pos, back);
  EXPECT_TRUE(bit_equal(r, back));
}

TEST(WireCodec, EncodeRejectsUnencodableValues) {
  uwp::Rng rng(3);
  std::vector<std::uint8_t> bytes;

  pipeline::RoundMeasurement m = make_measurement(4, rng);
  m.depths.resize(3);  // inconsistent with n
  EXPECT_THROW(encode_measurement(m, bytes), std::invalid_argument);

  m = make_measurement(4, rng);
  m.protocol.heard(1, 2) = 0.5;  // not an indicator
  EXPECT_THROW(encode_measurement(m, bytes), std::invalid_argument);

  m = make_measurement(4, rng);
  m.votes = {{2, 3}};  // sign outside {-1, 0, +1}
  EXPECT_THROW(encode_measurement(m, bytes), std::invalid_argument);

  m = make_measurement(4, rng);
  m.votes = {{9, 1}};  // node outside the group
  EXPECT_THROW(encode_measurement(m, bytes), std::invalid_argument);
}

TEST(WireCodec, MalformedHeadersAreRejected) {
  uwp::Rng rng(11);
  std::vector<std::uint8_t> bytes;
  encode_measurement(make_measurement(4, rng), bytes);
  pipeline::RoundMeasurement out;
  std::size_t pos = 0;

  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;  // magic
    pos = 0;
    EXPECT_THROW(decode_measurement(bad, pos, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 99;  // version
    pos = 0;
    EXPECT_THROW(decode_measurement(bad, pos, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[6] = 0x7f;  // record kind
    pos = 0;
    EXPECT_THROW(decode_measurement(bad, pos, out), WireError);
  }
  {
    // A round record where a measurement is expected (and vice versa).
    std::vector<std::uint8_t> rec;
    encode_round_record(RoundRecord{}, rec);
    pos = 0;
    EXPECT_THROW(decode_measurement(rec, pos, out), WireError);
    RoundRecord rr;
    pos = 0;
    EXPECT_THROW(decode_round_record(bytes, pos, rr), WireError);
  }
  for (const std::uint32_t devices : {65u, 513u, 1u << 20, 0xffffffffu}) {
    // A device count past the cap must be rejected before sizing any
    // allocation, not as a truncated record.
    std::vector<std::uint8_t> bad(bytes.begin(), bytes.begin() + 7);
    put_u32(bad, devices);
    pos = 0;
    try {
      decode_measurement(bad, pos, out);
      ADD_FAILURE() << "decoded " << devices << " devices";
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), "wire: device count out of range") << devices;
    }
  }
}

TEST(WireCodec, DeviceCapRoundTripsAndOneMoreIsRejected) {
  uwp::Rng rng(12);
  const pipeline::RoundMeasurement m = make_measurement(kMaxWireDevices, rng);
  std::vector<std::uint8_t> bytes;
  encode_measurement(m, bytes);
  pipeline::RoundMeasurement back;
  std::size_t pos = 0;
  decode_measurement(bytes, pos, back);
  EXPECT_EQ(pos, bytes.size());
  EXPECT_TRUE(bit_equal(m, back));
  EXPECT_THROW(encode_measurement(make_measurement(kMaxWireDevices + 1, rng), bytes),
               std::invalid_argument);
}

TEST(WireCodec, EveryTruncationThrowsInsteadOfCrashing) {
  uwp::Rng rng(13);
  std::vector<std::uint8_t> bytes;
  encode_measurement(make_measurement(5, rng), bytes);

  pipeline::RoundMeasurement out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    std::size_t pos = 0;
    EXPECT_THROW(decode_measurement(cut, pos, out), WireError) << "len=" << len;
  }
}

TEST(WireCodec, FuzzRoundTripAndMutationSafety) {
  // Deterministically seeded randomized sweep: round trips must be exact for
  // arbitrary well-formed measurements, and random single-byte corruption
  // must never crash — it either still parses or throws WireError.
  uwp::Rng rng(0xF022);
  std::size_t parsed_after_mutation = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    const pipeline::RoundMeasurement m = make_measurement(n, rng);

    std::vector<std::uint8_t> bytes;
    encode_measurement(m, bytes);
    pipeline::RoundMeasurement back;
    std::size_t pos = 0;
    decode_measurement(bytes, pos, back);
    ASSERT_TRUE(bit_equal(m, back)) << "iter " << iter;
    std::vector<std::uint8_t> again;
    encode_measurement(back, again);
    ASSERT_EQ(bytes, again) << "iter " << iter;

    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    try {
      pos = 0;
      decode_measurement(mutated, pos, back);
      ++parsed_after_mutation;  // e.g. a flipped double payload bit: fine
    } catch (const WireError&) {
      // equally fine
    }
  }
  // Most mutations land in f64 payload bytes and still parse; the point is
  // that none of the 200 crashed or threw anything but WireError.
  EXPECT_GT(parsed_after_mutation, 0u);
}

}  // namespace
}  // namespace uwp::fleet
