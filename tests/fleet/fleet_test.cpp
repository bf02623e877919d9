#include "fleet/service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "des/scenario.hpp"
#include "des/session_source.hpp"
#include "fleet/recorder.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/collector.hpp"

namespace uwp::fleet {
namespace {

sim::WorkloadParams small_params(std::size_t sessions, std::uint64_t seed) {
  sim::WorkloadParams p;
  p.sessions = sessions;
  p.seed = seed;
  p.min_group_size = 4;
  p.max_group_size = 6;
  p.min_rounds = 2;
  p.max_rounds = 4;
  p.admit_spread_ticks = 3;
  p.include_des = true;
  return p;
}

void put_u64_at(std::string& s, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    s[at + static_cast<std::size_t>(b)] = static_cast<char>((v >> (8 * b)) & 0xffu);
}

void expect_bit_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.localized, b.localized);
  EXPECT_EQ(a.coasts, b.coasts);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i)
    EXPECT_TRUE(a.sessions[i].bit_equal(b.sessions[i])) << "session " << i;
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (std::size_t i = 0; i < a.errors.size(); ++i)
    EXPECT_EQ(a.errors[i], b.errors[i]) << "sample " << i;
  // Bit-identical aggregates follow, but check the headline number anyway.
  EXPECT_EQ(a.summary.mean, b.summary.mean);
  EXPECT_EQ(a.summary.median, b.summary.median);
}

TEST(FleetService, ThousandSessionMixedFleetBitIdenticalAcrossShards) {
  const sim::WorkloadParams params = small_params(1000, 0xAB17u);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);

  // The generator produced a genuinely mixed fleet.
  std::map<sim::GroupScenarioKind, std::size_t> kinds;
  for (const sim::GroupScenario& sc : workload) ++kinds[sc.kind];
  EXPECT_GT(kinds[sim::GroupScenarioKind::kStatic], 0u);
  EXPECT_GT(kinds[sim::GroupScenarioKind::kLawnmower], 0u);
  EXPECT_GT(kinds[sim::GroupScenarioKind::kWaypoint], 0u);
  EXPECT_GT(kinds[sim::GroupScenarioKind::kDropoutChurn], 0u);
  EXPECT_GT(kinds[sim::GroupScenarioKind::kPacketDes], 0u);

  FleetResult reference;
  // 1 shard (serial reference), 4 shards, and one shard per hardware thread.
  for (const std::size_t shards : {1u, 4u, 0u}) {
    FleetOptions fo;
    fo.master_seed = 0x99u;
    fo.shards = shards;
    FleetService service(fo, workload);
    const FleetResult r = service.run();

    ASSERT_EQ(r.sessions.size(), workload.size());
    EXPECT_GT(r.rounds, 0u);
    EXPECT_GT(r.localized, 0u);
    EXPECT_GT(r.coasts, 0u);  // the dropout/churn slice coasted somewhere
    if (shards == 1) {
      reference = r;
      continue;
    }
    expect_bit_identical(reference, r);
  }
}

TEST(FleetService, LifecycleRunsEverySessionToEviction) {
  const sim::WorkloadParams params = small_params(200, 0xCC02u);
  std::vector<sim::GroupScenario> workload = sim::make_workload(params);

  FleetOptions fo;
  fo.master_seed = 3;
  fo.shards = 1;
  FleetService service(fo, workload);
  telemetry::TelemetryOptions topts;
  topts.enabled = true;
  topts.timing = false;
  telemetry::Collector col(topts);
  const FleetResult r = service.run(nullptr, &col);
  const telemetry::TelemetryReport report = col.report();
  const auto total = [&](telemetry::Counter c) {
    return report.totals[static_cast<std::size_t>(c)];
  };

  // Every session was admitted exactly once, evicted exactly once, and ran
  // its whole scheduled lifetime (rounds + coasted rounds).
  std::uint64_t devices = 0;
  for (const sim::GroupScenario& sc : workload) devices += sc.scene.protocol.num_devices;
  EXPECT_EQ(total(telemetry::Counter::kAdmits), workload.size());
  EXPECT_EQ(total(telemetry::Counter::kEvicts), workload.size());
  EXPECT_EQ(total(telemetry::Counter::kAdmitDevices), devices);
  EXPECT_EQ(total(telemetry::Counter::kEvictDevices), devices);
  for (std::size_t i = 0; i < workload.size(); ++i)
    EXPECT_EQ(r.sessions[i].rounds + r.sessions[i].coasts,
              workload[i].lifetime_rounds)
        << "session " << i;
  EXPECT_GT(r.localized, r.rounds / 2);  // the service actually localizes
}

TEST(FleetService, LatencyMeasurementCoversEveryRound) {
  const sim::WorkloadParams params = small_params(32, 0x11u);
  FleetOptions fo;
  fo.master_seed = 5;
  fo.shards = 2;
  fo.measure_latency = true;
  FleetService service(fo, sim::make_workload(params));
  const FleetResult r = service.run();
  EXPECT_EQ(r.round_latency_s.size(), r.rounds);
  for (const double l : r.round_latency_s) EXPECT_GE(l, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
}

// Warm-start accounting: every localize attempt is either a hit or a miss,
// the totals are deterministic (identical across shard counts), and a
// steady-state fleet actually warms up (hits dominate once tracks exist).
TEST(FleetService, WarmStartCountersAreDeterministicAndMostlyHits) {
  sim::WorkloadParams params;
  params.sessions = 48;
  params.seed = 0x3A11u;
  params.min_group_size = 4;
  params.max_group_size = 6;
  params.min_rounds = 6;
  params.max_rounds = 10;
  params.include_des = false;
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);

  std::uint64_t ref_hits = 0, ref_misses = 0;
  for (const std::size_t shards : {1u, 3u}) {
    FleetOptions fo;
    fo.master_seed = 0xD1CEu;
    fo.shards = shards;
    FleetService service(fo, workload);
    telemetry::TelemetryOptions topts;
    topts.enabled = true;
    topts.timing = false;
    telemetry::Collector col(topts);
    const FleetResult r = service.run(nullptr, &col);
    const telemetry::TelemetryReport report = col.report();
    const std::uint64_t hits =
        report.totals[static_cast<std::size_t>(telemetry::Counter::kWarmStartHits)];
    const std::uint64_t misses =
        report.totals[static_cast<std::size_t>(telemetry::Counter::kWarmStartMisses)];
    EXPECT_EQ(hits + misses, r.rounds);  // every round localizes exactly once
    EXPECT_GT(hits, misses);  // multi-round sessions warm up after round 1
    if (shards == 1) {
      ref_hits = hits;
      ref_misses = misses;
    } else {
      EXPECT_EQ(hits, ref_hits);
      EXPECT_EQ(misses, ref_misses);
    }
  }
}

TEST(FleetRecordReplay, ReplayReproducesPerSessionMetricsBitForBit) {
  sim::WorkloadParams params = small_params(64, 0x5EEDu);
  params.min_rounds = 3;
  params.max_rounds = 6;
  telemetry::TelemetryOptions tel;
  tel.enabled = true;
  tel.timing = false;
  tel.window = 4.0;

  FleetOptions fo;
  fo.master_seed = 0xCAFEu;
  fo.shards = 3;  // any shard count; the trace is shard-independent
  FleetService service(fo, sim::make_workload(params));

  SessionRecorder recorder(fo.master_seed, params);
  telemetry::Collector live_col(tel);
  const FleetResult live = service.run(&recorder, &live_col);

  // File round trip, then replay from the loaded trace.
  const char* path = "fleet_replay_test.trace";
  recorder.save(path);
  const FleetTrace loaded = load_fleet_trace(path);
  std::remove(path);

  // Serialization is stable: saving the loaded trace reproduces the bytes.
  std::ostringstream first, second;
  write_fleet_trace(first, recorder.trace());
  write_fleet_trace(second, loaded);
  EXPECT_EQ(first.str(), second.str());

  const Replayer replayer(loaded);
  telemetry::Collector replay_col(tel);
  const Replayer::ReplayResult replay = replayer.replay(&replay_col);

  // The recomputed per-round results matched the recorded ones...
  EXPECT_EQ(replay.result_mismatches, 0u);
  // ...and the whole fleet aggregate is bit-identical to the live run.
  expect_bit_identical(live, replay.fleet);

  // The rebuilt counter plane (admits, coasts, evicts, page for page)
  // equals the live one at 3 shards and, like the trace, at 1.
  const telemetry::TelemetryReport replayed = replay_col.report();
  EXPECT_GT(replayed.totals[static_cast<std::size_t>(telemetry::Counter::kAdmits)], 0u);
  EXPECT_TRUE(live_col.report().counters_equal(replayed));
  fo.shards = 1;
  telemetry::Collector serial_col(tel);
  FleetService(fo, service.workload()).run(nullptr, &serial_col);
  EXPECT_TRUE(serial_col.report().counters_equal(replayed));
}

TEST(FleetRecordReplay, CorruptTracesAreRejected) {
  sim::WorkloadParams params = small_params(4, 0x77u);
  params.include_des = false;
  FleetOptions fo;
  fo.master_seed = 1;
  fo.shards = 1;
  FleetService service(fo, sim::make_workload(params));
  SessionRecorder recorder(fo.master_seed, params, service.workload());
  service.run(&recorder);

  std::ostringstream out;
  recorder.write(out);
  const std::string good = out.str();

  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError);
  }
  {
    std::string bad = good;
    bad.resize(bad.size() / 2);  // truncated mid-frame
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError);
  }
  {
    std::string bad = good + "tail";  // trailing junk
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError);
  }
  {
    // Corrupt the v2 header's force_kind byte (magic + version + two u64s +
    // the 7 u64 workload params + include_des) to a value past kPacketDes:
    // must fail decode as WireError, not leak std::invalid_argument from
    // the workload generator at replay time.
    std::string bad = good;
    const std::size_t force_kind_at = 4 + 2 + 8 + 8 + 7 * 8 + 1;
    ASSERT_EQ(static_cast<unsigned char>(bad[force_kind_at]), 0xFFu);  // mixed
    bad[force_kind_at] = 0x20;
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError);
  }
  // Session 0's first event: kind byte at 104 (past the 80-byte header,
  // the session count, id and event count), its dt_s right behind it. A
  // NaN or inf dt_s would poison the tracker on replay.
  const std::size_t event_at = 104;
  ASSERT_TRUE(good[event_at] == static_cast<char>(FrameKind::kCoast) ||
              good[event_at] == static_cast<char>(FrameKind::kMeasurement));
  for (const double dt_s : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    std::string bad = good;
    put_u64_at(bad, event_at + 1, std::bit_cast<std::uint64_t>(dt_s));
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError) << "dt_s " << dt_s;
  }
}

TEST(FleetRecordReplay, ImplausibleCountsFailAsWireErrorNotBadAlloc) {
  sim::WorkloadParams params = small_params(4, 0x42u);
  params.include_des = false;
  FleetOptions fo;
  fo.master_seed = 7;
  fo.shards = 1;
  FleetService service(fo, sim::make_workload(params));
  SessionRecorder recorder(fo.master_seed, params, service.workload());
  service.run(&recorder);

  std::ostringstream out;
  recorder.write(out);
  const std::string good = out.str();

  // Header layout: magic(4) version(2) master_seed(8) digest(8) -> params
  // start at 22 (sessions first), 7 u64s + 2 u8s -> session count at 80,
  // session 0's id at 88 and its event count at 96.
  {
    // A count field that would allocate terabytes must fail the remaining-
    // bytes plausibility check as WireError — resize-then-discover-EOF
    // dies in the allocator (bad_alloc / OOM) instead.
    std::string bad = good;
    put_u64_at(bad, 22, 0x1000000000000ull);  // params.sessions (must match)
    put_u64_at(bad, 80, 0x1000000000000ull);  // session count
    std::istringstream in(bad);
    try {
      read_fleet_trace(in);
      FAIL() << "implausible session count accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("implausible session count"),
                std::string::npos);
    }
  }
  {
    std::string bad = good;
    put_u64_at(bad, 96, 0xFFFFFFFFFFFFFFFFull);  // session 0's event count
    std::istringstream in(bad);
    try {
      read_fleet_trace(in);
      FAIL() << "implausible event count accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("implausible event count"),
                std::string::npos);
    }
  }
  {
    // An event count larger than the bytes left but too small to OOM is
    // caught by the same bound (9 bytes per event minimum).
    std::string bad = good;
    put_u64_at(bad, 96, good.size());
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError);
  }
}

TEST(FleetRecordReplay, TamperedWorkloadHeaderFailsAsWireErrorNotBadAlloc) {
  sim::WorkloadParams params = small_params(1, 0x43u);
  params.include_des = false;
  FleetOptions fo;
  fo.master_seed = 8;
  fo.shards = 1;
  FleetService service(fo, sim::make_workload(params));
  SessionRecorder recorder(fo.master_seed, params, service.workload());
  service.run(&recorder);

  std::ostringstream out;
  recorder.write(out);
  const std::string good = out.str();

  // WorkloadParams start at byte 22: sessions, seed, min/max_group_size,
  // min/max_rounds, admit_spread_ticks. The Replayer regenerates the
  // workload from them before it can check the digest, so each range must
  // be refused at decode — never reach Matrix(n, n) or a signed draw with
  // lo > hi.
  constexpr std::size_t kMinGroup = 38, kMaxGroup = 46, kMinRounds = 54,
                        kMaxRounds = 62, kSpread = 70;
  constexpr std::uint64_t kAboveInt64 = std::uint64_t{1} << 63;
  const std::vector<std::pair<std::size_t, std::uint64_t>> tampered = {
      {kMaxGroup, 100000},          {kMaxGroup, std::uint64_t{1} << 20},
      {kMaxGroup, 65},              {kMaxGroup, 513},
      {kMaxGroup, kAboveInt64},
      {kMaxGroup, 3},               {kMinGroup, 3},
      {kMinRounds, 0},              {kMaxRounds, 1},
      {kMaxRounds, kAboveInt64},    {kSpread, kAboveInt64},
      {kSpread, ~std::uint64_t{0}},
  };
  for (const auto& [at, value] : tampered) {
    std::string bad = good;
    put_u64_at(bad, at, value);
    std::istringstream in(bad);
    EXPECT_THROW(read_fleet_trace(in), WireError) << "offset " << at << " = " << value;
  }

  // An in-memory trace skips the decoder; the Replayer applies the same
  // bounds, and the generator itself refuses them too.
  FleetTrace bad = recorder.trace();
  bad.workload.max_group_size = std::size_t{1} << 20;
  EXPECT_THROW(Replayer(std::move(bad)), WireError);
  for (const std::size_t devices : {std::size_t{65}, std::size_t{513}}) {
    sim::WorkloadParams wide = params;
    wide.max_group_size = devices;
    EXPECT_THROW(sim::make_group_scenario(wide, 0), std::invalid_argument);
  }
  sim::WorkloadParams spread = params;
  spread.admit_spread_ticks = kAboveInt64;
  EXPECT_THROW(sim::make_group_scenario(spread, 0), std::invalid_argument);
}

TEST(FleetRecordReplay, WorkloadVersionSkewIsRejectedWithAClearError) {
  sim::WorkloadParams params = small_params(6, 0x99u);
  params.include_des = false;
  FleetOptions fo;
  fo.master_seed = 4;
  fo.shards = 1;
  FleetService service(fo, sim::make_workload(params));
  // params-only ctor: regenerates the workload itself to pin the digest
  SessionRecorder recorder(fo.master_seed, params);
  service.run(&recorder);

  // The digest survives the file round trip and a faithful trace replays.
  std::ostringstream out;
  recorder.write(out);
  std::istringstream in(out.str());
  const FleetTrace loaded = read_fleet_trace(in);
  EXPECT_EQ(loaded.workload_digest, recorder.trace().workload_digest);
  EXPECT_NO_THROW({ Replayer ok(loaded); });

  {
    // A tampered digest field is refused outright.
    FleetTrace bad = recorder.trace();
    bad.workload_digest ^= 1;
    EXPECT_THROW(Replayer(std::move(bad)), WireError);
  }
  {
    // The version-skew case proper: the header's parameters regenerate a
    // *different* workload than the one recorded (here simulated by editing
    // the seed; a changed generator behaves identically). Must not replay.
    FleetTrace bad = recorder.trace();
    bad.workload.seed += 1;
    try {
      Replayer replayer(std::move(bad));
      FAIL() << "skewed workload accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("digest mismatch"), std::string::npos);
    }
  }
}

TEST(FleetRecordReplay, MismatchedDeviceCountFrameIsRejectedNotReadOutOfBounds) {
  sim::WorkloadParams params = small_params(4, 0x88u);
  params.include_des = false;  // groups of 4-6 devices
  FleetOptions fo;
  fo.master_seed = 2;
  fo.shards = 1;
  FleetService service(fo, sim::make_workload(params));
  SessionRecorder recorder(fo.master_seed, params, service.workload());
  service.run(&recorder);

  // Swap session 0's first measurement for a *well-formed* frame of a
  // smaller group: internally consistent, so decode succeeds — the replayer
  // must still refuse to push it through a pipeline sized for more devices.
  pipeline::RoundMeasurement tiny;
  tiny.protocol.timestamps.assign(2, 2);
  tiny.protocol.heard.assign(2, 2);
  tiny.protocol.sync_ref.assign(2, 0);
  tiny.protocol.tx_global.assign(2, 0.0);
  tiny.depths.assign(2, 1.0);
  tiny.truth_pos.resize(2);
  tiny.truth_xy.resize(2);
  tiny.truth_depths.assign(2, 1.0);

  FleetTrace trace = recorder.trace();
  for (TraceEvent& ev : trace.sessions[0].events) {
    if (ev.kind != FrameKind::kMeasurement) continue;
    ev.payload.clear();
    encode_measurement(tiny, ev.payload);
    break;
  }
  EXPECT_THROW(Replayer(trace).replay(), WireError);
}

// The persistent packet-level session source must be the DES scenario driver
// bit for bit: same event order, same rng draws, same timestamp tables.
TEST(DesSessionSource, MatchesDesScenarioBitForBit) {
  const std::size_t n = 6;
  const std::size_t rounds = 4;

  des::DesScenarioConfig cfg;
  cfg.protocol.num_devices = n;
  cfg.rounds = rounds;
  cfg.arrival.detection_failure_prob = 0.02;

  std::vector<Vec3> origins;
  for (std::size_t i = 0; i < n; ++i)
    origins.push_back({3.0 * static_cast<double>(i), 2.0 * static_cast<double>(i % 3),
                       1.0 + 0.5 * static_cast<double>(i)});
  auto mobility = std::make_shared<des::StaticMobility>(origins);

  std::vector<audio::AudioTimingConfig> audio(n);
  for (std::size_t i = 0; i < n; ++i) {
    audio[i].speaker_start_s = 0.1 * static_cast<double>(i);
    audio[i].mic_start_s = 0.05 + 0.07 * static_cast<double>(i);
  }
  Matrix conn(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) conn(i, i) = 0.0;

  const des::DesScenario scenario(cfg, mobility, audio, conn);
  uwp::Rng rng_scenario(5);
  const des::DesScenarioResult ref = scenario.run(rng_scenario);

  // Drive a DesSessionSource through the shared pipeline exactly the way
  // DesScenario::run does, from an identical rng.
  des::DesSessionSource source(cfg, mobility, audio, conn);
  EXPECT_EQ(source.round_period_s(), scenario.round_period_s());

  pipeline::PipelineOptions popts;
  popts.protocol = cfg.protocol;
  popts.quantize_payload = cfg.quantize_payload;
  popts.sound_speed_error_mps = cfg.sound_speed_error_mps;
  popts.localizer = cfg.localizer;
  popts.track = true;
  popts.tracker = cfg.tracker;
  pipeline::RoundPipeline pipe(popts);

  uwp::Rng rng(5);
  pipeline::RoundMeasurement meas;
  std::vector<double> errors;
  for (std::size_t r = 0; r < rounds; ++r) {
    source.measure(meas, rng);
    const pipeline::RoundOutput& out =
        pipe.run_round(meas, rng, r == 0 ? 0.0 : source.round_period_s());
    for (std::size_t i = 1; i < n; ++i)
      if (!std::isnan(out.error_2d[i])) errors.push_back(out.error_2d[i]);
  }
  EXPECT_EQ(source.rounds_run(), rounds);

  ASSERT_EQ(errors.size(), ref.errors.size());
  for (std::size_t i = 0; i < errors.size(); ++i)
    EXPECT_EQ(errors[i], ref.errors[i]) << "error " << i;
}

}  // namespace
}  // namespace uwp::fleet
