// The control plane's contract (src/control/README.md): every decision is a
// pure function of (window index, counter snapshot, config); the ControlLog
// is byte-identical at any shard/worker count; every fleet-side knob is
// result-neutral; and a recorded run's log re-derives exactly from the
// counter plane a Replayer rebuilds.
#include "control/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "control/log.hpp"
#include "control/policies.hpp"
#include "fleet/recorder.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/collector.hpp"

namespace uwp::control {
namespace {

using telemetry::Counter;

telemetry::Snapshot snap_with(
    std::uint64_t window,
    std::initializer_list<std::pair<Counter, std::uint64_t>> vals) {
  telemetry::Snapshot s;
  s.window = window;
  for (const auto& [c, v] : vals) s.counts[static_cast<std::size_t>(c)] = v;
  return s;
}

// --- log codec --------------------------------------------------------------

TEST(ControlLog, CodecRoundTripsBitExactly) {
  ControlLog log;
  log.windows_observed = 7;
  log.actions.push_back({2, ActionKind::kArenaRetain, 16.0});
  log.actions.push_back({3, ActionKind::kShaperRate, 6.25});
  log.actions.push_back({3, ActionKind::kShaperBurst, 10.0});
  log.actions.push_back({5, ActionKind::kShaperMaxDefers, 4.0});
  // A value whose bit pattern must survive exactly.
  log.actions.push_back({6, ActionKind::kShaperRate, 0.1 + 0.2});

  std::stringstream ss;
  write_control_log(ss, log);
  const ControlLog back = read_control_log(ss);
  EXPECT_TRUE(bit_equal(log, back));
  EXPECT_EQ(control_log_digest(log), control_log_digest(back));
}

TEST(ControlLog, ReaderRejectsCorruption) {
  ControlLog log;
  log.windows_observed = 1;
  log.actions.push_back({0, ActionKind::kArenaRetain, 8.0});
  std::stringstream ss;
  write_control_log(ss, log);
  std::string bytes = ss.str();

  {
    std::string bad = bytes;
    bad[0] ^= 0xFF;  // magic
    std::stringstream in(bad);
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
  {
    std::stringstream in(bytes.substr(0, bytes.size() - 3));  // truncated
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
  {
    std::stringstream in(bytes + "x");  // trailing bytes
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
  {
    // Action count spliced to 2^60: rejected before any allocation sized by
    // it (header = u32 magic + u16 version + u64 windows, then the count).
    std::string bad = bytes;
    const std::uint64_t huge = std::uint64_t{1} << 60;
    for (int i = 0; i < 8; ++i)
      bad[14 + i] = static_cast<char>((huge >> (8 * i)) & 0xFFu);
    std::stringstream in(bad);
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
  {
    // A version-1 log (pre-renumbering action kinds) is refused.
    std::string old = bytes;
    old[4] = 1;
    old[5] = 0;
    std::stringstream in(old);
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
}

// --- policy folds -----------------------------------------------------------

TEST(Policies, ArenaTunerStormsAndDecays) {
  ControlConfig cfg;
  ArenaTunerPolicy tuner(cfg);
  ShardControls c;

  // Storm: retention jumps to the base, then doubles, capped at retain_max.
  tuner.observe(0, snap_with(0, {{Counter::kEvicts, cfg.evict_storm}}), c);
  EXPECT_EQ(c.arena_retain, 2 * cfg.retain_base);
  for (int i = 0; i < 10; ++i)
    tuner.observe(1 + i, snap_with(1 + i, {{Counter::kEvicts, cfg.evict_storm}}), c);
  EXPECT_EQ(c.arena_retain, cfg.retain_max);

  // Idle windows decay retention back toward the base, never below it.
  for (int i = 0; i < 10; ++i) tuner.observe(20 + i, snap_with(20 + i, {}), c);
  EXPECT_EQ(c.arena_retain, cfg.retain_base);
}

TEST(Policies, ShaperTunerOpensUnderShedPressureAndRelaxes) {
  ControlConfig cfg;
  ShardControls base;
  base.shaper_rate = 4.0;
  base.shaper_burst = 8.0;
  base.shaper_max_defers = 8;
  ShaperTunerPolicy tuner(cfg, base);
  ShardControls c = base;

  // Sheds while workers kept up: the bucket is the bottleneck.
  tuner.observe(0,
                snap_with(0, {{Counter::kIngestShed, 5},
                              {Counter::kIngestAdmitted, 10},
                              {Counter::kRounds, 10}}),
                c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, 4.0 * cfg.rate_step);
  EXPECT_DOUBLE_EQ(c.shaper_burst, 10.0);
  EXPECT_EQ(c.shaper_max_defers, 10u);

  // Quiet windows step back to (never past) the baseline.
  for (int i = 0; i < 16; ++i) tuner.observe(1 + i, snap_with(1 + i, {}), c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, base.shaper_rate);
  EXPECT_DOUBLE_EQ(c.shaper_burst, base.shaper_burst);
  EXPECT_EQ(c.shaper_max_defers, base.shaper_max_defers);

  // Disabled baseline: inert no matter the counters.
  ShardControls off;
  ShaperTunerPolicy inert(cfg, off);
  ShardControls c2 = off;
  inert.observe(0, snap_with(0, {{Counter::kIngestShed, 100}}), c2);
  EXPECT_TRUE(bit_equal(c2, off));
}

// --- engine -----------------------------------------------------------------

TEST(ControlEngine, FoldIsPureAndMasksItsOwnCounters) {
  ControlConfig cfg;
  cfg.enabled = true;
  const ShardControls base;

  std::vector<telemetry::Snapshot> snaps;
  snaps.push_back(snap_with(0, {{Counter::kEvicts, 8}, {Counter::kAdmits, 8},
                                {Counter::kAdmitDevices, 40},
                                {Counter::kEvictDevices, 39}}));
  snaps.push_back(snap_with(1, {{Counter::kRounds, 4},
                                {Counter::kSolverIterations, 4000}}));
  snaps.push_back(snap_with(2, {}));

  const ControlLog a = ControlEngine::reexecute(cfg, base, snaps);
  const ControlLog b = ControlEngine::reexecute(cfg, base, snaps);
  EXPECT_TRUE(bit_equal(a, b));
  EXPECT_EQ(a.windows_observed, 3u);
  EXPECT_FALSE(a.actions.empty());

  // The engine's own emissions must not feed back into decisions: spiking
  // the control counters in the input changes nothing.
  std::vector<telemetry::Snapshot> spiked = snaps;
  for (telemetry::Snapshot& s : spiked) {
    s.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 999;
    s.counts[static_cast<std::size_t>(Counter::kControlActions)] = 999;
  }
  EXPECT_TRUE(bit_equal(a, ControlEngine::reexecute(cfg, base, spiked)));
}

// --- fleet integration ------------------------------------------------------

sim::WorkloadParams churn_params(std::size_t sessions) {
  sim::WorkloadParams p;
  p.sessions = sessions;
  p.seed = 0xC0117301u;
  p.min_group_size = 4;
  p.max_group_size = 6;
  p.min_rounds = 2;
  p.max_rounds = 4;
  p.admit_spread_ticks = 4;
  p.include_des = false;
  return p;
}

telemetry::TelemetryOptions fleet_tel_options(double window) {
  telemetry::TelemetryOptions t;
  t.enabled = true;
  t.timing = false;
  t.window = window;
  return t;
}

void expect_fleet_bits(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i)
    EXPECT_TRUE(a.sessions[i].bit_equal(b.sessions[i])) << "session " << i;
}

TEST(ControlFleet, ResultNeutralAndShardCountInvariant) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.window_ticks = 4;
  const ShardControls base;
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(churn_params(24));

  fleet::FleetOptions opts;
  opts.shards = 1;
  const fleet::FleetService serial(opts, workload);
  const fleet::FleetResult plain = serial.run();

  telemetry::Collector col1(fleet_tel_options(4.0));
  ControlEngine e1(cfg, base);
  const fleet::FleetResult controlled1 = serial.run(nullptr, &col1, &e1);

  opts.shards = 4;
  const fleet::FleetService sharded(opts, workload);
  telemetry::Collector col4(fleet_tel_options(4.0));
  ControlEngine e4(cfg, base);
  const fleet::FleetResult controlled4 = sharded.run(nullptr, &col4, &e4);

  // Result-neutral: the controlled runs produce the uncontrolled bits.
  expect_fleet_bits(plain, controlled1);
  expect_fleet_bits(plain, controlled4);

  // The log is shard-count invariant, bit for bit, and covers every window
  // of the workload's timeline.
  EXPECT_TRUE(bit_equal(e1.log(), e4.log()));
  EXPECT_EQ(control_log_digest(e1.log()), control_log_digest(e4.log()));
  const std::size_t ticks = serial.ticks();
  EXPECT_EQ(e1.log().windows_observed, (ticks + 3) / 4);

  // The engine stream emitted its bookkeeping counters.
  const telemetry::TelemetryReport rep = col1.report();
  EXPECT_EQ(rep.totals[static_cast<std::size_t>(Counter::kControlWindows)],
            e1.log().windows_observed);
}

TEST(ControlFleet, ReplayReexecutesTheLogExactly) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.window_ticks = 4;
  const ShardControls base;
  const sim::WorkloadParams params = churn_params(16);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);

  fleet::FleetOptions opts;
  opts.shards = 3;
  const fleet::FleetService service(opts, workload);
  fleet::SessionRecorder recorder(opts.master_seed, params, workload);
  telemetry::Collector col(fleet_tel_options(4.0));
  ControlEngine engine(cfg, base);
  const fleet::FleetResult live = service.run(&recorder, &col, &engine);
  ASSERT_FALSE(engine.log().actions.empty());

  // Round-trip the trace through the codec, then replay with a fresh
  // collector: the rebuilt counter plane must re-derive the live log.
  std::stringstream ss;
  recorder.write(ss);
  const fleet::Replayer replayer(fleet::read_fleet_trace(ss));
  telemetry::Collector replay_col(fleet_tel_options(4.0));
  const fleet::Replayer::ReplayResult replayed =
      replayer.replay(&replay_col, &cfg, &base);

  EXPECT_EQ(replayed.result_mismatches, 0u);
  expect_fleet_bits(live, replayed.fleet);
  EXPECT_TRUE(bit_equal(engine.log(), replayed.control_log));
}

// --- serve integration ------------------------------------------------------

fleet::ServerResult serve_controlled(const std::vector<sim::GroupScenario>& workload,
                                     fleet::ServerOptions opts,
                                     telemetry::Collector& col,
                                     ControlEngine& engine) {
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { fleet::feed_workload(transport, workload, opts.master_seed, {}); });
  fleet::ServerResult res;
  try {
    res = server.serve(transport, nullptr, &col, &engine);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return res;
}

TEST(ControlServe, LogAndResultWorkerCountInvariantUnderShaping) {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.window_ticks = 4;  // collector window below must match
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(churn_params(16));

  fleet::ServerOptions opts;
  opts.shaping.policy = fleet::AdmissionPolicy::kDefer;
  opts.shaping.ingest_shards = 1;  // one bucket for the whole fleet: overload
  opts.shaping.rate_rounds_per_s = 1.0;
  opts.shaping.burst_rounds = 2.0;
  opts.shaping.queue_depth = 8;
  opts.shaping.drain_rounds_per_s = 4.0;
  opts.shaping.max_defers = 2;

  ShardControls base;
  base.shaper_rate = opts.shaping.rate_rounds_per_s;
  base.shaper_burst = opts.shaping.burst_rounds;
  base.shaper_max_defers = opts.shaping.max_defers;

  opts.workers = 1;
  telemetry::Collector col1(fleet_tel_options(4.0));
  ControlEngine e1(cfg, base);
  const fleet::ServerResult r1 = serve_controlled(workload, opts, col1, e1);

  opts.workers = 3;
  telemetry::Collector col3(fleet_tel_options(4.0));
  ControlEngine e3(cfg, base);
  const fleet::ServerResult r3 = serve_controlled(workload, opts, col3, e3);

  // The control-aware verifier recomputes the schedule (with the log's
  // retunes folded in at the same boundaries) bit for bit.
  EXPECT_EQ(r1.stats.schedule_mismatches, 0u);
  EXPECT_EQ(r3.stats.schedule_mismatches, 0u);

  // Log, schedule, and fleet bits are all worker-count invariant.
  EXPECT_TRUE(bit_equal(e1.log(), e3.log()));
  EXPECT_EQ(r1.schedule_digest, r3.schedule_digest);
  expect_fleet_bits(r1.fleet, r3.fleet);

  // Under this overload the shaper tuner must actually have acted.
  bool retuned = false;
  for (const ControlAction& a : e1.log().actions)
    if (a.kind == ActionKind::kShaperRate) retuned = true;
  EXPECT_TRUE(retuned);
}

}  // namespace
}  // namespace uwp::control
