// The control plane's contract (src/control/README.md): every decision is a
// pure function of (window index, counter snapshot, config), and a served
// run's ControlLog is byte-identical at any worker count.
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
#include "fleet/server.hpp"
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
  log.actions.push_back({0, ActionKind::kShaperBurst, 8.0});
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
  for (const char version : {1, 2}) {
    // Logs from before either action-kind renumbering are refused.
    std::string old = bytes;
    old[4] = version;
    old[5] = 0;
    std::stringstream in(old);
    EXPECT_THROW(read_control_log(in), std::runtime_error) << "version " << int(version);
  }
  {
    // An action kind past the last one is refused.
    std::string bad = bytes;
    bad[bytes.size() - 9] = static_cast<char>(kActionKindCount);
    std::stringstream in(bad);
    EXPECT_THROW(read_control_log(in), std::runtime_error);
  }
}

// --- shaper tuner -----------------------------------------------------------

TEST(Policies, ShaperTunerOpensUnderShedPressureAndRelaxes) {
  ControlConfig cfg;
  ShardControls base;
  base.shaper_rate = 4.0;
  base.shaper_burst = 8.0;
  base.shaper_max_defers = 8;
  ShaperTunerPolicy tuner(cfg, base);
  ShardControls c = base;

  // Frames shed: the bucket opens. kIngestAdmitted and kRounds are not
  // inputs (each admitted frame runs its round at the same decide time), so
  // a kRounds short of kIngestAdmitted changes nothing.
  tuner.observe(snap_with(0, {{Counter::kIngestShed, 5},
                              {Counter::kIngestAdmitted, 10},
                              {Counter::kRounds, 3}}),
                c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, 4.0 * cfg.rate_step);
  EXPECT_DOUBLE_EQ(c.shaper_burst, 10.0);
  EXPECT_EQ(c.shaper_max_defers, 10u);

  // Quiet windows step back to (never past) the baseline.
  for (int i = 0; i < 16; ++i) tuner.observe(snap_with(1 + i, {}), c);
  EXPECT_DOUBLE_EQ(c.shaper_rate, base.shaper_rate);
  EXPECT_DOUBLE_EQ(c.shaper_burst, base.shaper_burst);
  EXPECT_EQ(c.shaper_max_defers, base.shaper_max_defers);

  // Disabled baseline: inert no matter the counters.
  ShardControls off;
  ShaperTunerPolicy inert(cfg, off);
  ShardControls c2 = off;
  inert.observe(snap_with(0, {{Counter::kIngestShed, 100}}), c2);
  EXPECT_TRUE(bit_equal(c2, off));
}

// --- engine -----------------------------------------------------------------

// The fold over a snapshot sequence, the way the ingest server drives it.
ControlLog fold(const ShardControls& base,
                const std::vector<telemetry::Snapshot>& snaps) {
  ControlEngine engine(ControlConfig{}, base);
  for (const telemetry::Snapshot& snap : snaps) engine.observe_window(snap.window, snap);
  return engine.log();
}

TEST(ControlEngine, FoldIsPureAndIgnoresItsOwnCounters) {
  ShardControls base;
  base.shaper_rate = 4.0;

  std::vector<telemetry::Snapshot> snaps;
  snaps.push_back(snap_with(0, {{Counter::kIngestShed, 3},
                                {Counter::kIngestAdmitted, 6},
                                {Counter::kRounds, 6}}));
  snaps.push_back(snap_with(1, {{Counter::kRounds, 4},
                                {Counter::kSolverIterations, 4000}}));
  snaps.push_back(snap_with(2, {}));

  const ControlLog a = fold(base, snaps);
  EXPECT_TRUE(bit_equal(a, fold(base, snaps)));
  EXPECT_EQ(a.windows_observed, 3u);
  EXPECT_FALSE(a.actions.empty());

  // The engine's own emissions must not feed back into decisions: the
  // tuner reads only the ingest verdicts, so spiking the control counters
  // in the input changes nothing.
  std::vector<telemetry::Snapshot> spiked = snaps;
  for (telemetry::Snapshot& s : spiked) {
    s.counts[static_cast<std::size_t>(Counter::kControlWindows)] = 999;
    s.counts[static_cast<std::size_t>(Counter::kControlActions)] = 999;
  }
  EXPECT_TRUE(bit_equal(a, fold(base, spiked)));
}

// --- serve integration ------------------------------------------------------

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

telemetry::TelemetryOptions tel_options(double window) {
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
  const ControlConfig cfg;
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
  telemetry::Collector col1(tel_options(4.0));
  ControlEngine e1(cfg, base);
  const fleet::ServerResult r1 = serve_controlled(workload, opts, col1, e1);

  opts.workers = 3;
  telemetry::Collector col3(tel_options(4.0));
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
