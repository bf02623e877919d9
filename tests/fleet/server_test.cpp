// fleet::Server: the async ingest path must be concurrency-invariant — the
// same FleetResult bits for any worker count, bit-identical to the
// synchronous FleetService when shaping is off, an ingest schedule that
// recomputes exactly from its recorded arrivals, and traces of served
// (even shaped) runs that replay through the ordinary fleet::Replayer.
#include "fleet/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/recorder.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/collector.hpp"

namespace uwp::fleet {
namespace {

// (t_s, dt_s) pairs no ingest frame may carry: t_s must be finite and
// nonnegative, dt_s finite.
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
const std::vector<std::pair<double, double>> kHostileClocks = {
    {kNan, 0.0}, {kInf, 0.0}, {-kInf, 0.0}, {-0.5, 0.0},
    {0.0, kNan}, {0.0, kInf}, {0.0, -kInf}};

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
}

// One full served run: feeder thread on one side of an in-process ring,
// Server::serve on the other.
ServerResult serve_workload(const std::vector<sim::GroupScenario>& workload,
                            const ServerOptions& opts,
                            SessionRecorder* recorder = nullptr,
                            std::size_t transport_capacity = 64) {
  Server server(opts, workload);
  RingBufferTransport transport(transport_capacity);
  std::thread feeder(
      [&] { feed_workload(transport, workload, opts.master_seed, {}); });
  ServerResult res;
  try {
    res = server.serve(transport, recorder);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return res;
}

// --- ingest frame codec -----------------------------------------------------

TEST(IngestFrameCodec, RoundTripsEveryKind) {
  IngestFrame in;
  in.kind = IngestKind::kMeasurement;
  in.session_id = 77;
  in.round = 3;
  in.t_s = 12.5;
  in.dt_s = 2.0;
  in.payload = {1, 2, 3, 250, 0};

  std::vector<std::uint8_t> bytes;
  encode_ingest_frame(in, bytes);
  IngestFrame out;
  decode_ingest_frame(bytes, out);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.session_id, in.session_id);
  EXPECT_EQ(out.round, in.round);
  EXPECT_EQ(out.t_s, in.t_s);
  EXPECT_EQ(out.dt_s, in.dt_s);
  EXPECT_EQ(out.payload, in.payload);

  for (const IngestKind kind : {IngestKind::kCoast, IngestKind::kBye}) {
    IngestFrame ctl;
    ctl.kind = kind;
    ctl.session_id = 5;
    ctl.t_s = 1.0;
    ctl.dt_s = 2.0;
    encode_ingest_frame(ctl, bytes);
    decode_ingest_frame(bytes, out);
    EXPECT_EQ(out.kind, kind);
    EXPECT_TRUE(out.payload.empty());
  }
}

TEST(IngestFrameCodec, RejectsMalformedFrames) {
  IngestFrame f;
  f.kind = IngestKind::kMeasurement;
  f.payload = {9, 9};
  std::vector<std::uint8_t> good;
  encode_ingest_frame(f, good);

  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;  // magic
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bad, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[4] = 0x7F;  // version
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bad, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[6] = 0x42;  // kind
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bad, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad.resize(bad.size() - 1);  // truncated payload
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bad, out), WireError);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);  // trailing bytes
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bad, out), WireError);
  }
  for (const auto& [t_s, dt_s] : kHostileClocks) {
    IngestFrame coast;
    coast.kind = IngestKind::kCoast;
    coast.t_s = t_s;
    coast.dt_s = dt_s;
    std::vector<std::uint8_t> bytes;
    encode_ingest_frame(coast, bytes);
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bytes, out), WireError)
        << "t_s " << t_s << " dt_s " << dt_s;
  }
  {
    // A control frame must not carry a payload.
    IngestFrame bye;
    bye.kind = IngestKind::kBye;
    bye.payload = {1};
    std::vector<std::uint8_t> bytes;
    encode_ingest_frame(bye, bytes);
    IngestFrame out;
    EXPECT_THROW(decode_ingest_frame(bytes, out), WireError);
  }
}

TEST(RingBufferTransport, FifoOrderAndCloseSemantics) {
  RingBufferTransport t(2);
  EXPECT_TRUE(t.send({1}));
  EXPECT_TRUE(t.send({2}));
  t.close();
  EXPECT_FALSE(t.send({3}));  // closed: refused, not queued

  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(t.recv(frame));  // in-flight frames still drain after close
  EXPECT_EQ(frame, std::vector<std::uint8_t>{1});
  ASSERT_TRUE(t.recv(frame));
  EXPECT_EQ(frame, std::vector<std::uint8_t>{2});
  EXPECT_FALSE(t.recv(frame));  // drained
  EXPECT_EQ(t.frames_sent(), 2u);
}

// --- serving determinism ----------------------------------------------------

TEST(FleetServer, UnshapedServeIsBitIdenticalToFleetService) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(48, 0xF00Du));

  FleetOptions fo;
  fo.master_seed = 0x99u;
  fo.shards = 2;
  FleetService service(fo, workload);
  const FleetResult reference = service.run();

  ServerOptions so;
  so.master_seed = fo.master_seed;
  so.workers = 3;
  so.shaping.policy = AdmissionPolicy::kAdmitAll;
  const ServerResult served = serve_workload(workload, so);

  expect_bit_identical(reference, served.fleet);
  EXPECT_EQ(served.stats.shaper.rounds_shed, 0u);
  EXPECT_EQ(served.stats.schedule_mismatches, 0u);
  EXPECT_GT(served.stats.frames_received, 0u);
}

TEST(FleetServer, BitIdenticalAcrossWorkerCountsUnderShaping) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(48, 0xBEEFu));

  ServerOptions so;
  so.master_seed = 0x77u;
  so.queue_depth = 4;  // small dispatch queues: heavy real backpressure
  so.shaping.policy = AdmissionPolicy::kDefer;
  so.shaping.ingest_shards = 2;
  so.shaping.queue_depth = 8;
  so.shaping.drain_rounds_per_s = 6.0;
  so.shaping.rate_rounds_per_s = 8.0;
  so.shaping.burst_rounds = 4.0;
  so.shaping.max_defers = 3;

  ServerResult reference;
  // Serial, small pool, and one worker per hardware thread.
  for (const std::size_t workers : {1u, 4u, 0u}) {
    so.workers = workers;
    const ServerResult r = serve_workload(workload, so);
    EXPECT_EQ(r.stats.schedule_mismatches, 0u) << workers << " workers";
    if (workers == 1) {
      reference = r;
      // The shaper actually did something on this configuration.
      EXPECT_GT(reference.stats.shaper.defer_events, 0u);
      EXPECT_GT(reference.stats.shaper.rounds_shed, 0u);
      continue;
    }
    expect_bit_identical(reference.fleet, r.fleet);
    EXPECT_EQ(reference.schedule_digest, r.schedule_digest);
    ASSERT_EQ(reference.schedule.size(), r.schedule.size());
    for (std::size_t i = 0; i < r.schedule.size(); ++i)
      EXPECT_TRUE(bit_equal(reference.schedule[i], r.schedule[i])) << "record " << i;
  }
}

TEST(FleetServer, BackpressureShedsDeterministically) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(32, 0xD00Du));

  ServerOptions so;
  so.master_seed = 0x31u;
  so.workers = 2;
  so.shaping.policy = AdmissionPolicy::kDefer;
  so.shaping.max_defers = 0;  // shed on the first failed admission
  so.shaping.ingest_shards = 2;
  so.shaping.queue_depth = 3;  // tiny modeled queue: guaranteed overload
  so.shaping.drain_rounds_per_s = 2.0;

  const ServerResult a = serve_workload(workload, so, nullptr, 8);
  const ServerResult b = serve_workload(workload, so, nullptr, 8);

  // Overload really shed rounds, and every shed is a pure function of the
  // schedule: two runs agree bit for bit.
  EXPECT_GT(a.stats.shaper.rounds_shed, 0u);
  EXPECT_EQ(a.stats.shaper.rounds_shed, b.stats.shaper.rounds_shed);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  expect_bit_identical(a.fleet, b.fleet);
  EXPECT_EQ(a.stats.schedule_mismatches, 0u);

  // Shed rounds became coasts: every session still ran its full lifetime.
  for (std::size_t i = 0; i < workload.size(); ++i)
    EXPECT_EQ(a.fleet.sessions[i].rounds + a.fleet.sessions[i].coasts,
              workload[i].lifetime_rounds)
        << "session " << i;
  EXPECT_LT(a.fleet.rounds, a.stats.shaper.rounds_admitted +
                                a.stats.shaper.rounds_shed + 1);
}

TEST(FleetServer, RecordedServedRunReplaysBitIdentically) {
  const sim::WorkloadParams params = small_params(40, 0x5E17u);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);

  ServerOptions so;
  so.master_seed = 0xCAFEu;
  so.workers = 0;
  so.shaping.policy = AdmissionPolicy::kDefer;
  so.shaping.max_defers = 0;  // shed on the first failed admission
  so.shaping.ingest_shards = 2;
  so.shaping.queue_depth = 6;
  so.shaping.drain_rounds_per_s = 4.0;

  SessionRecorder recorder(so.master_seed, params, workload);
  const ServerResult served = serve_workload(workload, so, &recorder);
  EXPECT_GT(served.stats.shaper.rounds_shed, 0u);  // the trace includes sheds

  // The served trace replays through the ordinary replayer: shed rounds
  // were recorded as coasts, so the trace format needed no extension.
  const Replayer replayer(recorder.trace());
  const Replayer::ReplayResult replay = replayer.replay();
  EXPECT_EQ(replay.result_mismatches, 0u);
  expect_bit_identical(served.fleet, replay.fleet);
}

TEST(FleetServer, ScheduleVerifierCatchesTampering) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(24, 0xAB1Eu));

  ServerOptions so;
  so.master_seed = 0x13u;
  so.workers = 2;
  so.shaping.policy = AdmissionPolicy::kDefer;
  so.shaping.max_defers = 0;  // shed on the first failed admission
  so.shaping.ingest_shards = 2;
  so.shaping.queue_depth = 4;
  so.shaping.drain_rounds_per_s = 3.0;
  const ServerResult res = serve_workload(workload, so);

  // Recorded-vs-recomputed: clean as served...
  EXPECT_EQ(verify_ingest_schedule(res.schedule, so.shaping, workload.size()), 0u);
  ASSERT_GT(res.schedule.size(), 0u);

  {
    // ...but flipping one recorded decision no longer recomputes.
    std::vector<IngestRecord> tampered = res.schedule;
    std::size_t flip = tampered.size();
    for (std::size_t i = 0; i < tampered.size(); ++i) {
      if (tampered[i].kind != IngestKind::kMeasurement) continue;
      flip = i;
      break;
    }
    ASSERT_LT(flip, tampered.size());
    tampered[flip].decision = tampered[flip].decision == IngestDecision::kAdmit
                                  ? IngestDecision::kShed
                                  : IngestDecision::kAdmit;
    EXPECT_GT(verify_ingest_schedule(tampered, so.shaping, workload.size()), 0u);
  }
  {
    // Editing a recorded timestamp desyncs the recomputed record: caught.
    std::vector<IngestRecord> tampered = res.schedule;
    tampered.front().decide_s += 1.0;
    EXPECT_GT(verify_ingest_schedule(tampered, so.shaping, workload.size()), 0u);
  }
  // Different options than the ones that produced the schedule: caught too.
  ShaperOptions other = so.shaping;
  other.drain_rounds_per_s *= 10.0;
  EXPECT_GT(verify_ingest_schedule(res.schedule, other, workload.size()), 0u);
}

// A finite but absurd dt_s passes the frame codec and reaches the tracker.
// It must restart the session's track, not poison it: every localized round
// keeps finite errors, and every round's SMACOF work stays at the level of
// the same round served clean.
TEST(FleetServer, HugeDtFrameDoesNotPoisonTheSession) {
  sim::WorkloadParams params = small_params(1, 0x1E200u);
  params.min_group_size = params.max_group_size = 7;
  params.min_rounds = params.max_rounds = 8;
  params.admit_spread_ticks = 0;
  params.include_des = false;
  params.force_kind = static_cast<int>(sim::GroupScenarioKind::kStatic);
  const std::vector<sim::GroupScenario> workload = sim::make_workload(params);
  const ServerOptions opts;

  // Every frame the feeder sends, in order.
  RingBufferTransport capture(1024);
  feed_workload(capture, workload, opts.master_seed);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::vector<std::uint8_t> bytes; capture.recv(bytes);) frames.push_back(bytes);

  const auto serve_frames = [&](const std::vector<std::vector<std::uint8_t>>& in,
                                FleetResult& fleet) {
    RingBufferTransport transport(in.size());
    for (const std::vector<std::uint8_t>& bytes : in) EXPECT_TRUE(transport.send(bytes));
    transport.close();
    telemetry::TelemetryOptions topts;
    topts.enabled = true;
    topts.timing = false;
    topts.window = 1.0;  // one window per round: the feeder ticks at 1 s
    telemetry::Collector col(topts);
    fleet = Server(opts, workload).serve(transport, nullptr, &col).fleet;
    return col.report();
  };

  std::vector<std::vector<std::uint8_t>> hostile = frames;
  bool tampered = false;
  for (std::vector<std::uint8_t>& bytes : hostile) {
    IngestFrame f;
    decode_ingest_frame(bytes, f);
    if (f.kind != IngestKind::kMeasurement || f.round != 3) continue;
    f.dt_s = 1e200;
    encode_ingest_frame(f, bytes);
    tampered = true;
  }
  ASSERT_TRUE(tampered);

  FleetResult clean_fleet, hostile_fleet;
  const telemetry::TelemetryReport clean = serve_frames(frames, clean_fleet);
  const telemetry::TelemetryReport poisoned = serve_frames(hostile, hostile_fleet);

  const std::size_t n = workload[0].scene.protocol.num_devices;
  const SessionMetrics& s = hostile_fleet.sessions[0];
  EXPECT_EQ(s.rounds, params.max_rounds);
  EXPECT_EQ(s.localized, s.rounds);
  // SessionMetrics keeps only finite errors: n - 1 per localized round.
  EXPECT_EQ(s.errors.size(), s.localized * (n - 1));

  const auto iterations = [](const telemetry::TelemetryReport& r, std::size_t w) {
    return r.snapshots[w].counts[static_cast<std::size_t>(
        telemetry::Counter::kSolverIterations)];
  };
  ASSERT_EQ(poisoned.snapshots.size(), clean.snapshots.size());
  ASSERT_GE(clean.snapshots.size(), params.max_rounds);
  const std::uint64_t cold = iterations(clean, 0);  // round 0 seeds cold
  for (std::size_t w = 0; w < clean.snapshots.size(); ++w)
    EXPECT_LE(iterations(poisoned, w), 2 * std::max(iterations(clean, w), cold))
        << "round " << w;
}

// The queue-depth sample takes the dispatch queue's lock on every frame, so
// only a run that asked for timings records it; turning timing off removes
// it without moving a counter, digest or schedule.
TEST(FleetServer, TimingOffServeRecordsNoQueueDepthSamples) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(24, 0x7D0Fu));
  ServerOptions so;
  so.master_seed = 0x51u;
  so.workers = 2;

  const auto serve_with = [&](bool timing, ServerResult& res) {
    telemetry::TelemetryOptions topts;
    topts.enabled = true;
    topts.timing = timing;
    telemetry::Collector col(topts);
    Server server(so, workload);
    RingBufferTransport transport(64);
    std::thread feeder([&] { feed_workload(transport, workload, so.master_seed, {}); });
    res = server.serve(transport, nullptr, &col);
    feeder.join();
    return col.report();
  };
  ServerResult off_res, on_res;
  const telemetry::TelemetryReport off = serve_with(false, off_res);
  const telemetry::TelemetryReport on = serve_with(true, on_res);

  const auto queue_depth = [](const telemetry::TelemetryReport& r) {
    return r.samples[static_cast<std::size_t>(telemetry::Sample::kQueueDepth)].count();
  };
  EXPECT_EQ(queue_depth(off), 0u);
  // Unshaped: every received frame is dispatched once.
  EXPECT_EQ(queue_depth(on), on_res.stats.frames_received);
  EXPECT_TRUE(off.counters_equal(on));
  expect_bit_identical(off_res.fleet, on_res.fleet);
  EXPECT_EQ(off_res.schedule_digest, on_res.schedule_digest);
}

TEST(FleetServer, RejectsUnknownSessionIdAndMalformedFrames) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(4, 0x21u));

  {
    // A frame addressed past the workload must fail the serve, not index
    // out of bounds.
    Server server({}, workload);
    RingBufferTransport transport(4);
    IngestFrame f;
    f.kind = IngestKind::kCoast;
    f.session_id = workload.size();
    std::vector<std::uint8_t> bytes;
    encode_ingest_frame(f, bytes);
    ASSERT_TRUE(transport.send(std::move(bytes)));
    transport.close();
    EXPECT_THROW(server.serve(transport), WireError);
  }
  {
    // Garbage bytes on the transport fail decode as WireError.
    Server server({}, workload);
    RingBufferTransport transport(4);
    ASSERT_TRUE(transport.send({0xDE, 0xAD, 0xBE, 0xEF}));
    transport.close();
    EXPECT_THROW(server.serve(transport), WireError);
  }
  {
    // A well-formed frame whose payload is a measurement for the wrong
    // group size is rejected by the worker (same guard as the replayer).
    Server server({}, workload);
    RingBufferTransport transport(4);
    pipeline::RoundMeasurement tiny;
    tiny.protocol.timestamps.assign(2, 2);
    tiny.protocol.heard.assign(2, 2);
    tiny.protocol.sync_ref.assign(2, 0);
    tiny.protocol.tx_global.assign(2, 0.0);
    tiny.depths.assign(2, 1.0);
    tiny.truth_pos.resize(2);
    tiny.truth_xy.resize(2);
    tiny.truth_depths.assign(2, 1.0);
    IngestFrame f;
    f.kind = IngestKind::kMeasurement;
    f.session_id = 0;
    encode_measurement(tiny, f.payload);
    std::vector<std::uint8_t> bytes;
    encode_ingest_frame(f, bytes);
    ASSERT_TRUE(transport.send(std::move(bytes)));
    transport.close();
    try {
      server.serve(transport);
      FAIL() << "mismatched device count accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("device count"), std::string::npos);
    }
  }
  {
    // Hostile clocks fail the serve, and so does a t_s running backwards.
    // Telemetry is on, so a bad t_s would otherwise index the counter pages.
    std::vector<std::vector<std::pair<double, double>>> streams = {
        {{2.0, 1.0}, {1.0, 1.0}}};
    for (const std::pair<double, double>& clock : kHostileClocks)
      streams.push_back({clock});
    for (const std::vector<std::pair<double, double>>& clocks : streams) {
      Server server({}, workload);
      RingBufferTransport transport(4);
      for (const auto& [t_s, dt_s] : clocks) {
        IngestFrame f;
        f.kind = IngestKind::kCoast;
        f.session_id = 0;
        f.t_s = t_s;
        f.dt_s = dt_s;
        std::vector<std::uint8_t> bytes;
        encode_ingest_frame(f, bytes);
        ASSERT_TRUE(transport.send(std::move(bytes)));
      }
      transport.close();
      telemetry::TelemetryOptions topts;
      topts.enabled = true;
      topts.timing = false;
      telemetry::Collector col(topts);
      EXPECT_THROW(server.serve(transport, nullptr, &col), WireError)
          << "last t_s " << clocks.back().first << " dt_s " << clocks.back().second;
    }
  }
  // kBye ends a session in every state: any later frame for that id fails
  // the serve instead of rebuilding a runtime (which would wipe the
  // session's recorded trace while its metrics kept accumulating).
  const std::vector<std::vector<IngestKind>> after_bye = {
      {IngestKind::kCoast, IngestKind::kBye, IngestKind::kCoast},
      {IngestKind::kCoast, IngestKind::kBye, IngestKind::kBye},
      {IngestKind::kBye, IngestKind::kCoast}};
  for (const std::vector<IngestKind>& kinds : after_bye) {
    Server server({}, workload);
    RingBufferTransport transport(4);
    for (const IngestKind kind : kinds) {
      IngestFrame f;
      f.kind = kind;
      f.session_id = 0;
      std::vector<std::uint8_t> bytes;
      encode_ingest_frame(f, bytes);
      ASSERT_TRUE(transport.send(std::move(bytes)));
    }
    transport.close();
    try {
      server.serve(transport);
      FAIL() << "frame after kBye accepted (" << kinds.size() << " frames)";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("after its kBye"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace uwp::fleet
