// Telemetry plane invariants: histogram bucketing is exact at octave
// boundaries; the deterministic counter plane is bit-identical whatever the
// shard/worker partitioning — the contract uwp_run's "counters" section
// (and CI's cross-thread diff) relies on; the timing plane counts every
// span of a run; trace-span *structure* and the SLO scoreboard share the
// counters' determinism while their wall-clock side stays free; and the
// flight recorder dumps context when its triggers fire.
#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "config/json.hpp"
#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "sim/fleet_workload.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/trace.hpp"

namespace uwp::telemetry {
namespace {

// --- Histogram --------------------------------------------------------------

TEST(Histogram, OctaveBoundariesLandExactly) {
  const Histogram h;  // min 1e-9, 4 buckets per octave
  const int P = h.buckets_per_octave();
  // min * 2^k must land in bucket k*P exactly — frexp-based bucketing, not
  // raw logs, so no off-by-one from libm rounding.
  for (int k = 0; k < 40; ++k) {
    const double v = h.min_value() * std::pow(2.0, k);
    EXPECT_EQ(h.bucket_index(v), static_cast<std::size_t>(k * P)) << "octave " << k;
  }
  // Below-range values clamp into bucket 0; the top clamps to the last.
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(h.min_value() / 2.0), 0u);
  EXPECT_EQ(h.bucket_index(1e300), h.buckets() - 1);
  // A finite value whose ratio to min overflows still lands in the top.
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::max()), h.buckets() - 1);
  Histogram big;
  big.record(std::numeric_limits<double>::max());
  EXPECT_EQ(big.count(), 1u);
  EXPECT_EQ(big.max_seen(), std::numeric_limits<double>::max());
}

TEST(Histogram, BucketLowerEdgesAreMonotonicGeometric) {
  const Histogram h;
  double prev = 0.0;
  for (std::size_t b = 0; b < h.buckets(); ++b) {
    const double edge = h.bucket_lower_edge(b);
    EXPECT_GT(edge, prev);
    EXPECT_EQ(h.bucket_index(edge), b) << "edge of bucket " << b;
    prev = edge;
  }
}

TEST(Histogram, QuantilesTrackRecordedRange) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucket quantiles are approximate (~19%/bucket) but must bracket the
  // true value and stay inside the observed range.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 500e-6 * 0.25);
  EXPECT_NEAR(h.quantile(0.99), 990e-6, 990e-6 * 0.25);
  EXPECT_GE(h.quantile(0.001), h.min_seen());
  EXPECT_LE(h.quantile(1.0), h.max_seen());
}

TEST(Histogram, MergeAddsCountsAndRejectsMismatchedGeometry) {
  Histogram a, b;
  a.record(1e-6);
  b.record(2e-6);
  b.record(4e-3);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 1e-6 + 2e-6 + 4e-3);
  EXPECT_EQ(a.max_seen(), 4e-3);

  Histogram other(1e-9, 8);
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

// --- counter plane determinism ----------------------------------------------

sim::WorkloadParams small_params(std::size_t sessions) {
  sim::WorkloadParams p;
  p.sessions = sessions;
  p.seed = 0xBADCAFEu;
  p.min_group_size = 4;
  p.max_group_size = 6;
  p.min_rounds = 2;
  p.max_rounds = 4;
  p.admit_spread_ticks = 3;
  p.include_des = true;
  return p;
}

TelemetryReport fleet_report(const std::vector<sim::GroupScenario>& workload,
                             std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  return collector.report();
}

TEST(CounterPlane, FleetSnapshotsBitIdenticalAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  const TelemetryReport one = fleet_report(workload, 1);
  const TelemetryReport four = fleet_report(workload, 4);
  const TelemetryReport three = fleet_report(workload, 3);

  EXPECT_TRUE(one.counters_equal(four));
  EXPECT_TRUE(one.counters_equal(three));
  // Sanity: the run did real work and the windows are populated.
  EXPECT_GT(one.totals[static_cast<std::size_t>(Counter::kRounds)], 0u);
  EXPECT_GT(one.totals[static_cast<std::size_t>(Counter::kSolverIterations)], 0u);
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kAdmits)], workload.size());
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kEvicts)], workload.size());
  EXPECT_GT(one.snapshots.size(), 1u);
}

TelemetryReport serve_report(const std::vector<sim::GroupScenario>& workload,
                             std::size_t workers, fleet::ServerOptions opts) {
  opts.workers = workers;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { feed_workload(transport, workload, opts.master_seed, {}); });
  try {
    server.serve(transport, nullptr, &collector);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return collector.report();
}

TEST(CounterPlane, ServeSnapshotsBitIdenticalAcrossWorkerCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;
  // Shaping on, with one partition squeezed well below the ~10 rounds/s the
  // workload offers so defers and sheds actually happen: the ingest verdict
  // counters must be exercised and still be worker-count invariant.
  opts.shaping.policy = fleet::AdmissionPolicy::kDefer;
  opts.shaping.ingest_shards = 1;
  opts.shaping.queue_depth = 4;
  opts.shaping.drain_rounds_per_s = 2.0;
  opts.shaping.rate_rounds_per_s = 2.0;
  opts.shaping.burst_rounds = 1.0;
  opts.shaping.max_defers = 2;

  const TelemetryReport one = serve_report(workload, 1, opts);
  const TelemetryReport four = serve_report(workload, 4, opts);
  EXPECT_TRUE(one.counters_equal(four));
  const std::uint64_t admitted =
      one.totals[static_cast<std::size_t>(Counter::kIngestAdmitted)];
  const std::uint64_t shed =
      one.totals[static_cast<std::size_t>(Counter::kIngestShed)];
  EXPECT_GT(admitted, 0u);
  // Every admitted measurement frame runs exactly one round, counted at the
  // same decide time, so the two counters agree window by window at any
  // worker count. This is why the shaper tuner needs only ingest counters.
  for (const TelemetryReport* rep : {&one, &four})
    for (const Snapshot& snap : rep->snapshots)
      EXPECT_EQ(snap.counts[static_cast<std::size_t>(Counter::kRounds)],
                snap.counts[static_cast<std::size_t>(Counter::kIngestAdmitted)])
          << "window " << snap.window;
  EXPECT_EQ(one.totals[static_cast<std::size_t>(Counter::kRounds)], admitted);
  EXPECT_GT(shed + one.totals[static_cast<std::size_t>(Counter::kIngestDeferred)], 0u);
}

TEST(CounterPlane, UnshapedServeMatchesFleetSharedCounters) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;  // must match fleet_report's seed
  const TelemetryReport served = serve_report(workload, 3, opts);
  const TelemetryReport fleet = fleet_report(workload, 2);
  // The serve path executes the same session timeline, so every counter the
  // two drivers share must agree; only the ingest verdicts are serve-only.
  for (const Counter c :
       {Counter::kRounds, Counter::kLocalized, Counter::kCoasts, Counter::kEvicts,
        Counter::kAdmits, Counter::kSolverIterations}) {
    const std::size_t i = static_cast<std::size_t>(c);
    EXPECT_EQ(served.totals[i], fleet.totals[i]) << to_string(c);
  }
}

TEST(CounterPlane, DisabledTimingKeepsCountersAndSkipsSpans) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(6));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.timing = false;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  TelemetryReport rep = collector.report();

  EXPECT_GT(rep.totals[static_cast<std::size_t>(Counter::kRounds)], 0u);
  for (std::size_t s = 0; s < kStageCount; ++s)
    EXPECT_EQ(rep.spans[s].count(), 0u) << to_string(static_cast<Stage>(s));
  EXPECT_TRUE(rep.counters_equal(fleet_report(workload, 3)));
}

// --- timing plane -----------------------------------------------------------

// Every stream records into its own histograms, so a long run's spans are
// all counted: here one shard emits well over 32,768 events (about ten per
// round), and each round contributes one round span, one localize span and
// two track spans (predict + update).
TEST(TimingPlane, SpanHistogramsCountEveryRound) {
  sim::WorkloadParams p = small_params(500);
  p.min_rounds = 8;
  p.max_rounds = 8;
  p.include_des = false;
  const std::vector<sim::GroupScenario> workload = sim::make_workload(p);
  const TelemetryReport rep = fleet_report(workload, 1);

  const std::uint64_t rounds = rep.totals[static_cast<std::size_t>(Counter::kRounds)];
  ASSERT_GE(rounds, 3500u);
  EXPECT_EQ(rep.spans[static_cast<std::size_t>(Stage::kRound)].count(), rounds);
  EXPECT_EQ(rep.spans[static_cast<std::size_t>(Stage::kLocalize)].count(), rounds);
  EXPECT_EQ(rep.spans[static_cast<std::size_t>(Stage::kTrack)].count(), 2 * rounds);
}

// --- trace plane ------------------------------------------------------------

TEST(TracePlane, IdPackingRoundTrips) {
  const std::uint64_t id = make_trace_id(17, 0);
  EXPECT_NE(id, 0u);  // round 0 is biased away from the "not tracing" id
  EXPECT_EQ(trace_session(id), 17u);
  EXPECT_EQ(trace_round(id), 0u);
  EXPECT_EQ(trace_session(make_trace_id(0, 41)), 0u);
  EXPECT_EQ(trace_round(make_trace_id(0, 41)), 41u);
  EXPECT_NE(make_trace_id(0, 0), 0u);
}

TelemetryReport fleet_trace_report(const std::vector<sim::GroupScenario>& workload,
                                   std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  return collector.report();
}

TEST(TracePlane, FleetStructureDigestInvariantAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(10));
  const TelemetryReport one = fleet_trace_report(workload, 1);
  const TelemetryReport four = fleet_trace_report(workload, 4);
  ASSERT_FALSE(one.trace.empty());
  EXPECT_EQ(one.trace.size(), four.trace.size());
  EXPECT_EQ(trace_structure_digest(one.trace), trace_structure_digest(four.trace));

  // Every executed round has a root span and stage children parented to
  // it; the fleet path adds nothing between the round and its stages.
  std::set<TraceOp> ops;
  for (const TraceSpan& s : one.trace) {
    ops.insert(s.op);
    if (s.op == TraceOp::kRound) {
      EXPECT_EQ(s.parent, TraceOp::kNone);
    } else {
      EXPECT_EQ(s.parent, TraceOp::kRound);
    }
    EXPECT_NE(s.trace_id, 0u);
  }
  EXPECT_TRUE(ops.count(TraceOp::kRound));
  EXPECT_TRUE(ops.count(TraceOp::kLocalize));
  EXPECT_EQ(ops, (std::set<TraceOp>{TraceOp::kRound, TraceOp::kQuantize,
                                    TraceOp::kRanging, TraceOp::kLocalize,
                                    TraceOp::kTrack}));
}

TelemetryReport serve_trace_report(const std::vector<sim::GroupScenario>& workload,
                                   std::size_t workers) {
  fleet::ServerOptions opts;
  opts.master_seed = 0x7E1Eu;
  opts.workers = workers;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.window = 4.0;
  Collector collector(topts);
  fleet::Server server(opts, workload);
  fleet::RingBufferTransport transport(64);
  std::thread feeder(
      [&] { feed_workload(transport, workload, opts.master_seed, {}); });
  try {
    server.serve(transport, nullptr, &collector);
  } catch (...) {
    transport.close();
    feeder.join();
    throw;
  }
  feeder.join();
  return collector.report();
}

TEST(TracePlane, ServeChainsIngestQueueRoundAndDigestIsWorkerInvariant) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  const TelemetryReport one = serve_trace_report(workload, 1);
  const TelemetryReport four = serve_trace_report(workload, 4);
  ASSERT_FALSE(one.trace.empty());
  EXPECT_EQ(trace_structure_digest(one.trace), trace_structure_digest(four.trace));

  // Every admitted round's trace must chain ingest -> queue -> round with
  // the declared parent links, whatever the worker count.
  std::set<std::uint64_t> ingest, queue, round;
  for (const TraceSpan& s : four.trace) {
    if (s.op == TraceOp::kIngest) {
      EXPECT_EQ(s.parent, TraceOp::kNone);
      ingest.insert(s.trace_id);
    } else if (s.op == TraceOp::kQueue) {
      EXPECT_EQ(s.parent, TraceOp::kIngest);
      queue.insert(s.trace_id);
    } else if (s.op == TraceOp::kRound) {
      round.insert(s.trace_id);
    }
  }
  ASSERT_FALSE(queue.empty());
  for (const std::uint64_t id : queue) EXPECT_TRUE(ingest.count(id)) << id;
  for (const std::uint64_t id : round) EXPECT_TRUE(queue.count(id)) << id;
}

TEST(TracePlane, SpanCapCountsOverflowInsteadOfGrowing) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.trace = true;
  topts.trace_max_spans = 4;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();
  EXPECT_LE(rep.trace.size(), 4u * rep.streams);
  EXPECT_GT(rep.trace_dropped, 0u);
}

TEST(TracePlane, ChromeTraceExportParsesAsJson) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(6));
  const TelemetryReport rep = fleet_trace_report(workload, 2);
  std::ostringstream out;
  write_chrome_trace(out, rep.trace);
  const config::Json doc = config::parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  const config::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->items().size(), rep.trace.size());
  for (const config::Json& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    EXPECT_TRUE(ph == "X" || ph == "s" || ph == "t");
    if (ph == "X") {
      EXPECT_NE(e.find("dur"), nullptr);
    }
  }
}

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, EvictStormTriggerDumpsRecentEvents) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  topts.flight.capacity = 32;
  topts.flight.max_dumps = 2;
  topts.flight.evict_storm = 1;  // every eviction is a "storm"
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();

  ASSERT_FALSE(rep.flight.empty());
  EXPECT_LE(rep.flight.size(), 2u * rep.streams);  // budget per stream
  bool saw_evict_storm = false;
  for (const FlightDump& d : rep.flight) {
    EXPECT_LT(d.stream, rep.streams);
    EXPECT_FALSE(d.events.empty());
    EXPECT_LE(d.events.size(), 32u);
    if (d.trigger == FlightTrigger::kEvictStorm) saw_evict_storm = true;
  }
  EXPECT_TRUE(saw_evict_storm);
}

// With timing off a stream's events are counters only, keyed by virtual
// time, so which dumps fire and what they hold is a pure function of the
// workload and the shard partition.
TEST(FlightRecorder, DumpsArePureWithTimingOff) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  const auto run = [&] {
    fleet::FleetOptions fo;
    fo.master_seed = 0x7E1Eu;
    fo.shards = 2;
    TelemetryOptions topts;
    topts.enabled = true;
    topts.timing = false;
    topts.window = 4.0;
    topts.flight.evict_storm = 1;
    Collector collector(topts);
    fleet::FleetService(fo, workload).run(nullptr, &collector);
    return collector.report().flight;
  };
  const std::vector<FlightDump> a = run();
  const std::vector<FlightDump> b = run();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, b[i].stream) << "dump " << i;
    EXPECT_EQ(a[i].trigger, b[i].trigger) << "dump " << i;
    EXPECT_EQ(a[i].window, b[i].window) << "dump " << i;
    EXPECT_EQ(a[i].t, b[i].t) << "dump " << i;
    ASSERT_EQ(a[i].events.size(), b[i].events.size()) << "dump " << i;
    for (std::size_t k = 0; k < a[i].events.size(); ++k) {
      const Event& x = a[i].events[k];
      const Event& y = b[i].events[k];
      EXPECT_EQ(x.kind, EventKind::kCounter);
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.t, y.t);
      EXPECT_EQ(x.value, y.value);
    }
  }
}

TEST(FlightRecorder, DisabledCapacityRecordsNothing) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(8));
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = 2;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.flight.capacity = 0;
  topts.flight.evict_storm = 1;
  Collector collector(topts);
  fleet::FleetService(fo, workload).run(nullptr, &collector);
  EXPECT_TRUE(collector.report().flight.empty());
}

// --- SLO scoreboard ---------------------------------------------------------

TEST(Slo, CdfReducesKnownVector) {
  const SloCdf c = make_slo_cdf({10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0});
  EXPECT_EQ(c.count, 10u);
  EXPECT_DOUBLE_EQ(c.mean, 5.5);
  EXPECT_DOUBLE_EQ(c.min, 1.0);
  EXPECT_DOUBLE_EQ(c.max, 10.0);
  EXPECT_DOUBLE_EQ(c.p50, 5.5);  // linear interpolation between order stats
  EXPECT_DOUBLE_EQ(c.p90, 9.1);
  EXPECT_DOUBLE_EQ(c.p999, 9.991);

  const SloCdf empty = make_slo_cdf({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

SloReport fleet_slo(const std::vector<sim::GroupScenario>& workload,
                    std::size_t shards) {
  fleet::FleetOptions fo;
  fo.master_seed = 0x7E1Eu;
  fo.shards = shards;
  TelemetryOptions topts;
  topts.enabled = true;
  topts.window = 4.0;
  Collector collector(topts);
  const fleet::FleetResult res =
      fleet::FleetService(fo, workload).run(nullptr, &collector);
  const TelemetryReport rep = collector.report();
  return build_slo_report(fleet::make_slo_inputs(res, &rep));
}

TEST(Slo, ScoreboardBitIdenticalAcrossShardCounts) {
  const std::vector<sim::GroupScenario> workload =
      sim::make_workload(small_params(12));
  const SloReport one = fleet_slo(workload, 1);
  const SloReport four = fleet_slo(workload, 4);

  EXPECT_EQ(one.sessions, workload.size());
  EXPECT_GT(one.rounds, 0u);
  EXPECT_GT(one.localized_rate, 0.0);
  EXPECT_GT(one.error.count, 0u);

  // The deterministic scoreboard must match bit-for-bit (EXPECT_EQ on
  // doubles is exact equality — that is the contract).
  EXPECT_EQ(one.rounds, four.rounds);
  EXPECT_EQ(one.localized, four.localized);
  EXPECT_EQ(one.coasts, four.coasts);
  EXPECT_EQ(one.evicts, four.evicts);
  EXPECT_EQ(one.warm_hits, four.warm_hits);
  EXPECT_EQ(one.warm_misses, four.warm_misses);
  EXPECT_EQ(one.localized_rate, four.localized_rate);
  EXPECT_EQ(one.warm_start_hit_rate, four.warm_start_hit_rate);
  EXPECT_EQ(one.error.mean, four.error.mean);
  EXPECT_EQ(one.error.p50, four.error.p50);
  EXPECT_EQ(one.error.p99, four.error.p99);
  EXPECT_EQ(one.error.p999, four.error.p999);

  // All workload kinds are reported, in enum order, with pooled counts that
  // add back up to the fleet totals.
  ASSERT_EQ(one.kinds.size(), four.kinds.size());
  std::uint64_t kind_rounds = 0;
  for (std::size_t i = 0; i < one.kinds.size(); ++i) {
    EXPECT_EQ(one.kinds[i].kind, four.kinds[i].kind);
    EXPECT_EQ(one.kinds[i].rounds, four.kinds[i].rounds);
    EXPECT_EQ(one.kinds[i].error.p99, four.kinds[i].error.p99);
    kind_rounds += one.kinds[i].rounds;
  }
  EXPECT_EQ(kind_rounds, one.rounds);
}

}  // namespace
}  // namespace uwp::telemetry
