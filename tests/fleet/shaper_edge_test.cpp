// IngestScheduler edge cases: a zero-capacity token bucket, FIFO resolution
// of retry-heap ties, backlog-chain draining through a session's kBye, and
// the window hook's retune.
// Every schedule produced here must also recompute exactly through
// verify_ingest_schedule — the edges are inside the determinism contract,
// not exceptions to it.
#include "fleet/shaper.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/transport.hpp"

namespace uwp::fleet {
namespace {

IngestFrame frame(IngestKind kind, std::uint64_t session, std::uint32_t round,
                  double t_s) {
  IngestFrame f;
  f.kind = kind;
  f.session_id = session;
  f.round = round;
  f.t_s = t_s;
  f.dt_s = 1.0;
  return f;
}

// Captured dispatch: (session, round, kind, shed, decide_s) in decision order.
struct Dispatched {
  std::uint64_t session = 0;
  std::uint32_t round = 0;
  IngestKind kind = IngestKind::kMeasurement;
  bool shed = false;
  double decide_s = 0.0;
};

struct Capture {
  std::vector<Dispatched> out;
  IngestScheduler::Dispatch fn() {
    return [this](IngestFrame&& f, bool shed, double decide_s) {
      out.push_back({f.session_id, f.round, f.kind, shed, decide_s});
    };
  }
};

ShaperOptions one_partition(AdmissionPolicy policy) {
  ShaperOptions o;
  o.policy = policy;
  o.ingest_shards = 1;
  o.queue_depth = 32;
  o.drain_rounds_per_s = 1000.0;  // occupancy never interferes
  return o;
}

// --- zero-capacity token bucket ---------------------------------------------

TEST(ShaperEdge, ZeroCapacityBucketShedsEveryRound) {
  ShaperOptions opts = one_partition(AdmissionPolicy::kDefer);
  opts.max_defers = 0;  // shed on the first failed admission
  opts.rate_rounds_per_s = 4.0;
  opts.burst_rounds = 0.0;  // tokens can never reach one frame's worth

  IngestScheduler sched(opts, 2);
  Capture cap;
  const auto dispatch = cap.fn();
  sched.on_frame(frame(IngestKind::kMeasurement, 0, 0, 0.0), dispatch);
  sched.on_frame(frame(IngestKind::kMeasurement, 1, 0, 10.0), dispatch);
  sched.on_frame(frame(IngestKind::kBye, 0, 1, 20.0), dispatch);
  sched.finish(dispatch);

  // Both rounds shed on arrival no matter how long the bucket refilled;
  // the control frame is not load and passes.
  ASSERT_EQ(cap.out.size(), 3u);
  EXPECT_TRUE(cap.out[0].shed);
  EXPECT_TRUE(cap.out[1].shed);
  EXPECT_DOUBLE_EQ(cap.out[1].decide_s, 10.0);
  EXPECT_FALSE(cap.out[2].shed);
  EXPECT_EQ(sched.stats().rounds_shed, 2u);
  EXPECT_EQ(sched.stats().rounds_admitted, 0u);
  EXPECT_EQ(verify_ingest_schedule(sched.schedule(), opts, 2), 0u);
}

TEST(ShaperEdge, ZeroCapacityBucketExhaustsDeferBudgetThenSheds) {
  ShaperOptions opts = one_partition(AdmissionPolicy::kDefer);
  opts.rate_rounds_per_s = 4.0;
  opts.burst_rounds = 0.0;
  opts.defer_delay_s = 0.25;
  opts.max_defers = 2;

  IngestScheduler sched(opts, 1);
  Capture cap;
  const auto dispatch = cap.fn();
  sched.on_frame(frame(IngestKind::kMeasurement, 0, 0, 1.0), dispatch);
  sched.finish(dispatch);

  // The frame burns its whole defer budget (retries at 1.25 and 1.5) and
  // sheds at the attempt after the last failed defer.
  ASSERT_EQ(cap.out.size(), 1u);
  EXPECT_TRUE(cap.out[0].shed);
  EXPECT_DOUBLE_EQ(cap.out[0].decide_s, 1.5);
  ASSERT_EQ(sched.schedule().size(), 1u);
  EXPECT_EQ(sched.schedule()[0].decision, IngestDecision::kShed);
  EXPECT_EQ(sched.schedule()[0].defers, 2u);
  EXPECT_EQ(sched.stats().defer_events, 2u);
  EXPECT_EQ(sched.stats().frames_deferred, 1u);
  EXPECT_EQ(verify_ingest_schedule(sched.schedule(), opts, 1), 0u);
}

// --- retry-heap ordering ties -----------------------------------------------

// Two sessions defer at the same virtual time, so their retries land on the
// same heap slot time. The tie must break FIFO (by defer sequence), not by
// session id or heap internals: the session deferred first gets the single
// refilled token, the other defers again.
TEST(ShaperEdge, RetryTiesResolveInDeferOrder) {
  ShaperOptions opts = one_partition(AdmissionPolicy::kDefer);
  opts.rate_rounds_per_s = 1.0;
  opts.burst_rounds = 1.0;
  opts.defer_delay_s = 1.0;
  opts.max_defers = 8;

  for (const bool swap : {false, true}) {
    IngestScheduler sched(opts, 3);
    Capture cap;
    const auto dispatch = cap.fn();
    const std::uint64_t first = swap ? 2 : 1;
    const std::uint64_t second = swap ? 1 : 2;

    // t=0: session 0 takes the only token; `first` then `second` defer,
    // both scheduling retries at exactly t=1.
    sched.on_frame(frame(IngestKind::kMeasurement, 0, 0, 0.0), dispatch);
    sched.on_frame(frame(IngestKind::kMeasurement, first, 0, 0.0), dispatch);
    sched.on_frame(frame(IngestKind::kMeasurement, second, 0, 0.0), dispatch);
    sched.finish(dispatch);

    // At t=1 one token has refilled: `first` (lower defer seq) admits at
    // 1.0; `second` loses the tie, defers again, and admits at 2.0. Which
    // session id plays which role follows arrival order exactly.
    ASSERT_EQ(cap.out.size(), 3u);
    EXPECT_EQ(cap.out[1].session, first);
    EXPECT_DOUBLE_EQ(cap.out[1].decide_s, 1.0);
    EXPECT_EQ(cap.out[2].session, second);
    EXPECT_DOUBLE_EQ(cap.out[2].decide_s, 2.0);
    for (const Dispatched& d : cap.out) EXPECT_FALSE(d.shed);

    for (const IngestRecord& r : sched.schedule()) {
      if (r.session_id == first) {
        EXPECT_EQ(r.defers, 1u);
      } else if (r.session_id == second) {
        EXPECT_EQ(r.defers, 2u);
      }
    }
    EXPECT_EQ(verify_ingest_schedule(sched.schedule(), opts, 3), 0u);
  }
}

// --- backlog chain drains through kBye --------------------------------------

// While a session's head frame is deferred, later frames — including its
// kBye — chain behind it. When the head finally resolves, the chain drains
// in session order; the kBye is never shed or deferred on its own but still
// waits its turn.
TEST(ShaperEdge, ByeDrainsBehindDeferredBacklog) {
  ShaperOptions opts = one_partition(AdmissionPolicy::kDefer);
  opts.rate_rounds_per_s = 1.0;
  opts.burst_rounds = 1.0;
  opts.defer_delay_s = 1.0;
  opts.max_defers = 8;

  IngestScheduler sched(opts, 2);
  Capture cap;
  const auto dispatch = cap.fn();

  // Session 0 drains the bucket; session 1's round defers and its next
  // round plus its kBye chain up behind the deferred head.
  sched.on_frame(frame(IngestKind::kMeasurement, 0, 0, 0.0), dispatch);
  sched.on_frame(frame(IngestKind::kMeasurement, 1, 0, 0.0), dispatch);
  sched.on_frame(frame(IngestKind::kMeasurement, 1, 1, 0.25), dispatch);
  sched.on_frame(frame(IngestKind::kBye, 1, 2, 0.5), dispatch);
  EXPECT_EQ(sched.stats().max_backlog, 3u);
  sched.finish(dispatch);

  // Chain resolution: head admits at t=1 on the refilled token; round 1
  // attempts immediately after, defers (bucket just emptied), and admits at
  // t=2; only then does the kBye pass — in order, as an admit, at the
  // chain-drain time rather than its own arrival time.
  ASSERT_EQ(cap.out.size(), 4u);
  EXPECT_EQ(cap.out[1].round, 0u);
  EXPECT_DOUBLE_EQ(cap.out[1].decide_s, 1.0);
  EXPECT_EQ(cap.out[2].round, 1u);
  EXPECT_DOUBLE_EQ(cap.out[2].decide_s, 2.0);
  EXPECT_EQ(cap.out[3].kind, IngestKind::kBye);
  EXPECT_FALSE(cap.out[3].shed);
  EXPECT_DOUBLE_EQ(cap.out[3].decide_s, 2.0);

  ASSERT_EQ(sched.schedule().size(), 4u);
  const IngestRecord& bye = sched.schedule()[3];
  EXPECT_EQ(bye.kind, IngestKind::kBye);
  EXPECT_EQ(bye.decision, IngestDecision::kAdmit);
  EXPECT_EQ(bye.defers, 0u);
  EXPECT_EQ(verify_ingest_schedule(sched.schedule(), opts, 2), 0u);
}

// A retune applies from its window boundary on: the same arrivals that
// deferred under the tight bucket sail through once the window hook opens
// it, and the control-aware verifier replays the same window loop.
TEST(ShaperEdge, RetuneAtBoundaryOpensTheBucket) {
  ShaperOptions opts = one_partition(AdmissionPolicy::kDefer);
  opts.rate_rounds_per_s = 1.0;
  opts.burst_rounds = 1.0;
  opts.defer_delay_s = 0.25;
  opts.max_defers = 32;  // enough budget that nothing sheds pre-boundary

  std::vector<std::uint64_t> closed;
  IngestScheduler sched(opts, 4, /*window_s=*/4.0, [&](std::uint64_t w) {
    closed.push_back(w);
    return control::ShardControls{100.0, 100.0, opts.max_defers};
  });
  Capture cap;
  const auto dispatch = cap.fn();
  for (std::uint64_t s = 0; s < 4; ++s)
    sched.on_frame(frame(IngestKind::kMeasurement, s, 0, 0.0), dispatch);
  EXPECT_EQ(cap.out.size(), 1u);  // one token, three deferred
  EXPECT_TRUE(closed.empty());

  // The first arrival at t=4 closes window 0: the retries due by then
  // resolve under the tight bucket, then the hook opens it.
  sched.on_frame(frame(IngestKind::kMeasurement, 0, 1, 4.0), dispatch);
  EXPECT_EQ(closed, std::vector<std::uint64_t>{0});
  EXPECT_EQ(cap.out.size(), 5u);
  for (std::uint64_t s = 1; s < 4; ++s)
    sched.on_frame(frame(IngestKind::kMeasurement, s, 1, 4.0), dispatch);
  sched.finish(dispatch);
  // finish() closes the window holding the last decision (t=4, window 1).
  EXPECT_EQ(closed, (std::vector<std::uint64_t>{0, 1}));

  EXPECT_EQ(sched.stats().rounds_admitted, 8u);
  EXPECT_EQ(sched.stats().rounds_shed, 0u);
  // The second batch all admitted on arrival at the retuned rate.
  std::size_t instant = 0;
  for (const IngestRecord& r : sched.schedule())
    if (r.round == 1 && r.decide_s == r.arrival_s &&
        r.decision == IngestDecision::kAdmit)
      ++instant;
  EXPECT_EQ(instant, 4u);

  const std::vector<control::ControlAction> log = {
      {0, control::ActionKind::kShaperRate, 100.0},
      {0, control::ActionKind::kShaperBurst, 100.0}};
  EXPECT_EQ(verify_ingest_schedule(sched.schedule(), opts, 4, log, 4.0), 0u);
  EXPECT_GT(verify_ingest_schedule(sched.schedule(), opts, 4), 0u);
}

}  // namespace
}  // namespace uwp::fleet
