// Deterministic admission control and rate shaping for the ingest path.
//
// The idiom is the ndnSIM shaper's: a token bucket gates work onto each
// queue, tokens refill at a configured rate, and the refill rate backs off
// as queue occupancy grows (occupancy feedback), so a shard that falls
// behind sheds or delays load instead of building an unbounded backlog.
// Transplanted to the fleet, with one crucial twist: every quantity runs on
// the *virtual ingest clock* carried by the frames themselves
// (IngestFrame::t_s), never on wall time, and the shaper partitions
// sessions by a fixed `ingest_shards` count that is independent of how many
// worker threads execute the admitted work. Both choices serve the same
// contract:
//
//   every admit / shed / defer decision is a pure function of the ingest
//   schedule (arrival times + session ids) and the ShaperOptions — not of
//   wall clock, worker count, or scheduling noise.
//
// That is what lets a recorded schedule be re-verified bit for bit
// (verify_ingest_schedule) and lets a served run replay exactly through
// fleet::Replayer: a shed round was executed as a tracker coast, which the
// recorder captured like any other coast.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "control/actions.hpp"
#include "fleet/transport.hpp"

namespace uwp::telemetry {
class ShardStream;
}

namespace uwp::fleet {

enum class AdmissionPolicy : std::uint8_t {
  // Shaping off: every frame dispatches on arrival (the FleetService-
  // equivalent path; a server run in this mode is bit-identical to the
  // synchronous service on the same workload).
  kAdmitAll = 0,
  // The shaper proper: held frames retry defer_delay_s later (preserving
  // per-session order), and shed only after max_defers failed attempts.
  // A shed round's tracker coasts, exactly like a device-side dropout;
  // max_defers = 0 sheds every over-rate or queue-full round at once.
  kDefer = 2,
};
const char* to_string(AdmissionPolicy policy);

struct ShaperOptions {
  AdmissionPolicy policy = AdmissionPolicy::kAdmitAll;
  // Admission-control partitions. Fixed by configuration — NOT the worker
  // count — so decisions are invariant to how many threads execute them.
  std::size_t ingest_shards = 4;
  // Modeled per-partition queue: depth cap and deterministic service rate
  // (how fast the modeled queue drains in virtual seconds).
  std::size_t queue_depth = 32;
  double drain_rounds_per_s = 16.0;
  // Token bucket: refill rate (0 = unlimited) and bucket capacity.
  double rate_rounds_per_s = 0.0;
  double burst_rounds = 8.0;
  // Occupancy feedback: above this occupancy fraction the refill rate
  // scales by (1 - occupancy/depth), reaching zero at a full queue.
  double feedback_threshold = 0.5;
  // kDefer only: retry spacing and the attempt budget before shedding.
  double defer_delay_s = 0.25;
  std::size_t max_defers = 8;
};

enum class IngestDecision : std::uint8_t {
  kAdmit = 0,  // dispatched to a worker as a round (or a control frame)
  kShed = 1,   // dispatched as a forced tracker coast
};
const char* to_string(IngestDecision decision);

// One frame's outcome in the recorded ingest schedule, in arrival order.
struct IngestRecord {
  double arrival_s = 0.0;  // the frame's own t_s
  double decide_s = 0.0;   // virtual time of the final decision (>= arrival_s)
  std::uint64_t session_id = 0;
  std::uint32_t round = 0;
  IngestKind kind = IngestKind::kMeasurement;
  IngestDecision decision = IngestDecision::kAdmit;
  std::uint32_t defers = 0;  // failed attempts before the final decision
};

// Bit-level equality (doubles compared by bit pattern) and an FNV-1a digest
// over every field of every record — the schedule's identity for tests.
bool bit_equal(const IngestRecord& a, const IngestRecord& b);
std::uint64_t ingest_schedule_digest(std::span<const IngestRecord> schedule);

// The per-partition token/occupancy state machine. Pure virtual-time: the
// only inputs are the attempt timestamps and the option set.
class TokenBucketShaper {
 public:
  TokenBucketShaper(const ShaperOptions& opts);

  // Try to take one queue slot (and one token, when rate-limited) for
  // `partition` at virtual time `t_s`. Mutates state on success.
  bool try_admit(std::size_t partition, double t_s);

  // Control-plane retune: swap the refill rate and bucket depth mid-run,
  // clamping each partition's tokens to the new depth. Deterministic as
  // long as the caller invokes it at virtual-time-defined points (the
  // ingest loop does so at control-window boundaries).
  void retune(double rate_rounds_per_s, double burst_rounds);

  // Peak modeled occupancy seen across all partitions (deterministic).
  double peak_occupancy() const { return peak_occupancy_; }

 private:
  struct Partition {
    double tokens = 0.0;
    double occupancy = 0.0;
    double last_s = 0.0;
  };
  void advance(Partition& p, double t_s);

  ShaperOptions opts_;
  std::vector<Partition> partitions_;
  double peak_occupancy_ = 0.0;
};

// Aggregate decision counters (all deterministic; folded into tests).
struct ShaperStats {
  std::size_t frames = 0;           // every frame that entered the scheduler
  std::size_t rounds_admitted = 0;  // measurement frames dispatched as rounds
  std::size_t rounds_shed = 0;      // measurement frames dispatched as coasts
  std::size_t defer_events = 0;     // individual failed attempts (kDefer)
  std::size_t frames_deferred = 0;  // distinct frames deferred at least once
  std::size_t max_backlog = 0;      // peak per-session pending chain length
};

// Orders frames through the shaper on the virtual clock. Frames of one
// session never reorder: while a session has a deferred frame pending, its
// later frames chain behind it and are attempted in sequence when the head
// resolves. Control frames (kCoast / kBye) are never shed or deferred on
// their own, but chain like any other frame to preserve session order.
//
// With a retune hook the scheduler is also the control plane's one window
// loop. Window w closes at the virtual time (w + 1) * window_s. Before it
// takes the first arrival at or past a boundary, the scheduler resolves
// every retry due by that boundary, calls the hook with the closed
// window's index, and runs on with the knobs the hook returns. The live
// serve and verify_ingest_schedule both drive this loop, so they cross
// bit-identical boundaries.
//
// Single-threaded by design (one ingest loop drives it); determinism comes
// from processing frames in nondecreasing t_s order, which on_frame
// enforces.
class IngestScheduler {
 public:
  // Dispatch: hand an admitted (shed = false) or shed (shed = true) frame
  // to execution, with the virtual time of the final decision. Called in
  // decision order; decide_s is what worker-side telemetry stamps, so a
  // frame's counters land in the window its verdict belongs to.
  using Dispatch =
      std::function<void(IngestFrame&&, bool shed, double decide_s)>;
  // Retune: called once per closed window, in window order, after every
  // decision of that window is final; returns the shaper knobs (rate,
  // burst, defer budget) to apply from the boundary on.
  using Retune = std::function<control::ShardControls(std::uint64_t window)>;

  // `retune` runs only when `window_s` > 0.
  IngestScheduler(const ShaperOptions& opts, std::size_t sessions,
                  double window_s = 0.0, Retune retune = {});

  // Feed the next arrival. Throws WireError on a session id outside the
  // workload or a t_s earlier than the previous arrival's.
  void on_frame(IngestFrame f, const Dispatch& dispatch);

  // End of stream: resolve every still-deferred frame, then close the
  // trailing windows up to the one holding the last decision.
  void finish(const Dispatch& dispatch);

  const std::vector<IngestRecord>& schedule() const { return schedule_; }
  std::vector<IngestRecord> take_schedule() { return std::move(schedule_); }
  const ShaperStats& stats() const { return stats_; }
  double peak_occupancy() const { return shaper_.peak_occupancy(); }

  // Attach the ingest loop's telemetry stream (nullptr = off). Every final
  // verdict (admit/shed) and every failed defer attempt is counted at its
  // virtual decide time — a pure function of the ingest schedule, so the
  // counters land on the deterministic side of the telemetry contract.
  void set_telemetry(telemetry::ShardStream* stream) { telemetry_ = stream; }

 private:
  struct Pending {
    IngestFrame frame;
    std::size_t record = 0;  // index into schedule_
    std::uint32_t defers = 0;
  };
  struct Retry {
    double retry_s = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break for equal retry times
    std::uint64_t session_id = 0;
  };
  struct RetryAfter {
    bool operator()(const Retry& a, const Retry& b) const {
      return a.retry_s != b.retry_s ? a.retry_s > b.retry_s : a.seq > b.seq;
    }
  };

  // Run all retries scheduled at or before now_s (pass +inf to drain).
  // Decide times derive from each retry's own slot, never from now_s.
  void flush_until(double now_s, const Dispatch& dispatch);
  // Close every window whose boundary is at or before t_s.
  void close_windows(double t_s, const Dispatch& dispatch);
  // Close window closed_: call the hook and apply the knobs it returns.
  void close_window();
  // Attempt a session's backlog starting at from_s; re-queues on defer.
  void work_backlog(std::uint64_t session_id, double from_s, const Dispatch& dispatch);
  // One frame's admission attempt; true when resolved (dispatched either
  // way), false when deferred for another attempt.
  bool resolve(Pending& p, double t_s, const Dispatch& dispatch);

  ShaperOptions opts_;
  TokenBucketShaper shaper_;
  std::vector<std::deque<Pending>> backlog_;  // per session
  std::priority_queue<Retry, std::vector<Retry>, RetryAfter> retries_;
  std::uint64_t next_seq_ = 0;
  std::vector<IngestRecord> schedule_;
  ShaperStats stats_;
  telemetry::ShardStream* telemetry_ = nullptr;
  double window_s_ = 0.0;
  Retune retune_;
  std::uint64_t closed_ = 0;  // windows closed so far
  double last_arrival_s_ = 0.0;
  double last_decide_s_ = 0.0;
};

// Recompute every decision from the recorded arrivals (the deterministic
// inputs alone) and count records that disagree with the recording — the
// schedule-level recorded-vs-recomputed verifier. With a control log it
// runs the same window loop the live ingest loop ran (boundary length
// `window_s`), with a retune hook that folds the log's actions in log
// order; window_s <= 0 ignores the log. 0 means the recording is exactly
// what (options, control log) produce. Throws WireError, as on_frame does,
// on recorded arrivals that go backwards or name a session past `sessions`.
std::size_t verify_ingest_schedule(std::span<const IngestRecord> recorded,
                                   const ShaperOptions& opts, std::size_t sessions,
                                   std::span<const control::ControlAction> actions = {},
                                   double window_s = 0.0);

}  // namespace uwp::fleet
