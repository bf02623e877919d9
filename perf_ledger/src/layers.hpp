// Outside-in layer timing for the fleet performance ledger. Every timer here
// wraps a call into a layer's public API from the benchmark's own code — no
// program code is instrumented — so the same timers keep working while the
// program underneath is optimised or simplified.
//
// Layers (the repository's modules):
//   frontend   MeasurementFeed::next (closed form and packet DES apart)
//   pipeline   RoundPipeline::run_round / coast, each round classified by
//              its output into a base round or an Algorithm-1 search round
//   fleet      session admission/eviction (pipeline + front-end lifecycle)
//   wire       encode/decode of every ingest frame and measurement payload
//   transport  Transport::send blocked time / recv starved time
//   shaper     verify_ingest_schedule (a full re-run of the shaper)
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/server.hpp"
#include "fleet/service.hpp"
#include "fleet/session.hpp"
#include "fleet/transport.hpp"
#include "pipeline/round_pipeline.hpp"
#include "sim/fleet_workload.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline constexpr std::size_t kKinds = 5;  // sim::GroupScenarioKind values

// Per-layer totals of one traced pass. Times are wall seconds; counts are
// exact and, for a given workload and seed, identical on every pass.
struct LayerTotals {
  // frontend
  double measure_s = 0.0;      // closed-form MeasurementFeed::next
  double des_measure_s = 0.0;  // packet-DES MeasurementFeed::next
  // pipeline / core
  double base_round_s = 0.0;    // run_round, rounds that did not search
  double search_round_s = 0.0;  // run_round, rounds with outliers_suspected
  double coast_s = 0.0;         // RoundPipeline::coast
  std::uint64_t base_rounds = 0;
  std::uint64_t search_rounds = 0;
  std::uint64_t search_accepts = 0;  // searched rounds that dropped >= 1 link
  std::uint64_t iterations_base = 0;
  std::uint64_t iterations_search = 0;
  std::array<std::uint64_t, kKinds> kind_rounds{};
  std::array<double, kKinds> kind_round_s{};
  // fleet: admission + eviction of the benchmark's own sessions
  double lifecycle_s = 0.0;
  // wire
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  // transport
  double send_block_s = 0.0;
  double recv_wait_s = 0.0;
  // shaper
  double decide_s = 0.0;

  double round_s() const { return base_round_s + search_round_s; }
  double frontend_s() const { return measure_s + des_measure_s; }
};

// Sessions driven through their own RoundPipelines by benchmark code: the
// consumer half of fleet::Session/Server's WorkerSession, rebuilt from
// public APIs only (pipeline_options_for, session_stream_seed,
// SessionMetrics), so FleetResult::fleet_digest must match the program's.
class SessionRunner {
 public:
  SessionRunner(const std::vector<uwp::sim::GroupScenario>& workload,
                std::uint64_t master_seed, LayerTotals& totals);

  bool active(std::size_t id) const { return sessions_[id].pipe != nullptr; }
  void admit(std::size_t id);
  void evict(std::size_t id);
  // The measurement buffer the next round() of `id` consumes.
  uwp::pipeline::RoundMeasurement& meas(std::size_t id) { return sessions_[id].meas; }
  void coast(std::size_t id, double dt_s);
  void round(std::size_t id, double dt_s);
  uwp::fleet::FleetResult finish();

 private:
  struct State {
    std::unique_ptr<uwp::pipeline::RoundPipeline> pipe;
    uwp::pipeline::RoundMeasurement meas;
    uwp::Rng solve_rng;
    uwp::fleet::SessionMetrics metrics;
  };
  const std::vector<uwp::sim::GroupScenario>* workload_;
  std::vector<State> sessions_;
  LayerTotals* totals_;
};

// Run a fleet workload tick by tick exactly as FleetService schedules it
// (one event per live session per tick, sessions in id order), timing the
// front-end and pipeline calls. Returns the fleet result; `wall_s` receives
// the wall time of the tick loop.
uwp::fleet::FleetResult run_fleet_traced(const std::vector<uwp::sim::GroupScenario>& workload,
                                         std::uint64_t master_seed, LayerTotals& totals,
                                         double& wall_s);

// Transport decorator: times how long senders are blocked and how long the
// receiver is starved, and keeps a copy of every frame sent.
class TimedTransport final : public uwp::fleet::Transport {
 public:
  explicit TimedTransport(std::size_t capacity) : inner_(capacity) {}

  bool send(std::vector<std::uint8_t> frame) override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close() override { inner_.close(); }

  // Valid once the sender has finished (after joining it).
  double send_block_s() const { return send_block_s_; }
  double recv_wait_s() const { return recv_wait_s_; }
  std::vector<std::vector<std::uint8_t>>& captured() { return captured_; }

 private:
  uwp::fleet::RingBufferTransport inner_;
  double send_block_s_ = 0.0;  // sender thread only
  double recv_wait_s_ = 0.0;   // receiver thread only
  std::vector<std::vector<std::uint8_t>> captured_;  // sender thread only
};

// The producer side of a served run: fleet::feed_workload's exact frame
// sequence, with the front-end calls and the inline frame encoding timed
// into `times`.
struct FeederTimes {
  double measure_s = 0.0;
  double des_measure_s = 0.0;
  double encode_s = 0.0;
};
void feed_workload_traced(uwp::fleet::Transport& transport,
                          const std::vector<uwp::sim::GroupScenario>& workload,
                          std::uint64_t master_seed, double tick_period_s,
                          FeederTimes& times);

// Wire side pass over captured ingest frames: decode every frame and its
// measurement payload (timed into decode_s), re-encode both (timed into
// encode_s), and count frames/bytes. Returns the number of frames whose
// re-encoding differs from the captured bytes (0 when the codec round-trips
// exactly). `decoded` receives the frames in capture order.
std::size_t wire_side_pass(const std::vector<std::vector<std::uint8_t>>& frames,
                           LayerTotals& totals,
                           std::vector<uwp::fleet::IngestFrame>& decoded);

// Replay a served run's frames through a SessionRunner in schedule order:
// shed rounds and device-side coasts coast, admitted measurements run. The
// result must reproduce the served FleetResult bit for bit. Returns false
// when a schedule record does not match its frame.
bool replay_schedule(const std::vector<uwp::fleet::IngestFrame>& frames,
                     const std::vector<uwp::fleet::IngestRecord>& schedule,
                     SessionRunner& runner);

}  // namespace ledger
