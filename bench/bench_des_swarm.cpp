// Packet-level swarm bench on the discrete-event simulator: a 24-node,
// 12-round scenario (4x the paper's largest group) with three nodes moving
// mid-round, fast-model arrival errors, half-duplex and collision physics.
// Reports per-round packet accounting, raw-vs-tracked localization error,
// and scaling of the round duration with group size.
//
//   --threads=N      fan independent swarm trials across N threads
//                    (UWP_THREADS env var also works; bit-identical output)
//   --trace-out=FILE write a CSV packet trace (time, round, tx, rx, event,
//                    collision) of one serial reference run
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_flags.hpp"
#include "des/scenario.hpp"
#include "sim/metrics.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"

namespace {

std::shared_ptr<const uwp::des::MobilityModel> make_mobility(std::size_t n) {
  // 6 x 4 grid over ~50 x 33 m; three nodes ride lawnmower tracks so their
  // positions change during (not just between) protocol rounds.
  std::vector<uwp::Vec3> origins;
  for (std::size_t i = 0; i < n; ++i) {
    origins.push_back({2.0 + static_cast<double>(i % 6) * 10.0,
                       static_cast<double>(i / 6) * 11.0,
                       1.5 + 0.08 * static_cast<double>(i)});
  }
  auto mob = std::make_shared<uwp::des::LawnmowerMobility>(std::move(origins));
  // Mover nodes beyond the group size are skipped, so the scaling-table
  // sizes carry fewer movers (N = 5 keeps only node 4). Motion shifts
  // positions by centimeters per round — irrelevant to round duration.
  for (std::size_t node : {4u, 11u, 17u}) {
    if (node >= n) continue;
    uwp::des::LawnmowerTrack track;
    track.direction = {0.0, 1.0, 0.0};
    track.span_m = 6.0;
    track.speed_mps = 0.4;
    track.phase_s = 3.0 * static_cast<double>(node);
    mob->set_track(node, track);
  }
  return mob;
}

uwp::des::DesScenario make_scenario(std::size_t n, std::size_t rounds) {
  uwp::des::DesScenarioConfig cfg;
  cfg.protocol.num_devices = n;
  cfg.rounds = rounds;
  cfg.arrival.detection_failure_prob = 0.02;
  std::vector<uwp::audio::AudioTimingConfig> audio(n);
  for (std::size_t i = 0; i < n; ++i) {
    audio[i].speaker_start_s = 0.19 * static_cast<double>(i);
    audio[i].mic_start_s = 0.07 + 0.13 * static_cast<double>(i);
    audio[i].speaker_skew_ppm = (i % 2 ? 1.0 : -1.0) * static_cast<double>(i % 7);
    audio[i].mic_skew_ppm = (i % 3 ? -1.0 : 1.0) * static_cast<double>(i % 5);
  }
  uwp::Matrix conn(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) conn(i, i) = 0.0;
  return uwp::des::DesScenario(cfg, make_mobility(n), std::move(audio),
                               std::move(conn));
}

}  // namespace

int main(int argc, char** argv) {
  const uwp::bench::BenchFlags flags = uwp::bench::parse_flags(argc, argv);
  const std::size_t threads = flags.threads;
  const char* trace_path = flags.trace_out;
  const std::size_t n = 24;
  const std::size_t rounds = 12;

  if (flags.json) {
    // The perf workload tracked in BENCH_pipeline.json: the 24-node,
    // 12-round reference round loop, one thread.
    const uwp::des::DesScenario timed = make_scenario(n, rounds);
    const auto t0 = std::chrono::steady_clock::now();
    uwp::Rng timing_rng(24);
    const auto res = timed.run(timing_rng);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    uwp::sim::BenchJsonReporter report;
    report.add("des_swarm/24nodes_12rounds", dt, rounds);
    report.write();
    return res.localized_rounds > 0 ? 0 : 1;
  }

  const uwp::des::DesScenario scenario = make_scenario(n, rounds);

  std::printf("=== DES swarm: %zu nodes, %zu rounds, 3 movers ===\n", n, rounds);
  std::printf("round period %.2f s (worst-case relay round trip)\n\n",
              scenario.round_period_s());

  // One serial reference run for the per-round table (and the packet trace).
  uwp::sim::PacketTrace trace;
  uwp::Rng rng(24);
  const uwp::des::DesScenarioResult ref =
      scenario.run(rng, trace_path != nullptr ? &trace : nullptr);

  std::printf("%6s %10s %10s %10s %12s %12s\n", "round", "delivered", "collided",
              "hd-drops", "raw med[m]", "track med[m]");
  for (const uwp::des::DesRound& round : ref.rounds) {
    std::vector<double> raw, tracked;
    for (std::size_t i = 1; i < n; ++i) {
      if (!std::isnan(round.error_2d[i])) raw.push_back(round.error_2d[i]);
      if (!std::isnan(round.tracked_error_2d[i]))
        tracked.push_back(round.tracked_error_2d[i]);
    }
    std::printf("%6zu %10zu %10zu %10zu %12.2f %12.2f\n", round.index,
                round.medium.deliveries, round.medium.collisions,
                round.medium.half_duplex_drops,
                raw.empty() ? -1.0 : uwp::median(raw),
                tracked.empty() ? -1.0 : uwp::median(tracked));
  }
  std::printf("\n%zu/%zu rounds localized, %zu deliveries, %zu collisions, "
              "%zu half-duplex drops\n",
              ref.localized_rounds, rounds, ref.total_deliveries,
              ref.total_collisions, ref.total_half_duplex_drops);
  uwp::sim::print_summary_row("raw per-device error", ref.errors);
  uwp::sim::print_summary_row("tracked per-device error", ref.tracked_errors);

  if (trace_path != nullptr) {
    uwp::sim::save_packet_trace_csv(trace_path, trace);
    std::printf("packet trace: %zu events -> %s\n", trace.size(), trace_path);
  }

  // Monte-Carlo over independent swarms (fresh error/sensor draws per
  // trial) through the parallel sweep engine.
  std::printf("\n=== Monte-Carlo: 8 independent %zu-node swarm runs ===\n", n);
  uwp::sim::SweepOptions so;
  so.trials = 8;
  so.master_seed = 2400;
  so.threads = threads;
  const uwp::sim::SweepResult res = uwp::sim::SweepRunner(so).run(
      [&scenario](std::size_t, uwp::Rng& trial_rng) {
        return scenario.run(trial_rng).errors;
      });
  uwp::sim::print_summary_row("all trials, raw error", res.samples);
  uwp::sim::print_cdf("raw error CDF", res.samples, 9);

  // Round-duration scaling: the slot schedule grows linearly with N; the
  // DES measures the realized duration including propagation tails.
  std::printf("\n=== Round duration vs group size (all-in-range) ===\n");
  std::printf("%6s %14s %16s\n", "N", "paper formula", "DES measured[s]");
  for (std::size_t size : {5u, 10u, 16u, 24u}) {
    const uwp::des::DesScenario s = make_scenario(size, 1);
    uwp::Rng r(size);
    const auto one = s.run(r);
    uwp::proto::ProtocolConfig pc;
    pc.num_devices = size;
    std::printf("%6zu %14.2f %16.2f\n", size,
                uwp::proto::round_trip_all_in_range(pc),
                one.rounds[0].protocol.round_duration_s);
  }
  uwp::sim::SweepTally tally;
  tally.add(res);
  tally.print_footer();
  return 0;
}
