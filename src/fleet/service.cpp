#include "fleet/service.hpp"

#include <algorithm>
#include <chrono>

#include "fleet/recorder.hpp"
#include "telemetry/collector.hpp"
#include "util/thread_pool.hpp"

namespace uwp::fleet {

FleetService::FleetService(FleetOptions opts, std::vector<sim::GroupScenario> workload)
    : opts_(opts), workload_(std::move(workload)) {
  check_workload(workload_, "FleetService");
}

std::size_t FleetService::ticks() const {
  std::size_t t = 0;
  for (const sim::GroupScenario& sc : workload_)
    t = std::max(t, sc.admit_tick + sc.lifetime_rounds);
  return t;
}

FleetResult FleetService::run(SessionRecorder* recorder,
                              telemetry::Collector* telemetry) const {
  const std::size_t n_sessions = workload_.size();
  const std::size_t shards = ThreadPool::resolve_thread_count(opts_.shards);
  const std::size_t total_ticks = ticks();

  telemetry::Collector* const col =
      telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (col != nullptr) col->open(shards);

  std::vector<std::vector<double>> shard_latencies(shards);
  std::vector<ShardArena> arenas(shards);

  // Shard s owns ids s, s + shards, ... at index id / shards.
  std::vector<std::vector<Session>> sessions(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    sessions[shard].reserve(n_sessions / shards + 1);
    for (std::size_t id = shard; id < n_sessions; id += shards)
      sessions[shard].emplace_back(workload_[id], opts_.master_seed);
  }

  // One shard over the whole timeline: its sessions, in id order, tick by
  // tick. Sessions are independent and the recorder's per-session buffers
  // are disjoint, so shards share nothing mutable (each telemetry stream
  // has exactly one producer: its shard).
  const auto run_shard = [&](std::size_t shard) {
    telemetry::ShardStream* const tel = col != nullptr ? &col->stream(shard) : nullptr;
    arenas[shard].set_telemetry(tel);
    std::vector<double>* lat = opts_.measure_latency ? &shard_latencies[shard] : nullptr;
    for (std::size_t tick = 0; tick < total_ticks; ++tick) {
      if (tel != nullptr) tel->set_time(static_cast<double>(tick));
      for (Session& s : sessions[shard]) s.tick(tick, arenas[shard], recorder, lat, tel);
    }
  };

  std::unique_ptr<ThreadPool> pool;
  if (shards > 1 && n_sessions > 1) pool = std::make_unique<ThreadPool>(shards);

  const auto t0 = std::chrono::steady_clock::now();
  if (pool != nullptr) {
    pool->parallel_for(shards, run_shard);
  } else {
    for (std::size_t shard = 0; shard < shards; ++shard) run_shard(shard);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<SessionMetrics> metrics(n_sessions);
  for (std::size_t id = 0; id < n_sessions; ++id)
    metrics[id] = sessions[id % shards][id / shards].take_metrics();

  arena_stats_ = {};
  for (const ShardArena& a : arenas) {
    arena_stats_.leases += a.leases();
    arena_stats_.reuses += a.reuses();
  }

  FleetResult out = finalize_fleet_result(std::move(metrics));
  out.wall_seconds = wall;
  out.shards_used = shards;
  for (const std::vector<double>& lat : shard_latencies)
    out.round_latency_s.insert(out.round_latency_s.end(), lat.begin(), lat.end());
  return out;
}

telemetry::SloInputs make_slo_inputs(const FleetResult& result,
                                     const telemetry::TelemetryReport* report) {
  telemetry::SloInputs in;
  // One bucket per GroupScenarioKind, enum order, always present.
  constexpr sim::GroupScenarioKind kKinds[] = {
      sim::GroupScenarioKind::kStatic,       sim::GroupScenarioKind::kLawnmower,
      sim::GroupScenarioKind::kWaypoint,     sim::GroupScenarioKind::kDropoutChurn,
      sim::GroupScenarioKind::kPacketDes};
  in.kinds.resize(std::size(kKinds));
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    in.kinds[k].kind = sim::to_string(kKinds[k]);
  // Sessions arrive in id order (FleetResult's invariant), so each bucket's
  // error multiset is accumulated identically at any shard/worker count.
  for (const SessionMetrics& s : result.sessions) {
    const std::size_t k = static_cast<std::size_t>(s.kind);
    if (k >= in.kinds.size()) continue;
    telemetry::SloKindInput& bucket = in.kinds[k];
    ++bucket.sessions;
    bucket.rounds += s.rounds;
    bucket.localized += s.localized;
    bucket.coasts += s.coasts;
    bucket.errors.insert(bucket.errors.end(), s.errors.begin(), s.errors.end());
  }
  if (report != nullptr) {
    in.totals = report->totals;
    in.have_totals = true;
  }
  in.latency_s = result.round_latency_s;
  in.wall_s = result.wall_seconds;
  return in;
}

}  // namespace uwp::fleet
