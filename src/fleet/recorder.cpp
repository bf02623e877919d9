#include "fleet/recorder.hpp"

#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "telemetry/collector.hpp"

namespace uwp::fleet {

SessionRecorder::SessionRecorder(std::uint64_t master_seed,
                                 const sim::WorkloadParams& params)
    : SessionRecorder(master_seed, params, sim::make_workload(params)) {}

SessionRecorder::SessionRecorder(std::uint64_t master_seed,
                                 const sim::WorkloadParams& params,
                                 const std::vector<sim::GroupScenario>& workload) {
  trace_.master_seed = master_seed;
  trace_.workload = params;
  // Pin the workload these parameters generate *today*, so replaying the
  // trace under a changed generator fails loudly (see Replayer).
  trace_.workload_digest = workload_digest(workload);
  trace_.sessions.resize(params.sessions);
  for (std::size_t i = 0; i < params.sessions; ++i)
    trace_.sessions[i].session_id = i;
}

SessionTrace& SessionRecorder::slot(std::uint64_t session_id) {
  if (session_id >= trace_.sessions.size())
    throw std::invalid_argument("SessionRecorder: session_id outside workload");
  return trace_.sessions[session_id];
}

void SessionRecorder::on_admit(const sim::GroupScenario& scenario) {
  slot(scenario.session_id).events.clear();
}

void SessionRecorder::on_measurement(std::uint64_t session_id, std::uint32_t round,
                                     double dt_s, const pipeline::RoundMeasurement& m) {
  TraceEvent ev;
  ev.kind = FrameKind::kMeasurement;
  ev.dt_s = dt_s;
  ev.round = round;
  encode_measurement(m, ev.payload);
  slot(session_id).events.push_back(std::move(ev));
}

void SessionRecorder::on_round_result(std::uint64_t session_id, const RoundRecord& r) {
  TraceEvent ev;
  ev.kind = FrameKind::kRoundResult;
  encode_round_record(r, ev.payload);
  slot(session_id).events.push_back(std::move(ev));
}

void SessionRecorder::on_coast(std::uint64_t session_id, double dt_s) {
  TraceEvent ev;
  ev.kind = FrameKind::kCoast;
  ev.dt_s = dt_s;
  slot(session_id).events.push_back(std::move(ev));
}

void write_fleet_trace(std::ostream& out, const FleetTrace& trace) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, kTraceMagic);
  put_u16(buf, kTraceVersion);
  put_u64(buf, trace.master_seed);
  put_u64(buf, trace.workload_digest);
  const sim::WorkloadParams& p = trace.workload;
  put_u64(buf, p.sessions);
  put_u64(buf, p.seed);
  put_u64(buf, p.min_group_size);
  put_u64(buf, p.max_group_size);
  put_u64(buf, p.min_rounds);
  put_u64(buf, p.max_rounds);
  put_u64(buf, p.admit_spread_ticks);
  put_u8(buf, p.include_des ? 1 : 0);
  put_u8(buf, p.force_kind < 0 ? 0xFF : static_cast<std::uint8_t>(p.force_kind));
  put_u64(buf, trace.sessions.size());
  for (const SessionTrace& s : trace.sessions) {
    put_u64(buf, s.session_id);
    put_u64(buf, s.events.size());
    for (const TraceEvent& ev : s.events) {
      put_u8(buf, static_cast<std::uint8_t>(ev.kind));
      switch (ev.kind) {
        case FrameKind::kCoast:
          put_f64(buf, ev.dt_s);
          break;
        case FrameKind::kMeasurement:
          put_f64(buf, ev.dt_s);
          put_u32(buf, ev.round);
          put_u64(buf, ev.payload.size());
          buf.insert(buf.end(), ev.payload.begin(), ev.payload.end());
          break;
        case FrameKind::kRoundResult:
          put_u64(buf, ev.payload.size());
          buf.insert(buf.end(), ev.payload.begin(), ev.payload.end());
          break;
      }
    }
  }
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("fleet trace: write failed");
}

void SessionRecorder::write(std::ostream& out) const { write_fleet_trace(out, trace_); }

void SessionRecorder::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("fleet trace: cannot open " + path);
  write(out);
}

namespace {

// The Replayer regenerates the workload from the header's parameters before
// it can check the digest, and group sizes become n x n matrices there: a
// tampered range must fail as WireError before it sizes anything.
const sim::WorkloadParams& checked_params(const sim::WorkloadParams& p) {
  if (const char* why = sim::workload_params_error(p))
    throw WireError(std::string("fleet trace: ") + why);
  return p;
}

}  // namespace

FleetTrace read_fleet_trace(std::istream& in) {
  // One copy only: traces from a large fleet run are tens of MB.
  std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  ByteReader r{buf, 0};

  FleetTrace trace;
  if (r.u32() != kTraceMagic) throw WireError("fleet trace: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kTraceVersion)
    throw WireError("fleet trace: unsupported version " + std::to_string(version));
  trace.master_seed = r.u64();
  trace.workload_digest = r.u64();
  sim::WorkloadParams& p = trace.workload;
  p.sessions = static_cast<std::size_t>(r.u64());
  p.seed = r.u64();
  p.min_group_size = static_cast<std::size_t>(r.u64());
  p.max_group_size = static_cast<std::size_t>(r.u64());
  p.min_rounds = static_cast<std::size_t>(r.u64());
  p.max_rounds = static_cast<std::size_t>(r.u64());
  p.admit_spread_ticks = static_cast<std::size_t>(r.u64());
  p.include_des = r.u8() != 0;
  const std::uint8_t force_kind = r.u8();
  p.force_kind = force_kind == 0xFF ? -1 : static_cast<int>(force_kind);
  checked_params(p);

  const std::uint64_t count = r.u64();
  if (count != p.sessions) throw WireError("fleet trace: session count mismatch");
  // Every count field sizes an allocation, so it must be proven against the
  // bytes still in the stream *before* the resize — a corrupt count must
  // fail as WireError, never as bad_alloc. Each session costs at least 16
  // bytes (id + event count); each event at least 9 (kind tag + 8-byte
  // body). Bounding against the remaining bytes (not the total buffer)
  // keeps the check tight deep inside large traces.
  if (count > (buf.size() - r.pos) / 16)
    throw WireError("fleet trace: implausible session count");
  trace.sessions.resize(count);
  for (SessionTrace& s : trace.sessions) {
    s.session_id = r.u64();
    const std::uint64_t events = r.u64();
    if (events > (buf.size() - r.pos) / 9)
      throw WireError("fleet trace: implausible event count");
    s.events.resize(events);
    for (TraceEvent& ev : s.events) {
      const std::uint8_t kind = r.u8();
      switch (kind) {
        case static_cast<std::uint8_t>(FrameKind::kCoast):
          ev.kind = FrameKind::kCoast;
          ev.dt_s = r.f64();
          break;
        case static_cast<std::uint8_t>(FrameKind::kMeasurement): {
          ev.kind = FrameKind::kMeasurement;
          ev.dt_s = r.f64();
          ev.round = r.u32();
          const std::uint64_t len = r.u64();
          r.need(len);
          ev.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(r.pos),
                            buf.begin() + static_cast<std::ptrdiff_t>(r.pos + len));
          r.pos += len;
          break;
        }
        case static_cast<std::uint8_t>(FrameKind::kRoundResult): {
          ev.kind = FrameKind::kRoundResult;
          const std::uint64_t len = r.u64();
          r.need(len);
          ev.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(r.pos),
                            buf.begin() + static_cast<std::ptrdiff_t>(r.pos + len));
          r.pos += len;
          break;
        }
        default:
          throw WireError("fleet trace: unknown frame kind " + std::to_string(kind));
      }
      // dt_s feeds the tracker on replay; NaN or inf would poison it.
      if (!std::isfinite(ev.dt_s)) throw WireError("fleet trace: dt_s must be finite");
    }
  }
  if (r.pos != buf.size()) throw WireError("fleet trace: trailing bytes");
  return trace;
}

FleetTrace load_fleet_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleet trace: cannot open " + path);
  return read_fleet_trace(in);
}

// --- Replayer ---------------------------------------------------------------

Replayer::Replayer(FleetTrace trace) : trace_(std::move(trace)) {
  if (trace_.sessions.size() != trace_.workload.sessions)
    throw WireError("fleet trace: session count != workload sessions");
  workload_ = sim::make_workload(checked_params(trace_.workload));
  if (workload_digest(workload_) != trace_.workload_digest)
    throw WireError(
        "fleet trace: workload digest mismatch — the trace was recorded "
        "against a different workload (generator version skew or a tampered "
        "header); refusing to replay different sessions");
  for (std::size_t i = 0; i < trace_.sessions.size(); ++i)
    if (trace_.sessions[i].session_id != i)
      throw WireError("fleet trace: sessions out of order");
}

Replayer::ReplayResult Replayer::replay(telemetry::Collector* telemetry) const {
  ReplayResult out;
  std::vector<SessionMetrics> metrics(trace_.sessions.size());

  telemetry::Collector* const col =
      telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (col != nullptr) col->open(1);
  telemetry::ShardStream* const tel = col != nullptr ? &col->stream(0) : nullptr;

  RoundRecord recorded;
  for (std::size_t id = 0; id < trace_.sessions.size(); ++id) {
    const sim::GroupScenario& sc = workload_[id];
    SessionConsumer session(sc, trace_.master_seed);
    // The session's i-th coast/measurement event ran at tick admit_tick + i
    // in the live schedule: the admit rode the first event's tick and the
    // evict the last one's. Counter pages are per-window sums, so replaying
    // the sessions one by one rebuilds the pages the interleaved live
    // schedule produced.
    std::size_t event_index = 0;
    const RoundRecord* recomputed = nullptr;  // awaiting its record frame
    for (const TraceEvent& ev : trace_.sessions[id].events) {
      if (ev.kind == FrameKind::kRoundResult) {
        std::size_t pos = 0;
        decode_round_record(ev.payload, pos, recorded);
        if (recomputed == nullptr || !bit_equal(recorded, *recomputed))
          ++out.result_mismatches;
        recomputed = nullptr;
        continue;
      }
      if (tel != nullptr) tel->set_time(static_cast<double>(sc.admit_tick + event_index));
      ++event_index;
      if (session.state() == SessionState::kPending) session.admit(nullptr, tel);
      if (ev.kind == FrameKind::kCoast) {
        session.coast(ev.dt_s);
        recomputed = nullptr;
      } else {
        session.decode(ev.payload);
        recomputed = &session.round(ev.round, ev.dt_s, nullptr);
      }
    }
    session.evict();
    metrics[id] = session.take_metrics();
  }

  out.fleet = finalize_fleet_result(std::move(metrics));
  out.fleet.shards_used = 1;
  return out;
}

}  // namespace uwp::fleet
