// Monte-Carlo sweep engine: fans N independent scenario trials across
// hardware threads. Every figure bench in the paper (fig06-fig22) is an
// embarrassingly-parallel loop of this shape — draw a random configuration,
// run it, collect error samples — so this is the one place that owns the
// "parallel, yet bit-reproducible" contract:
//
//   * each trial gets its own Rng seeded as splitmix64(master_seed, trial),
//     so trial streams never depend on execution order or thread count;
//   * samples are stored at the trial's index and flattened in trial order,
//     so the aggregate is bit-identical for any thread count, including the
//     serial threads=1 reference.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/random.hpp"
#include "util/stats.hpp"

namespace uwp::sim {

struct SweepOptions {
  std::size_t trials = 200;
  std::uint64_t master_seed = 0x75770517u;
  // 0 = all hardware threads; 1 = serial (no pool, reference path).
  std::size_t threads = 0;
};

struct SweepResult {
  // Samples contributed by each trial, indexed by trial number. Rows are
  // kept verbatim, including any NaN sentinels a trial uses to mark misses
  // in fixed-position rows.
  std::vector<std::vector<double>> per_trial;
  // All samples flattened in trial order (not completion order). NaN
  // entries are excluded here so `summary` is always well-defined (sorting
  // NaNs is undefined behavior in percentile()).
  std::vector<double> samples;
  Summary summary;
  // Trials whose function threw (their sample set is empty).
  std::size_t failed_trials = 0;
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;
};

// One independent trial: produces zero or more samples (e.g. per-device
// localization errors) from its private deterministic stream.
using TrialFn = std::function<std::vector<double>(std::size_t trial, Rng& rng)>;

// Per-worker reusable context: `ContextFactory` runs once per worker lane
// and its product is handed to every trial that lane executes. This is how
// a pipeline::RoundPipeline (or sim::ScenarioRoundContext) keeps its solver
// workspaces warm across trials — trial results must not depend on the
// context's prior state, or bit-reproducibility across thread counts is
// lost.
//
// Example — one warm RoundPipeline per lane, reset between trials:
//
//   sim::SweepRunner runner(opts);
//   const sim::SweepResult res = runner.run(
//       [&] { return std::make_shared<pipeline::RoundPipeline>(popts); },
//       [&](std::size_t trial, uwp::Rng& rng, void* ctx) {
//         auto& pipe = *static_cast<pipeline::RoundPipeline*>(ctx);
//         pipe.reset();  // forget cross-round state; workspaces stay warm
//         pipeline::RoundMeasurement m;
//         model_for(trial).measure(m, rng);
//         const pipeline::RoundOutput& out = pipe.run_round(m, rng);
//         return std::vector<double>(out.error_2d.begin() + 1,
//                                    out.error_2d.end());
//       });
//
// Contexts live for one run() call. To stay warm across *several* sweeps,
// hand out contexts from a caller-owned pool and return them from the
// shared_ptr deleter — the next sweep's factory then reuses them instead of
// allocating fresh ones (tests/sim/sweep_test.cpp shows the pattern).
using ContextFactory = std::function<std::shared_ptr<void>()>;
using ContextTrialFn =
    std::function<std::vector<double>(std::size_t trial, Rng& rng, void* ctx)>;

// Thread-count convention shared by the bench binaries: `--threads=N` on the
// command line wins, else the UWP_THREADS environment variable, else 0 (all
// hardware threads). `--threads=1` is the serial reference path. Values that
// are not plain decimal digits fall back to 0; anything above 1024 is capped
// there (a typo'd or negative count must not try to spawn 2^64 workers).
std::size_t threads_from_args(int argc, char** argv);

// Packet-trace output convention for the DES binaries: the value of
// `--trace-out=FILE`, or nullptr when absent (tracing disabled).
const char* trace_out_from_args(int argc, char** argv);

// Accumulates sweep cost across a bench's series for the closing
// "[sweep] N trials across T threads in S s" footer.
struct SweepTally {
  std::size_t trials = 0;
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;

  void add(const SweepResult& r);
  void print_footer() const;
};

// Per-trial seed derivation (splitmix64 over master_seed + trial). Exposed so
// callers that need matched sub-streams (e.g. a paired baseline comparison on
// identical channel draws) can reproduce a trial outside the sweep.
std::uint64_t trial_seed(std::uint64_t master_seed, std::uint64_t trial);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  const SweepOptions& options() const { return opts_; }

  // Run all trials; blocks until done. Thread-safe w.r.t. the trial function
  // as long as `fn` only mutates its own trial's state (shared captures must
  // be read-only).
  SweepResult run(const TrialFn& fn) const;

  // Same contract, with a per-worker context (created lazily, one per lane).
  SweepResult run(const ContextFactory& make_context, const ContextTrialFn& fn) const;

 private:
  SweepOptions opts_;
};

}  // namespace uwp::sim
