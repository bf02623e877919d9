#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "sim/deployment.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/stats.hpp"

namespace uwp::sim {
namespace {

// A trial that consumes a thread-count-dependent-looking mix of draws; if
// streams leaked between trials this would diverge across schedules.
std::vector<double> noisy_trial(std::size_t t, uwp::Rng& rng) {
  std::vector<double> out;
  const int n = 1 + static_cast<int>(t % 3);
  for (int i = 0; i < n; ++i) out.push_back(rng.normal(0.0, 1.0) + rng.uniform(-1, 1));
  return out;
}

TEST(TrialSeed, DistinctAcrossTrialsAndSeeds) {
  EXPECT_NE(trial_seed(1, 0), trial_seed(1, 1));
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
  EXPECT_EQ(trial_seed(42, 7), trial_seed(42, 7));
  // No obvious collisions in a small window.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 1000; ++t) seen.push_back(trial_seed(99, t));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(SweepRunner, BitIdenticalAcrossThreadCounts) {
  SweepResult reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SweepOptions so;
    so.trials = 64;
    so.master_seed = 1234;
    so.threads = threads;
    const SweepResult r = SweepRunner(so).run(noisy_trial);
    EXPECT_EQ(r.threads_used, threads);
    if (threads == 1) {
      reference = r;
      continue;
    }
    // Bit-identical: exact double equality, not approximate.
    ASSERT_EQ(r.samples.size(), reference.samples.size());
    for (std::size_t i = 0; i < r.samples.size(); ++i)
      EXPECT_EQ(r.samples[i], reference.samples[i]) << "sample " << i;
    EXPECT_EQ(r.summary.mean, reference.summary.mean);
    EXPECT_EQ(r.summary.median, reference.summary.median);
    EXPECT_EQ(r.summary.p95, reference.summary.p95);
  }
}

TEST(SweepRunner, MatchesHandRolledSerialReference) {
  SweepOptions so;
  so.trials = 32;
  so.master_seed = 777;
  so.threads = 4;
  const SweepResult r = SweepRunner(so).run(noisy_trial);

  // The contract callers rely on: trial t is exactly Rng(trial_seed(seed, t)).
  std::vector<double> expect;
  for (std::size_t t = 0; t < so.trials; ++t) {
    uwp::Rng rng(trial_seed(so.master_seed, t));
    const auto s = noisy_trial(t, rng);
    expect.insert(expect.end(), s.begin(), s.end());
  }
  ASSERT_EQ(r.samples.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(r.samples[i], expect[i]);
}

TEST(SweepRunner, SamplesKeepTrialOrderNotCompletionOrder) {
  SweepOptions so;
  so.trials = 100;
  so.threads = 4;
  const SweepResult r = SweepRunner(so).run(
      [](std::size_t t, uwp::Rng&) { return std::vector<double>{static_cast<double>(t)}; });
  ASSERT_EQ(r.samples.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(r.samples[i], static_cast<double>(i));
  ASSERT_EQ(r.per_trial.size(), 100u);
  EXPECT_DOUBLE_EQ(r.per_trial[42][0], 42.0);
}

TEST(SweepRunner, FailedTrialsAreCountedAndIsolated) {
  SweepOptions so;
  so.trials = 20;
  so.threads = 2;
  const SweepResult r = SweepRunner(so).run([](std::size_t t, uwp::Rng&) {
    if (t % 5 == 0) throw std::runtime_error("unlucky topology");
    return std::vector<double>{1.0};
  });
  EXPECT_EQ(r.failed_trials, 4u);
  EXPECT_EQ(r.samples.size(), 16u);
  EXPECT_TRUE(r.per_trial[0].empty());
  EXPECT_FALSE(r.per_trial[1].empty());
  EXPECT_DOUBLE_EQ(r.summary.mean, 1.0);
}

TEST(SweepRunner, SummaryMatchesStatsOverFlattenedSamples) {
  SweepOptions so;
  so.trials = 40;
  so.threads = 3;
  const SweepResult r = SweepRunner(so).run(noisy_trial);
  const Summary direct = uwp::summarize(r.samples);
  EXPECT_EQ(r.summary.count, direct.count);
  EXPECT_EQ(r.summary.mean, direct.mean);
  EXPECT_EQ(r.summary.p90, direct.p90);
  EXPECT_EQ(r.summary.max, direct.max);
}

TEST(SweepRunner, NanSentinelsStayInPerTrialButNotInSamples) {
  // Fixed-position trial rows use NaN to mark misses (e.g. a mic mode that
  // failed to detect); those must never reach summarize(), whose percentile
  // sort has undefined behavior on NaN.
  SweepOptions so;
  so.trials = 10;
  so.threads = 2;
  const double kMiss = std::numeric_limits<double>::quiet_NaN();
  const SweepResult r = SweepRunner(so).run([&](std::size_t t, uwp::Rng&) {
    return std::vector<double>{static_cast<double>(t), t % 2 == 0 ? kMiss : 1.0};
  });
  ASSERT_EQ(r.per_trial.size(), 10u);
  EXPECT_TRUE(std::isnan(r.per_trial[0][1]));  // row kept verbatim
  EXPECT_EQ(r.samples.size(), 15u);            // 10 indices + 5 non-NaN flags
  for (const double x : r.samples) EXPECT_FALSE(std::isnan(x));
  EXPECT_EQ(r.summary.count, 15u);
  EXPECT_DOUBLE_EQ(r.summary.max, 9.0);
}

// The documented pattern for keeping per-worker contexts warm across
// *several* sweeps: the factory leases contexts from a caller-owned pool and
// the shared_ptr deleter returns them, so sweep 2 reuses sweep 1's contexts
// instead of building fresh ones — without giving up bit-reproducibility.
TEST(SweepRunner, WarmContextReuseAcrossSweeps) {
  struct Ctx {
    std::size_t trials_run = 0;  // stands in for warm solver workspaces
  };
  std::mutex mu;
  std::vector<std::unique_ptr<Ctx>> pool;
  std::size_t created = 0;
  const auto factory = [&]() -> std::shared_ptr<void> {
    std::unique_ptr<Ctx> ctx;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!pool.empty()) {
        ctx = std::move(pool.back());
        pool.pop_back();
      } else {
        ++created;
        ctx = std::make_unique<Ctx>();
      }
    }
    return {ctx.release(), [&](void* p) {
              const std::lock_guard<std::mutex> lock(mu);
              pool.emplace_back(static_cast<Ctx*>(p));
            }};
  };
  const auto trial = [](std::size_t t, uwp::Rng& rng, void* ctx) {
    ++static_cast<Ctx*>(ctx)->trials_run;
    return noisy_trial(t, rng);
  };

  SweepOptions so;
  so.trials = 24;
  so.master_seed = 52;
  so.threads = 2;
  const SweepResult first = SweepRunner(so).run(factory, trial);
  ASSERT_LE(created, 2u);  // at most one context per lane
  EXPECT_EQ(pool.size(), created);  // every context came back to the pool

  const SweepResult second = SweepRunner(so).run(factory, trial);
  // The second sweep drew on the first sweep's warm contexts before building
  // any: a lane only creates one when the pool is empty, so the two sweeps
  // together never hold more contexts than lanes. (How many the first sweep
  // built is a scheduling accident: one pool thread may claim every trial
  // before the other lane starts.)
  EXPECT_LE(created, 2u);
  EXPECT_EQ(pool.size(), created);
  std::size_t trials_run = 0;
  for (const auto& ctx : pool) trials_run += ctx->trials_run;
  EXPECT_EQ(trials_run, 2 * so.trials);

  // ...and context reuse never leaks into the results: both sweeps match the
  // context-free serial reference bit for bit.
  so.threads = 1;
  const SweepResult reference = SweepRunner(so).run(noisy_trial);
  ASSERT_EQ(first.samples.size(), reference.samples.size());
  ASSERT_EQ(second.samples.size(), reference.samples.size());
  for (std::size_t i = 0; i < reference.samples.size(); ++i) {
    EXPECT_EQ(first.samples[i], reference.samples[i]) << "sample " << i;
    EXPECT_EQ(second.samples[i], reference.samples[i]) << "sample " << i;
  }
}

TEST(SweepRunner, ZeroTrialsYieldsEmptyResult) {
  SweepOptions so;
  so.trials = 0;
  const SweepResult r = SweepRunner(so).run(noisy_trial);
  EXPECT_TRUE(r.samples.empty());
  EXPECT_EQ(r.summary.count, 0u);
  EXPECT_EQ(r.failed_trials, 0u);
}

// End-to-end: a fast-mode scenario sweep (the fig18-style workload) is
// deterministic across thread counts and lands in the paper's error regime.
TEST(SweepRunner, ScenarioFastModeSweepDeterministicAndSane) {
  uwp::Rng dep_rng(4);
  const ScenarioRunner runner(make_dock_testbed(dep_rng));
  RoundOptions opts;
  opts.waveform_phy = false;

  const auto trial = [&runner, &opts](std::size_t, uwp::Rng& rng) {
    const RoundResult res = runner.run_round(opts, rng);
    if (!res.ok) return std::vector<double>{};
    return std::vector<double>(res.error_2d.begin() + 1, res.error_2d.end());
  };

  SweepOptions so;
  so.trials = 16;
  so.master_seed = 18;
  so.threads = 1;
  const SweepResult serial = SweepRunner(so).run(trial);
  so.threads = 4;
  const SweepResult parallel = SweepRunner(so).run(trial);

  ASSERT_FALSE(serial.samples.empty());
  ASSERT_EQ(parallel.samples.size(), serial.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i)
    EXPECT_EQ(parallel.samples[i], serial.samples[i]) << "sample " << i;
  EXPECT_LT(serial.summary.median, 2.5);
}

}  // namespace
}  // namespace uwp::sim
