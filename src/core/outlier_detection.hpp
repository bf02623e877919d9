// Iterative outlier-link detection (paper Algorithm 1, §2.1.3). Occluded
// links whose multipath was mistaken for the direct path inflate the SMACOF
// stress; the detector drops growing subsets of links, re-running SMACOF on
// each candidate subset, and accepts a drop when the normalized stress
// collapses (>= 90% reduction). Candidate solves are warm-started from the
// current best layout (cheaper than the realizability check, which is
// deferred to candidates that actually improve); subsets that would leave
// the graph not uniquely realizable are never accepted, and at most
// `max_outliers` links are dropped.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/rigidity.hpp"
#include "core/smacof.hpp"

namespace uwp::core {

struct OutlierOptions {
  // Normalized-stress acceptance threshold, in meters of RMS link residual
  // sqrt(S / #links). The paper normalizes S by the link count and uses 1.5;
  // with our sqrt scale, clean rounds (0.5-0.9 m ranging noise) sit near
  // 0.1-0.3 m while a single occluded link pushes past 0.7 m, so 0.5 m
  // separates the regimes (measured in tests; documented in DESIGN.md).
  double stress_threshold = 0.5;
  // Required relative stress reduction to accept a dropped subset (0.9 in
  // the paper: "E0 - E' > 0.9 * E0").
  double drop_ratio = 0.9;
  int max_outliers = 3;  // O_max
  // Candidate-pool cap for large graphs. Algorithm 1 enumerates C(L, k)
  // subsets — fine for the paper's 5-7 devices (C(10, 3) = 120) but
  // combinatorial at swarm scale (C(190, 3) > 1M SMACOF solves at N = 20).
  // When the link count exceeds this, only the links with the largest
  // absolute residuals in the initial all-links fit stay eligible for
  // dropping; an occluded link is exactly a high-residual one, so the
  // pruning costs little accuracy and bounds the subset count. 28 =
  // C(8, 2): every fully-connected group up to the paper's largest (N = 8)
  // keeps the exhaustive subset enumeration.
  std::size_t max_suspect_links = 28;
  SmacofOptions smacof{};
};

struct OutlierResult {
  std::vector<Vec2> positions;
  double normalized_stress = 0.0;
  std::vector<Edge> dropped_links;
  bool outliers_suspected = false;  // initial stress exceeded the threshold
  // Final weight matrix actually used (input weights minus dropped links).
  Matrix weights;
  // Total SMACOF iterations spent on this round (base solve + every
  // candidate solve, each solved exactly once). A pure function of the
  // inputs, so it is part of the deterministic telemetry plane, not a
  // timing.
  std::int64_t iterations = 0;
};

// Reusable scratch for localize_with_outlier_detection_into. One
// SmacofWorkspace serves the base solve and then every candidate solve in
// turn (each computes its own V^+ there, see smacof_v_pinv): once the base
// result sits in `base`, the solver scratch is free. No state carries from
// one call to the next.
struct OutlierWorkspace {
  SmacofWorkspace smacof;
  SmacofResult base, candidate, best;  // base solve; latest and level-best candidate
  Matrix w;                            // candidate weights (subset dropped)
  std::vector<Edge> links, remaining;
  std::vector<std::size_t> pool, subset_slots, dropped;
  std::vector<double> residual;
};

// Algorithm 1: localize with outlier detection. `dist` is the projected 2D
// distance matrix, `weights` the initial link indicator matrix. When `init`
// is given (a predicted layout from a tracker, say) the base solve warm
// starts from it with no random restarts — no rng draws — instead of the
// cold classical-MDS + restarts seed. A non-finite base stress (a NaN or inf
// distance on a link) skips the search and is returned as is. All scratch
// lives in `ws`: no steady-state heap traffic on clean (below-threshold)
// rounds.
void localize_with_outlier_detection_into(OutlierResult& out, const Matrix& dist,
                                          const Matrix& weights,
                                          const OutlierOptions& opts, uwp::Rng& rng,
                                          OutlierWorkspace& ws,
                                          const std::vector<Vec2>* init = nullptr);

// Enumeration helper: all size-k subsets of [0, n) (exposed for tests).
std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k);

}  // namespace uwp::core
