#include "core/outlier_detection.hpp"

#include <algorithm>
#include <cmath>

namespace uwp::core {

namespace {

// In-place lexicographic advance of a k-subset of [0, n) (k >= 1). Visits
// subsets in exactly the order subsets_of_size materializes them.
bool advance_subset(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t k = idx.size();
  std::size_t i = k;
  while (i-- > 0) {
    if (idx[i] != i + n - k) {
      ++idx[i];
      for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
    if (i == 0) return false;
  }
  return false;
}

}  // namespace

std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  // Built on the same advance the search loop uses in place, so the
  // enumeration order cannot drift apart.
  do {
    out.push_back(idx);
  } while (advance_subset(idx, n));
  return out;
}

void localize_with_outlier_detection_into(OutlierResult& out, const Matrix& dist,
                                          const Matrix& weights,
                                          const OutlierOptions& opts, uwp::Rng& rng,
                                          OutlierWorkspace& ws,
                                          const std::vector<Vec2>* init) {
  const std::size_t n = dist.rows();
  std::vector<Edge>& links = ws.links;
  links.clear();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (weights(i, j) > 0.0) links.emplace_back(i, j);

  out.weights = weights;
  out.dropped_links.clear();
  out.outliers_suspected = false;

  SmacofOptions warm = opts.smacof;
  warm.random_restarts = 0;

  // Initial solve on all links. A caller-provided init (tracker-predicted
  // geometry) replaces the cold classical-MDS seed and skips the random
  // restarts — and with them every rng draw of the solve.
  SmacofResult& base = ws.base;
  if (init != nullptr)
    smacof_2d_into(base, dist, weights, warm, rng, init, ws.smacof);
  else
    smacof_2d_into(base, dist, weights, opts.smacof, rng, nullptr, ws.smacof);
  out.positions.assign(base.positions.begin(), base.positions.end());
  out.normalized_stress = base.normalized_stress;
  out.iterations = base.iterations;
  // A clean fit needs no search, and neither does a non-finite one (NaN or
  // inf input): no candidate can repair it, and the caller fails the round.
  if (!std::isfinite(base.normalized_stress) ||
      base.normalized_stress < opts.stress_threshold)
    return;

  out.outliers_suspected = true;

  // Candidate pool: all links while the subset enumeration stays cheap;
  // past max_suspect_links, only the worst-fitting links of the initial
  // solve are eligible (see OutlierOptions::max_suspect_links).
  std::vector<std::size_t>& pool = ws.pool;
  pool.resize(links.size());
  for (std::size_t li = 0; li < links.size(); ++li) pool[li] = li;
  if (links.size() > opts.max_suspect_links) {
    std::vector<double>& residual = ws.residual;
    residual.resize(links.size());
    for (std::size_t li = 0; li < links.size(); ++li) {
      const auto [a, b] = links[li];
      residual[li] = std::abs(distance(base.positions[a], base.positions[b]) -
                              dist(a, b));
    }
    std::sort(pool.begin(), pool.end(), [&](std::size_t x, std::size_t y) {
      if (residual[x] != residual[y]) return residual[x] > residual[y];
      return x < y;  // deterministic tie-break
    });
    pool.resize(opts.max_suspect_links);
    std::sort(pool.begin(), pool.end());  // keep enumeration order stable
  }
  // Level k tries every k-subset of the pool in enumeration order. Each
  // candidate warm-starts from the previous level's best layout (`out`), so
  // it draws nothing from `rng`, and runs on the base solve's workspace. A
  // candidate becomes the level's best only on a strictly lower stress, so a
  // tie keeps the earlier subset.
  std::vector<std::size_t>& dropped = ws.dropped;  // links[] indices
  dropped.clear();
  std::vector<std::size_t>& slots = ws.subset_slots;  // pool[] indices
  const std::size_t max_drop = static_cast<std::size_t>(std::max(opts.max_outliers, 0));
  for (std::size_t k = 1; k <= max_drop && k <= pool.size(); ++k) {
    const double e0 = out.normalized_stress;
    double best_stress = e0;
    slots.resize(k);
    for (std::size_t i = 0; i < k; ++i) slots[i] = i;
    do {
      // Build the candidate weight matrix with this subset removed.
      ws.w = weights;
      ws.remaining.clear();
      for (std::size_t li = 0, s = 0; li < links.size(); ++li) {
        if (s < k && pool[slots[s]] == li) {
          ++s;
          ws.w(links[li].first, links[li].second) = 0.0;
          ws.w(links[li].second, links[li].first) = 0.0;
        } else {
          ws.remaining.push_back(links[li]);
        }
      }
      smacof_2d_into(ws.candidate, dist, ws.w, warm, rng, &out.positions, ws.smacof);
      out.iterations += ws.candidate.iterations;
      const double ns = ws.candidate.normalized_stress;
      const bool significant = e0 - ns > opts.drop_ratio * e0;
      if (!significant || !(ns < best_stress)) continue;
      // Only accept when the remaining graph is still uniquely realizable —
      // otherwise the "improvement" is just the looser problem. Checked
      // after the solve, so every candidate is solved and counted in
      // `iterations`.
      if (!is_uniquely_realizable_2d(n, ws.remaining)) continue;
      best_stress = ns;
      dropped.clear();
      for (const std::size_t slot : slots) dropped.push_back(pool[slot]);
      std::swap(ws.best, ws.candidate);
    } while (advance_subset(slots, pool.size()));

    // Keep the level's best if any candidate improved; stop once it is
    // below the threshold, else try dropping a larger subset.
    if (!(best_stress < e0)) continue;
    out.positions.assign(ws.best.positions.begin(), ws.best.positions.end());
    out.normalized_stress = best_stress;
    if (out.normalized_stress < opts.stress_threshold) break;
  }

  for (std::size_t li : dropped) {
    out.dropped_links.push_back(links[li]);
    out.weights(links[li].first, links[li].second) = 0.0;
    out.weights(links[li].second, links[li].first) = 0.0;
  }
}

}  // namespace uwp::core
