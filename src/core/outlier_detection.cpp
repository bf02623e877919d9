#include "core/outlier_detection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

constexpr std::size_t kNoCandidate = std::numeric_limits<std::size_t>::max();

// The serial accept rule as an order: a strictly lower stress wins and a tie
// goes to the lower enumeration index; nothing ties the level's start.
bool beats(double stress, std::size_t ci, double best_stress, std::size_t best_ci) {
  return stress < best_stress ||
         (stress == best_stress && best_ci != kNoCandidate && ci < best_ci);
}

}  // namespace

std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  // Built on the same advance the search loops use in place, so the
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
    smacof_2d_into(base, dist, weights, warm, rng, init, ws.smacof_base);
  else
    smacof_2d_into(base, dist, weights, opts.smacof, rng, nullptr, ws.smacof_base);
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
  // One search loop at any thread count. Each level materializes its
  // subsets in enumeration order, evaluates them on lanes (lane 0 inline at
  // one thread, else fanned out across the pool), and reduces the lane
  // bests by (stress, index). Candidate solves warm-start from the best
  // layout so far and draw nothing from `rng`, every lane applies the
  // serial accept rule, and iterations are an integer sum, so the result is
  // bit-identical at any thread count.
  const std::size_t threads = ThreadPool::resolve_thread_count(opts.search_threads);
  if (threads > 1 && (!ws.search_pool || ws.search_pool->size() != threads))
    ws.search_pool = std::make_unique<ThreadPool>(threads);
  if (ws.lanes.size() < threads) ws.lanes.resize(threads);

  // `out` holds the best layout so far.
  std::vector<std::size_t>& dropped = ws.dropped;  // links[] indices
  dropped.clear();
  std::vector<std::size_t>& flat = ws.flat_subsets;
  std::vector<std::size_t>& slots = ws.subset_slots;
  const std::size_t max_drop = static_cast<std::size_t>(std::max(opts.max_outliers, 0));
  for (std::size_t k = 1; k <= max_drop && k <= pool.size(); ++k) {
    flat.clear();
    slots.resize(k);
    for (std::size_t i = 0; i < k; ++i) slots[i] = i;
    do {
      for (std::size_t i = 0; i < k; ++i) flat.push_back(pool[slots[i]]);
    } while (advance_subset(slots, pool.size()));
    const std::size_t m = flat.size() / k;

    const double e0 = out.normalized_stress;
    for (OutlierWorkspace::SearchLane& lane : ws.lanes) {
      lane.iterations = 0;
      lane.best_stress = e0;
      lane.best_ci = kNoCandidate;
    }
    const auto eval = [&](std::size_t lane_idx, std::size_t ci) {
      OutlierWorkspace::SearchLane& lane = ws.lanes[lane_idx];
      const std::size_t* subset = flat.data() + ci * k;
      // Build the candidate weight matrix with this subset removed.
      lane.w = weights;
      lane.remaining.clear();
      for (std::size_t li = 0; li < links.size(); ++li) {
        if (std::find(subset, subset + k, li) != subset + k) {
          lane.w(links[li].first, links[li].second) = 0.0;
          lane.w(links[li].second, links[li].first) = 0.0;
        } else {
          lane.remaining.push_back(links[li]);
        }
      }
      smacof_2d_into(lane.result, dist, lane.w, warm, lane.rng, &out.positions,
                     lane.smacof);
      lane.iterations += lane.result.iterations;
      const double ns = lane.result.normalized_stress;
      const bool significant = e0 - ns > opts.drop_ratio * e0;
      if (!significant || !beats(ns, ci, lane.best_stress, lane.best_ci)) return;
      // Only accept when the remaining graph is still uniquely realizable —
      // otherwise the "improvement" is just the looser problem. Checking is
      // pricier than a warm-started solve, so it waits for candidates that
      // actually improve the stress.
      if (!is_uniquely_realizable_2d(n, lane.remaining)) return;
      lane.best_stress = ns;
      lane.best_ci = ci;
      lane.best_positions.assign(lane.result.positions.begin(),
                                 lane.result.positions.end());
    };
    if (threads > 1) {
      ws.search_pool->parallel_for_lanes(m, eval);
    } else {
      for (std::size_t ci = 0; ci < m; ++ci) eval(0, ci);
    }

    const OutlierWorkspace::SearchLane* best = &ws.lanes[0];
    for (const OutlierWorkspace::SearchLane& lane : ws.lanes) {
      out.iterations += lane.iterations;
      if (beats(lane.best_stress, lane.best_ci, best->best_stress, best->best_ci))
        best = &lane;
    }
    // Keep the best found so far; stop once it is below the threshold,
    // else try dropping a larger subset.
    if (best->best_ci == kNoCandidate) continue;
    out.positions.assign(best->best_positions.begin(), best->best_positions.end());
    out.normalized_stress = best->best_stress;
    const std::size_t* subset = flat.data() + best->best_ci * k;
    dropped.assign(subset, subset + k);
    if (out.normalized_stress < opts.stress_threshold) break;
  }

  for (std::size_t li : dropped) {
    out.dropped_links.push_back(links[li]);
    out.weights(links[li].first, links[li].second) = 0.0;
    out.weights(links[li].second, links[li].first) = 0.0;
  }
}

}  // namespace uwp::core
