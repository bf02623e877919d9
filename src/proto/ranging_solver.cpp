#include "proto/ranging_solver.hpp"

#include <cmath>
#include <vector>

namespace uwp::proto {

RangingSolution RangingSolver::solve(const ProtocolRun& run) const {
  RangingSolution out;
  solve_into(out, run);
  return out;
}

void RangingSolver::solve_into(RangingSolution& out, const ProtocolRun& run) const {
  const std::size_t n = cfg_.num_devices;
  out.distances.assign(n, n);
  out.weights.assign(n, n);
  out.two_way_links = 0;
  out.one_way_links = 0;
  const double c = cfg_.sound_speed_mps;

  // A non-finite timestamp (NaN for a failed detection, or inf off the
  // wire) is a missing one.
  auto have = [&](std::size_t i, std::size_t j) {
    return run.heard(i, j) > 0.0 && std::isfinite(run.timestamps(i, j));
  };

  // Two-way estimates.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!(have(i, j) && have(j, i) && have(i, i) && have(j, j))) continue;
      const double d = c / 2.0 *
                       ((run.timestamps(i, j) - run.timestamps(i, i)) -
                        (run.timestamps(j, j) - run.timestamps(j, i)));
      // Physically impossible, or overflowed from huge finite timestamps:
      // treat as missing.
      if (!(d > 0.0 && std::isfinite(d))) continue;
      out.distances(i, j) = out.distances(j, i) = d;
      out.weights(i, j) = out.weights(j, i) = 1.0;
      ++out.two_way_links;
    }
  }

  // One-way fallback through leader-referenced clock offsets: requires
  // two-way distances to the leader for both endpoints and leader-synced
  // local clocks (sync_ref == 0), so that local zero == leader-message
  // arrival and tau_0x == D_0x / c.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (out.weights(i, j) > 0.0) continue;
      if (out.weights(0, i) <= 0.0 || out.weights(0, j) <= 0.0) continue;
      if (run.sync_ref[i] != 0 || run.sync_ref[j] != 0) continue;
      const double tau_0i = out.distances(0, i) / c;
      const double tau_0j = out.distances(0, j) / c;
      double d = 0.0;
      if (have(i, j) && have(j, j)) {
        d = c * (run.timestamps(i, j) - run.timestamps(j, j) + tau_0i - tau_0j);
      } else if (have(j, i) && have(i, i)) {
        d = c * (run.timestamps(j, i) - run.timestamps(i, i) + tau_0j - tau_0i);
      } else {
        continue;
      }
      if (!(d > 0.0 && std::isfinite(d))) continue;
      out.distances(i, j) = out.distances(j, i) = d;
      out.weights(i, j) = out.weights(j, i) = 1.0;
      ++out.one_way_links;
    }
  }
}

}  // namespace uwp::proto
