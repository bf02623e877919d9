#include "core/smacof.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/rigidity.hpp"
#include "util/linalg.hpp"
#include "util/simd_kernels.hpp"

namespace uwp::core {

double weighted_stress(const std::vector<Vec2>& x, const Matrix& dist, const Matrix& w) {
  double s = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> wrow = w.row(i);
    const std::span<const double> drow = dist.row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (wrow[j] <= 0.0) continue;
      const double resid = drow[j] - distance(x[i], x[j]);
      s += wrow[j] * resid * resid;
    }
  }
  return s;
}

namespace {

using Ops = simd::ActiveOps;

// Flatten the i < j, w > 0 links into the padded SoA form the kernels gather
// from. The link set is a pure function of the weight pattern, so one build
// serves every start (and every Guttman iteration) of a solve.
void build_links(LinkSoA& soa, const Matrix& dist, const Matrix& w) {
  const std::size_t n = w.rows();
  soa.i.clear();
  soa.j.clear();
  soa.w.clear();
  soa.d.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> wrow = w.row(i);
    const std::span<const double> drow = dist.row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (wrow[j] <= 0.0) continue;
      soa.i.push_back(static_cast<std::uint32_t>(i));
      soa.j.push_back(static_cast<std::uint32_t>(j));
      soa.w.push_back(wrow[j]);
      soa.d.push_back(drow[j]);
    }
  }
  soa.count = soa.w.size();
  soa.padded = simd::padded(soa.count);
  soa.i.resize(soa.padded, 0);
  soa.j.resize(soa.padded, 0);
  soa.w.resize(soa.padded, 0.0);
  soa.d.resize(soa.padded, 0.0);
}

// One SMACOF solve from a given start, writing into `res`. Runs entirely on
// the workspace's padded SoA buffers: per-iteration link distances + stress
// come from one link_stress pass (distances reused by the next B fill), the
// Guttman products are fused 2-column mat-vecs over the padded B and V^+
// (`vp`) planes. The caller has built ws.links and zeroed ws.b_pad for this
// link set.
void run_from(SmacofResult& res, const std::vector<Vec2>& start,
              const SmacofOptions& opts, const double* vp, SmacofWorkspace& ws) {
  const std::size_t n = start.size();
  const std::size_t np = simd::padded(n);
  const LinkSoA& links = ws.links;
  res.num_links = links.count;
  res.iterations = 0;

  ws.x.assign(np, 0.0);
  ws.y.assign(np, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    ws.x[k] = start[k].x;
    ws.y[k] = start[k].y;
  }
  ws.bx_x.assign(np, 0.0);
  ws.bx_y.assign(np, 0.0);
  ws.dij.resize(links.padded);
  ws.bvals.resize(links.padded);
  double* const x = ws.x.data();
  double* const y = ws.y.data();
  double* const dij = ws.dij.data();
  double* const bvals = ws.bvals.data();
  double* const b = ws.b_pad.data();

  const auto rms = [&](double s) {
    return links.count > 0 ? std::sqrt(s / static_cast<double>(links.count)) : 0.0;
  };
  double stress = kernels::link_stress<Ops>(x, y, links.i.data(), links.j.data(),
                                            links.w.data(), links.d.data(), dij,
                                            links.padded);
  double residual = rms(stress);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    // Guttman transform: B(X) then X <- V^+ B(X) X. Link distances come from
    // the stress evaluation of the same configuration (computed once).
    kernels::guttman_b_values<Ops>(links.w.data(), links.d.data(), dij, bvals,
                                   links.padded);
    for (std::size_t k = 0; k < links.count; ++k) {
      const std::size_t i = links.i[k];
      const std::size_t j = links.j[k];
      b[i * np + j] = bvals[k];
      b[j * np + i] = bvals[k];
    }
    // Diagonal = -(row sum): zero the stale diagonal slot first so the
    // blocked row sum sees only off-diagonal values.
    for (std::size_t i = 0; i < n; ++i) b[i * np + i] = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      b[i * np + i] = -kernels::block_sum<Ops>(b + i * np, np);
    kernels::matvec2<Ops>(b, np, n, x, y, ws.bx_x.data(), ws.bx_y.data());
    kernels::matvec2<Ops>(vp, np, n, ws.bx_x.data(), ws.bx_y.data(), x, y);

    const double new_stress = kernels::link_stress<Ops>(
        x, y, links.i.data(), links.j.data(), links.w.data(), links.d.data(), dij,
        links.padded);
    const double new_residual = rms(new_stress);
    res.iterations = iter + 1;
    // Written so that a NaN residual (non-finite input) stops the solve too.
    const bool converged = !(residual - new_residual > opts.tolerance_m);
    stress = new_stress;
    residual = new_residual;
    if (converged) break;
  }
  res.stress = stress;
  res.normalized_stress = residual;
  res.positions.resize(n);
  for (std::size_t k = 0; k < n; ++k) res.positions[k] = {x[k], y[k]};
}

// V = diag(sum_j w_ij) - W.
void build_v(const Matrix& w, Matrix& v) {
  const std::size_t n = w.rows();
  v.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      v(i, j) = -w(i, j);
      diag += w(i, j);
    }
    v(i, i) = diag;
  }
}

// V^+ = (V + 11^T/n)^-1 - 11^T/n for connected weights, into the zeroed
// padded plane: A = V + 11^T/n = L L^T (Cholesky, L in the lower triangle of
// ws.v), M = L^-1 (lower triangle of ws.v_pinv), A^-1 = M^T M. False, with
// the plane untouched, if a pivot is not a positive finite number: A is not
// positive definite (negative weights) or breaks down in floating point
// (non-finite or extreme weights).
bool cholesky_v_pinv(const Matrix& w, SmacofWorkspace& ws, double* plane) {
  const std::size_t n = w.rows();
  const std::size_t np = simd::padded(n);
  const double shift = 1.0 / static_cast<double>(n);
  Matrix& l = ws.v;
  l.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (j < i) l(i, j) = shift - w(i, j);
      diag += w(i, j);
    }
    l(i, i) = diag + shift;
  }
  // The diagonal of M = L^-1 is 1 / L(j, j); multiplying by it replaces
  // every division of both triangular passes.
  Matrix& m = ws.v_pinv;
  m.assign(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double d = l(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > 0.0 && d <= std::numeric_limits<double>::max())) return false;
    l(j, j) = std::sqrt(d);
    m(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s * m(j, j);
    }
  }
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      double s = 0.0;
      for (std::size_t k = j; k < i; ++k) s += l(i, k) * m(k, j);
      m(i, j) = -s * m(i, i);
    }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = j; k < n; ++k) s += m(k, i) * m(k, j);
      plane[i * np + j] = plane[j * np + i] = s - shift;
    }
  return true;
}

}  // namespace

const double* smacof_v_pinv(const Matrix& w, SmacofWorkspace& ws) {
  const std::size_t n = w.rows();
  const std::size_t np = simd::padded(n);
  ws.vp_pad.assign(np * np, 0.0);
  double* const plane = ws.vp_pad.data();
  if (n > 0 && is_connected(w) && cholesky_v_pinv(w, ws, plane)) return plane;
  // Disconnected graphs: the pseudo-inverse handles every zero eigenvalue,
  // one per connected component.
  build_v(w, ws.v);
  pseudo_inverse_symmetric_into(ws.v, ws.v_pinv, ws.mds.eigen);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> prow = ws.v_pinv.row(i);
    std::copy(prow.begin(), prow.end(), plane + i * np);
  }
  return plane;
}

SmacofResult smacof_2d(const Matrix& dist, const Matrix& w, const SmacofOptions& opts,
                       uwp::Rng& rng, const std::optional<std::vector<Vec2>>& init) {
  SmacofWorkspace ws;
  SmacofResult out;
  smacof_2d_into(out, dist, w, opts, rng, init ? &*init : nullptr, ws);
  return out;
}

void smacof_2d_into(SmacofResult& out, const Matrix& dist, const Matrix& w,
                    const SmacofOptions& opts, uwp::Rng& rng,
                    const std::vector<Vec2>* init, SmacofWorkspace& ws) {
  const std::size_t n = dist.rows();
  if (dist.cols() != n || w.rows() != n || w.cols() != n)
    throw std::invalid_argument("smacof_2d: shape mismatch");
  // Reset without releasing the caller's buffers.
  out.positions.clear();
  out.stress = 0.0;
  out.normalized_stress = 0.0;
  out.iterations = 0;
  out.num_links = 0;
  if (n == 0) return;
  if (n == 1) {
    out.positions.assign(1, Vec2{0, 0});
    return;
  }

  const std::size_t np = simd::padded(n);
  const double* const vp = smacof_v_pinv(w, ws);
  build_links(ws.links, dist, w);
  // The previous solve may have had a different link pattern: clear the whole
  // padded B plane so non-link (and pad) entries are exactly zero again.
  ws.b_pad.assign(np * np, 0.0);

  const std::size_t num_starts = 1 + static_cast<std::size_t>(
                                         opts.random_restarts > 0 ? opts.random_restarts : 0);
  if (ws.starts.size() < num_starts) ws.starts.resize(num_starts);
  if (init) {
    ws.starts[0].assign(init->begin(), init->end());
  } else {
    classical_mds_2d_weighted_into(ws.starts[0], dist, w, ws.mds);
  }
  for (std::size_t r = 1; r < num_starts; ++r) {
    std::vector<Vec2>& rand_start = ws.starts[r];
    rand_start.resize(n);
    for (Vec2& p : rand_start)
      p = {rng.uniform(-opts.init_spread, opts.init_spread),
           rng.uniform(-opts.init_spread, opts.init_spread)};
  }

  bool have = false;
  for (std::size_t s = 0; s < num_starts; ++s) {
    run_from(ws.scratch, ws.starts[s], opts, vp, ws);
    if (!have || ws.scratch.stress < out.stress) {
      std::swap(out, ws.scratch);
      have = true;
    }
  }
}

}  // namespace uwp::core
