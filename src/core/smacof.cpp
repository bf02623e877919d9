#include "core/smacof.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

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

  double stress = kernels::link_stress<Ops>(x, y, links.i.data(), links.j.data(),
                                            links.w.data(), links.d.data(), dij,
                                            links.padded);
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
    res.iterations = iter + 1;
    if (stress - new_stress <= opts.rel_tolerance * std::max(stress, 1e-30)) {
      stress = new_stress;
      break;
    }
    stress = new_stress;
  }
  res.stress = stress;
  res.normalized_stress =
      res.num_links > 0 ? std::sqrt(stress / static_cast<double>(res.num_links)) : 0.0;
  res.positions.resize(n);
  for (std::size_t k = 0; k < n; ++k) res.positions[k] = {x[k], y[k]};
}

// The memo behind smacof_v_pinv. Algorithm 1 re-solves the same few
// thousand drop patterns of each base graph (a K8 base walks 3,682 of them),
// so a thread keeps every plane it computes until LRU pushes it out of its
// set. Planes are handed out in fill order from 32 KB chunks allocated on
// demand, so a thread's memo grows with the patterns it has seen (a
// 5-device workload fills a few hundred KB). Every block stays under
// malloc's mmap threshold: a multi-MB block freed at each thread exit
// would raise that threshold for the whole process and keep later large
// buffers resident.
class VPinvMemo {
 public:
  static constexpr std::size_t kMaxNodes = 8;
  static constexpr std::size_t kPlane = kMaxNodes * kMaxNodes;
  static constexpr std::size_t kWays = 4;
  static constexpr unsigned kSetBits = 11;  // 2,048 sets, 8,192 slots
  static constexpr std::size_t kChunkPlanes = 64;
  static constexpr std::size_t kChunks = (kWays << kSetBits) / kChunkPlanes;

  // The plane stored under `key` (hit = true), or else the least recently
  // used plane of its set, now stored under `key` for the caller to fill.
  double* lookup(std::uint32_t key, bool& hit) {
    if (!sets_) sets_.reset(new Set[std::size_t{1} << kSetBits]());
    Set& set = sets_[(key * 0x9E3779B1u) >> (32 - kSetBits)];
    // Ways are kept most recently used first; empty ways (key 0) trail.
    std::size_t way = 0;
    while (way + 1 < kWays && set.key[way] != key) ++way;
    hit = set.key[way] == key;
    if (hit) {
      ++stats.hits;
    } else {
      ++stats.misses;
      if (set.key[way] == 0) set.plane[way] = planes_used_++;
    }
    const std::uint16_t plane = set.plane[way];
    for (; way > 0; --way) {
      set.key[way] = set.key[way - 1];
      set.plane[way] = set.plane[way - 1];
    }
    set.key[0] = key;
    set.plane[0] = plane;
    std::unique_ptr<double[]>& chunk = chunks_[plane / kChunkPlanes];
    if (!chunk) chunk.reset(new double[kChunkPlanes * kPlane]);
    return &chunk[plane % kChunkPlanes * kPlane];
  }

  VPinvMemoStats stats;

 private:
  struct Set {
    std::uint32_t key[kWays];    // 0 = empty (a key has n >= 2)
    std::uint16_t plane[kWays];  // plane index, assigned at first fill
  };
  std::unique_ptr<Set[]> sets_;
  std::array<std::unique_ptr<double[]>, kChunks> chunks_;
  std::uint16_t planes_used_ = 0;
};

VPinvMemo& v_pinv_memo() {
  thread_local VPinvMemo memo;
  return memo;
}

// The memo key (n << 28 | upper-triangle link mask) of a symmetric 0/1
// weight pattern with 2 <= n <= 8, or 0 when `w` is anything else. Zeros
// must be +0.0: V = -W would otherwise differ in the sign of a zero.
std::uint32_t link_pattern_key(const Matrix& w) {
  const std::size_t n = w.rows();
  if (n < 2 || n > VPinvMemo::kMaxNodes) return 0;
  const auto unit = [](double x) { return x == 1.0 || (x == 0.0 && !std::signbit(x)); };
  std::uint32_t mask = 0;
  unsigned bit = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j, ++bit) {
      const double a = w(i, j);
      const double b = w(j, i);
      if (!unit(a) || !unit(b) || a != b) return 0;
      if (a == 1.0) mask |= 1u << bit;
    }
  return static_cast<std::uint32_t>(n) << 28 | mask;
}

// V = diag(sum_j w_ij) - W; the pseudo-inverse handles the rank deficiency
// from translation invariance (and disconnected graphs). Writes the padded
// plane (row stride np, pad entries zero) to `plane`.
void compute_v_pinv(const Matrix& w, SmacofWorkspace& ws, double* plane) {
  const std::size_t n = w.rows();
  const std::size_t np = simd::padded(n);
  Matrix& v = ws.v;
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
  pseudo_inverse_symmetric_into(v, ws.v_pinv, ws.mds.eigen);
  std::fill(plane, plane + np * np, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> prow = ws.v_pinv.row(i);
    std::copy(prow.begin(), prow.end(), plane + i * np);
  }
}

}  // namespace

const double* smacof_v_pinv(const Matrix& w, SmacofWorkspace& ws) {
  VPinvMemo& memo = v_pinv_memo();
  const std::uint32_t key = link_pattern_key(w);
  if (key == 0) {
    ++memo.stats.uncached;
    const std::size_t np = simd::padded(w.rows());
    ws.vp_pad.resize(np * np);
    compute_v_pinv(w, ws, ws.vp_pad.data());
    return ws.vp_pad.data();
  }
  bool hit = false;
  double* const plane = memo.lookup(key, hit);
  if (!hit) compute_v_pinv(w, ws, plane);
  return plane;
}

VPinvMemoStats v_pinv_memo_stats() { return v_pinv_memo().stats; }

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
