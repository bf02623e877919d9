#include "util/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/simd_kernels.hpp"

namespace uwp {

namespace {

// Off-diagonal Frobenius norm, used as the Jacobi convergence measure.
double off_diagonal_norm(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (r != c) acc += a(r, c) * a(r, c);
  return std::sqrt(acc);
}

}  // namespace

void eigen_symmetric_into(const Matrix& a, EigenResult& out, EigenWorkspace& ws,
                          double tol, int max_sweeps) {
  if (a.rows() != a.cols()) throw std::invalid_argument("eigen_symmetric: not square");
  const std::size_t n = a.rows();
  Matrix& d = ws.d;
  Matrix& v = ws.v;
  d = a;
  v.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const double scale = std::max(1.0, d.norm());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm(d) <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) <= tol * scale * 1e-4) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation G(p,q,theta) on both sides: D = G^T D G. The
        // D-column and V-column updates touch disjoint matrices, so one
        // fused pass (same per-element operations) halves the loop trips.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
        // Rows p and q are contiguous: the row half of the rotation runs on
        // the vector unit (same per-element operations as the scalar form).
        kernels::rotate_rows<simd::ActiveOps>(d.row(p).data(), d.row(q).data(), c, s,
                                              n);
      }
    }
  }

  out.values.resize(n);
  std::vector<std::size_t>& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double>& diag = ws.diag;
  diag.resize(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return diag[i] > diag[j]; });

  out.vectors.assign(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.values[i] = diag[order[i]];
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, i) = v(r, order[i]);
  }
}

Matrix pseudo_inverse_symmetric(const Matrix& a, double rank_tol) {
  EigenWorkspace ws;
  Matrix out;
  pseudo_inverse_symmetric_into(a, out, ws, rank_tol);
  return out;
}

void pseudo_inverse_symmetric_into(const Matrix& a, Matrix& out, EigenWorkspace& ws,
                                   double rank_tol) {
  eigen_symmetric_into(a, ws.eig, ws);
  const EigenResult& eig = ws.eig;
  const std::size_t n = a.rows();
  double max_abs = 0.0;
  for (double l : eig.values) max_abs = std::max(max_abs, std::abs(l));
  const double cutoff = rank_tol * std::max(max_abs, 1e-300);

  // A^+ = V diag(1/lambda_i or 0) V^T. Eigenvector column k is staged into
  // a contiguous buffer so the rank-1 update streams instead of striding.
  out.assign(n, n);
  std::vector<double>& col = ws.diag;  // free scratch between decompositions
  col.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double l = eig.values[k];
    if (std::abs(l) <= cutoff) continue;
    const double inv = 1.0 / l;
    for (std::size_t c = 0; c < n; ++c) col[c] = eig.vectors(c, k);
    for (std::size_t r = 0; r < n; ++r)
      kernels::axpy<simd::ActiveOps>(out.row(r).data(), inv * col[r], col.data(), n);
  }
}

namespace {

// LU decomposition with partial pivoting. Returns false if singular.
bool lu_decompose(Matrix& a, std::vector<std::size_t>& perm, int& sign) {
  const std::size_t n = a.rows();
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  sign = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(perm[col], perm[pivot]);
      sign = -sign;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      a(r, col) = f;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= f * a(col, c);
    }
  }
  return true;
}

}  // namespace

std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  Matrix lu;
  std::vector<std::size_t> perm;
  std::vector<double> x;
  solve_into(a, b, x, lu, perm);
  return x;
}

void solve_into(const Matrix& a, std::span<const double> b, std::vector<double>& x,
                Matrix& lu, std::vector<std::size_t>& perm) {
  if (a.rows() != a.cols() || a.rows() != b.size())
    throw std::invalid_argument("solve: shape mismatch");
  const std::size_t n = a.rows();
  lu = a;
  int sign = 1;
  if (!lu_decompose(lu, perm, sign)) throw std::domain_error("solve: singular matrix");

  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Forward substitution (L has unit diagonal).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu(i, j) * x[j];
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu(i, j) * x[j];
    x[i] /= lu(i, i);
  }
}

double determinant(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("determinant: not square");
  Matrix lu = a;
  std::vector<std::size_t> perm;
  int sign = 1;
  if (!lu_decompose(lu, perm, sign)) return 0.0;
  double det = sign;
  for (std::size_t i = 0; i < a.rows(); ++i) det *= lu(i, i);
  return det;
}

Matrix inverse(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("inverse: not square");
  const std::size_t n = a.rows();
  Matrix out(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    std::fill(e.begin(), e.end(), 0.0);
    e[c] = 1.0;
    const std::vector<double> col = solve(a, e);
    for (std::size_t r = 0; r < n; ++r) out(r, c) = col[r];
  }
  return out;
}

}  // namespace uwp
