// Linear-algebra routines for the localization core: symmetric
// eigendecomposition (cyclic Jacobi), Moore-Penrose pseudoinverse of symmetric
// matrices (needed for the SMACOF Guttman transform with missing links), and
// small-system solves.
#pragma once

#include <vector>

#include "util/matrix.hpp"

namespace uwp {

struct EigenResult {
  // Eigenvalues in descending order.
  std::vector<double> values;
  // Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
};

// Moore-Penrose pseudoinverse of a symmetric matrix, computed from the
// eigendecomposition. Eigenvalues with |lambda| <= rank_tol * max|lambda|
// are treated as zero.
Matrix pseudo_inverse_symmetric(const Matrix& a, double rank_tol = 1e-10);

// Reusable scratch for the workspace routines below. One workspace serves
// any matrix size; buffers grow to the largest problem seen and stay put.
struct EigenWorkspace {
  Matrix d, v;                     // Jacobi iterates
  std::vector<std::size_t> order;  // eigenvalue sort permutation
  std::vector<double> diag;
  EigenResult eig;  // scratch decomposition for the pseudoinverse
};

// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
// Accurate and simple; fine for the N <= O(100) matrices we deal with.
// Throws std::invalid_argument if `a` is not square. All scratch lives in
// `ws` (and the caller's `out`), so steady-state callers perform no heap
// allocation.
void eigen_symmetric_into(const Matrix& a, EigenResult& out, EigenWorkspace& ws,
                          double tol = 1e-12, int max_sweeps = 64);
// Workspace variant of pseudo_inverse_symmetric (bit-identical).
void pseudo_inverse_symmetric_into(const Matrix& a, Matrix& out, EigenWorkspace& ws,
                                   double rank_tol = 1e-10);

// Solve a * x = b for square `a` by Gaussian elimination with partial
// pivoting. Throws std::domain_error when `a` is singular to working
// precision.
std::vector<double> solve(const Matrix& a, std::span<const double> b);

// Workspace variant: identical results; `lu` and `perm` are scratch, `x`
// receives the solution (all reused without allocation in steady state).
void solve_into(const Matrix& a, std::span<const double> b, std::vector<double>& x,
                Matrix& lu, std::vector<std::size_t>& perm);

// Determinant via LU factorization (partial pivoting).
double determinant(const Matrix& a);

// 2x2 / 3x3 closed-form inverse helper used by the geometry code; throws on
// singular input.
Matrix inverse(const Matrix& a);

}  // namespace uwp
