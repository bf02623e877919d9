#include "util/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.hpp"

namespace uwp {
namespace {

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) a(r, c) = a(c, r) = rng.uniform(-1.0, 1.0);
  return a;
}

EigenResult eigen_symmetric(const Matrix& a) {
  EigenWorkspace ws;
  EigenResult e;
  eigen_symmetric_into(a, e, ws);
  return e;
}

TEST(EigenSymmetric, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, -1}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], -1.0, 1e-12);
}

TEST(EigenSymmetric, KnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2, 1}, {1, 2}};
  const EigenResult e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(EigenSymmetric, ReconstructsMatrix) {
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix a = random_symmetric(6, rng);
    const EigenResult e = eigen_symmetric(a);
    // A == V diag(lambda) V^T
    Matrix reconstructed(6, 6);
    for (std::size_t k = 0; k < 6; ++k)
      for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
          reconstructed(r, c) += e.values[k] * e.vectors(r, k) * e.vectors(c, k);
    EXPECT_LT(a.max_abs_diff(reconstructed), 1e-9);
  }
}

TEST(EigenSymmetric, VectorsAreOrthonormal) {
  Rng rng(7);
  const Matrix a = random_symmetric(5, rng);
  const EigenResult e = eigen_symmetric(a);
  const Matrix vtv = e.vectors.transposed() * e.vectors;
  EXPECT_LT(vtv.max_abs_diff(Matrix::identity(5)), 1e-9);
}

TEST(EigenSymmetric, ValuesSortedDescending) {
  Rng rng(3);
  const Matrix a = random_symmetric(8, rng);
  const EigenResult e = eigen_symmetric(a);
  for (std::size_t i = 0; i + 1 < e.values.size(); ++i)
    EXPECT_GE(e.values[i], e.values[i + 1]);
}

TEST(EigenSymmetric, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(PseudoInverse, InvertibleMatrixMatchesInverse) {
  Matrix a{{4, 1}, {1, 3}};
  const Matrix pinv = pseudo_inverse_symmetric(a);
  const Matrix prod = a * pinv;
  EXPECT_LT(prod.max_abs_diff(Matrix::identity(2)), 1e-9);
}

TEST(PseudoInverse, SingularMatrixSatisfiesPenroseConditions) {
  // Rank-1 symmetric matrix.
  Matrix a{{1, 1}, {1, 1}};
  const Matrix p = pseudo_inverse_symmetric(a);
  // A P A == A and P A P == P.
  EXPECT_LT((a * p * a).max_abs_diff(a), 1e-9);
  EXPECT_LT((p * a * p).max_abs_diff(p), 1e-9);
}

TEST(PseudoInverse, CenteringMatrixIsOwnPseudoInverse) {
  // The SMACOF V matrix for a fully connected graph is N*J where J is the
  // centering matrix; its pseudoinverse is J/N.
  const std::size_t n = 5;
  Matrix v(n, n, -1.0);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = static_cast<double>(n - 1);
  const Matrix p = pseudo_inverse_symmetric(v);
  EXPECT_LT((v * p * v).max_abs_diff(v), 1e-8);
}

TEST(Solve, TwoByTwo) {
  Matrix a{{2, 1}, {1, 3}};
  const std::vector<double> b = {5, 10};
  const std::vector<double> x = solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, SingularThrows) {
  Matrix a{{1, 2}, {2, 4}};
  const std::vector<double> b = {1, 2};
  EXPECT_THROW(solve(a, b), std::domain_error);
}

TEST(Solve, RandomSystemsRoundTrip) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-2, 2);
      a(r, r) += 5.0;  // diagonally dominant => well conditioned
    }
    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.uniform(-3, 3);
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) b[r] += a(r, c) * x_true[c];
    const std::vector<double> x = solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Determinant, KnownValues) {
  EXPECT_NEAR(determinant(Matrix{{1, 2}, {3, 4}}), -2.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix::identity(4)), 1.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix{{1, 2}, {2, 4}}), 0.0, 1e-12);
}

TEST(Inverse, RoundTrip) {
  Matrix a{{2, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  const Matrix inv = inverse(a);
  EXPECT_LT((a * inv).max_abs_diff(Matrix::identity(3)), 1e-10);
}

}  // namespace
}  // namespace uwp
