// Shared helpers for the tseig test suite: naive reference kernels (trusted
// oracles for the optimized BLAS), random matrix builders, error metrics and
// the LAPACK-style eigen-decomposition verification oracles used across the
// whole pipeline's tests.
#pragma once

#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace tseig::testing {

// ---- Naive reference kernels (straightforward triple loops) ----

/// C <- alpha op(A) op(B) + beta C, reference implementation.
void ref_gemm(op transa, op transb, idx m, idx n, idx k, double alpha,
              const double* a, idx lda, const double* b, idx ldb, double beta,
              double* c, idx ldc);

/// y <- alpha op(A) x + beta y, reference implementation.
void ref_gemv(op trans, idx m, idx n, double alpha, const double* a, idx lda,
              const double* x, idx incx, double beta, double* y, idx incy);

/// Builds the full dense matrix equivalent of a stored triangle: symmetric
/// mirror of the `ul` triangle of `a`.
Matrix sym_full(uplo ul, idx n, const double* a, idx lda);

/// Builds the dense equivalent of a stored triangular matrix (zero outside
/// the triangle; unit diagonal when d == diag::unit).
Matrix tri_full(uplo ul, diag d, idx n, const double* a, idx lda);

/// The lane order of common/lanes.hpp written out as a plain loop: term k
/// of term(0) .. term(n-1) goes to lane k % 8, each lane adds its terms in
/// increasing k from +0, and the lanes combine as
/// ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)).  Instantiated in the
/// calling TU, which rounds like the library because every target linking
/// tseig inherits its PUBLIC -ffp-contract=off (src/CMakeLists.txt).
template <class Term>
double lane_order_sum(idx n, Term term) {
  double s[8] = {};
  for (idx k = 0; k < n; ++k) s[k % 8] += term(k);
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

// ---- Random builders ----

/// Random m-by-n matrix with entries uniform in (-1, 1).
Matrix random_matrix(idx m, idx n, Rng& rng);

/// Random symmetric n-by-n matrix (full storage, both triangles coherent).
Matrix random_symmetric(idx n, Rng& rng);

// ---- Error metrics ----

/// max_ij |a(i,j) - b(i,j)|; NaN when any difference is NaN.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// max_i |a[i] - b[i]| over n entries; NaN when any difference is NaN.
double max_abs_diff(const double* a, const double* b, idx n);

/// True when both matrices have the same shape and hold the same bits (a
/// zero difference would not tell -0.0 from +0.0).
bool same_bits(const Matrix& a, const Matrix& b);

/// Frobenius norm.
double fro_norm(const Matrix& a);

/// ||Q^T Q - I||_max, orthogonality check for an m-by-n orthonormal basis.
double orthogonality_error(const Matrix& q);

/// ||A Z - Z diag(w)||_max, eigen-residual for symmetric A.
double eigen_residual(const Matrix& a, const Matrix& z,
                      const std::vector<double>& w);

// ---- Eigen-decomposition verification oracles (LAPACK xDRVST style) ----
//
// The scaled metrics below are dimensionless and O(1..tens) for any
// backward-stable solver, independent of n, of the matrix norm and of the
// subset size, so every test can assert the same thresholds instead of
// re-deriving ad-hoc absolute bounds per test.

/// ‖AZ − ZΛ‖_F / (n ε ‖A‖_F): scaled eigen-residual for symmetric A and the
/// eigenpairs (w, Z), Z n-by-m with m = w.size() (subsets allowed).  A zero
/// matrix uses ‖A‖ = 1 (the residual is exactly 0 there anyway).
double scaled_eigen_residual(const Matrix& a, const std::vector<double>& w,
                             const Matrix& z);

/// ‖ZᵀZ − I‖_F / (n ε): scaled orthonormality of Z's columns.
double scaled_orthogonality(const Matrix& z);

/// ‖AZ − BZΛ‖_F / (n ε (‖A‖_F + ‖B‖_F) ‖Z‖_F): scaled residual of the
/// generalized problem A z = λ B z (Z is B-orthonormal, not orthonormal, so
/// its norm enters the scaling).
double scaled_generalized_residual(const Matrix& a, const Matrix& b,
                                   const std::vector<double>& w,
                                   const Matrix& z);

/// ‖ZᵀBZ − I‖_F / (n ε ‖B‖_F): scaled B-orthonormality of Z's columns.
double scaled_b_orthogonality(const Matrix& b, const Matrix& z);

/// Full contract check for a standard symmetric eigen-solution: shapes
/// consistent (w.size() == z.cols(), z.rows() == a.rows()), eigenvalues
/// ascending, scaled residual <= residual_tol and scaled orthogonality <=
/// orth_tol.  The default thresholds are LAPACK's customary 30 with headroom;
/// inverse-iteration paths need a looser orth_tol inside tight clusters.
/// Use as EXPECT_TRUE(check_eigen_pairs(a, w, z)); failures report every
/// violated metric with its value.
::testing::AssertionResult check_eigen_pairs(const Matrix& a,
                                             const std::vector<double>& w,
                                             const Matrix& z,
                                             double residual_tol = 50.0,
                                             double orth_tol = 50.0);

/// Same contract for the generalized problem A z = λ B z with B-orthonormal
/// eigenvectors.
::testing::AssertionResult check_generalized_eigen_pairs(
    const Matrix& a, const Matrix& b, const std::vector<double>& w,
    const Matrix& z, double residual_tol = 50.0, double orth_tol = 50.0);

/// max_i |w[i] − w_true[i]| / (n ε max(max|w_true|, 1 if all zero)): scaled
/// eigenvalue error against a *known* spectrum (matgen ground truth), the
/// Weyl-bound metric a normwise backward-stable solver keeps O(1..tens)
/// regardless of conditioning or scale.  Compares the first w.size() entries
/// of w_true (the "m smallest" subset convention); both must be ascending.
double scaled_eigenvalue_error(const std::vector<double>& w_true,
                               const std::vector<double>& w);

/// EXPECT_TRUE-able wrapper: w.size() <= w_true.size(), both ascending, and
/// scaled_eigenvalue_error <= tol.  Reports the offending metric on failure.
::testing::AssertionResult check_eigenvalues(const std::vector<double>& w_true,
                                             const std::vector<double>& w,
                                             double tol = 50.0);

}  // namespace tseig::testing
