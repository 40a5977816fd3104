#include "test_support.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/blas3.hpp"

namespace tseig::testing {

void ref_gemm(op transa, op transb, idx m, idx n, idx k, double alpha,
              const double* a, idx lda, const double* b, idx ldb, double beta,
              double* c, idx ldc) {
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < m; ++i) {
      double acc = 0.0;
      for (idx p = 0; p < k; ++p) {
        const double aip = transa == op::none ? a[i + p * lda] : a[p + i * lda];
        const double bpj = transb == op::none ? b[p + j * ldb] : b[j + p * ldb];
        acc += aip * bpj;
      }
      double& cij = c[i + j * ldc];
      cij = alpha * acc + (beta == 0.0 ? 0.0 : beta * cij);
    }
  }
}

void ref_gemv(op trans, idx m, idx n, double alpha, const double* a, idx lda,
              const double* x, idx incx, double beta, double* y, idx incy) {
  const idx rows = trans == op::none ? m : n;
  const idx inner = trans == op::none ? n : m;
  for (idx i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (idx p = 0; p < inner; ++p) {
      const double aip = trans == op::none ? a[i + p * lda] : a[p + i * lda];
      acc += aip * x[p * incx];
    }
    double& yi = y[i * incy];
    yi = alpha * acc + (beta == 0.0 ? 0.0 : beta * yi);
  }
}

Matrix sym_full(uplo ul, idx n, const double* a, idx lda) {
  Matrix full(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool stored = (ul == uplo::lower) ? (i >= j) : (i <= j);
      full(i, j) = stored ? a[i + j * lda] : a[j + i * lda];
    }
  }
  return full;
}

Matrix tri_full(uplo ul, diag d, idx n, const double* a, idx lda) {
  Matrix full(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      const bool stored = (ul == uplo::lower) ? (i >= j) : (i <= j);
      if (i == j && d == diag::unit) {
        full(i, j) = 1.0;
      } else if (stored) {
        full(i, j) = a[i + j * lda];
      }
    }
  }
  return full;
}

Matrix random_matrix(idx m, idx n, Rng& rng) {
  Matrix a(m, n);
  rng.fill_uniform(a.data(), m * n);
  return a;
}

Matrix random_symmetric(idx n, Rng& rng) {
  Matrix a(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = j; i < n; ++i) {
      const double v = 2.0 * rng.uniform() - 1.0;
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  double worst = 0.0;
  for (idx j = 0; j < a.cols(); ++j) {
    const double d = max_abs_diff(a.data() + j * a.ld(),
                                  b.data() + j * b.ld(), a.rows());
    if (std::isnan(d)) return d;
    worst = std::max(worst, d);
  }
  return worst;
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.col(j), b.col(j),
                    static_cast<size_t>(a.rows()) * sizeof(double)) != 0)
      return false;
  return true;
}

double max_abs_diff(const double* a, const double* b, idx n) {
  double worst = 0.0;
  for (idx i = 0; i < n; ++i) {
    const double d = std::fabs(a[i] - b[i]);
    // std::max would drop a NaN and let a NaN result pass as a match.
    if (std::isnan(d)) return d;
    worst = std::max(worst, d);
  }
  return worst;
}

double fro_norm(const Matrix& a) {
  double acc = 0.0;
  for (idx j = 0; j < a.cols(); ++j)
    for (idx i = 0; i < a.rows(); ++i) acc += a(i, j) * a(i, j);
  return std::sqrt(acc);
}

double orthogonality_error(const Matrix& q) {
  const idx n = q.cols();
  Matrix gram(n, n);
  blas::gemm(op::trans, op::none, n, n, q.rows(), 1.0, q.data(), q.ld(),
             q.data(), q.ld(), 0.0, gram.data(), gram.ld());
  double worst = 0.0;
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) {
      const double expect = i == j ? 1.0 : 0.0;
      worst = std::max(worst, std::fabs(gram(i, j) - expect));
    }
  return worst;
}

double eigen_residual(const Matrix& a, const Matrix& z,
                      const std::vector<double>& w) {
  const idx n = a.rows();
  const idx m = z.cols();
  Matrix az(n, m);
  blas::gemm(op::none, op::none, n, m, n, 1.0, a.data(), a.ld(), z.data(),
             z.ld(), 0.0, az.data(), az.ld());
  double worst = 0.0;
  for (idx j = 0; j < m; ++j)
    for (idx i = 0; i < n; ++i)
      worst = std::max(worst, std::fabs(az(i, j) - w[static_cast<size_t>(j)] * z(i, j)));
  return worst;
}

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// A-norm floored at 1 so an exactly-zero matrix (residual identically 0)
/// does not divide by zero; any nonzero norm, however tiny, is kept so the
/// metrics stay scale-invariant.
double norm_or_one(const Matrix& a) {
  const double nrm = fro_norm(a);
  return nrm > 0.0 ? nrm : 1.0;
}

/// R = A Z (dense GEMM into a fresh matrix).
Matrix times(const Matrix& a, const Matrix& z) {
  Matrix r(a.rows(), z.cols());
  blas::gemm(op::none, op::none, a.rows(), z.cols(), a.cols(), 1.0, a.data(),
             a.ld(), z.data(), z.ld(), 0.0, r.data(), r.ld());
  return r;
}

}  // namespace

double scaled_eigen_residual(const Matrix& a, const std::vector<double>& w,
                             const Matrix& z) {
  const idx n = a.rows();
  const idx m = z.cols();
  Matrix r = times(a, z);
  for (idx j = 0; j < m; ++j)
    for (idx i = 0; i < n; ++i) r(i, j) -= w[static_cast<size_t>(j)] * z(i, j);
  return fro_norm(r) / (static_cast<double>(n) * kEps * norm_or_one(a));
}

double scaled_orthogonality(const Matrix& z) {
  const idx m = z.cols();
  Matrix gram(m, m);
  blas::gemm(op::trans, op::none, m, m, z.rows(), 1.0, z.data(), z.ld(),
             z.data(), z.ld(), 0.0, gram.data(), gram.ld());
  for (idx j = 0; j < m; ++j) gram(j, j) -= 1.0;
  return fro_norm(gram) / (static_cast<double>(z.rows()) * kEps);
}

double scaled_generalized_residual(const Matrix& a, const Matrix& b,
                                   const std::vector<double>& w,
                                   const Matrix& z) {
  const idx n = a.rows();
  const idx m = z.cols();
  Matrix r = times(a, z);
  Matrix bz = times(b, z);
  for (idx j = 0; j < m; ++j)
    for (idx i = 0; i < n; ++i) r(i, j) -= w[static_cast<size_t>(j)] * bz(i, j);
  const double scale = (fro_norm(a) + fro_norm(b)) * fro_norm(z);
  return fro_norm(r) /
         (static_cast<double>(n) * kEps * (scale > 0.0 ? scale : 1.0));
}

double scaled_b_orthogonality(const Matrix& b, const Matrix& z) {
  const idx m = z.cols();
  Matrix bz = times(b, z);
  Matrix gram(m, m);
  blas::gemm(op::trans, op::none, m, m, z.rows(), 1.0, z.data(), z.ld(),
             bz.data(), bz.ld(), 0.0, gram.data(), gram.ld());
  for (idx j = 0; j < m; ++j) gram(j, j) -= 1.0;
  return fro_norm(gram) /
         (static_cast<double>(z.rows()) * kEps * norm_or_one(b));
}

namespace {

/// Shape/sortedness preamble shared by both checkers; appends failures to
/// `out` and returns false if the metrics cannot even be evaluated.
bool check_shapes(const Matrix& a, const std::vector<double>& w,
                  const Matrix& z, ::testing::AssertionResult& out) {
  if (w.size() != static_cast<size_t>(z.cols())) {
    out << "eigenvalue count " << w.size() << " != eigenvector columns "
        << z.cols() << "; ";
    return false;
  }
  if (z.cols() > 0 && z.rows() != a.rows()) {
    out << "eigenvector rows " << z.rows() << " != matrix dimension "
        << a.rows() << "; ";
    return false;
  }
  if (!std::is_sorted(w.begin(), w.end()))
    out << "eigenvalues not ascending; ";
  return true;
}

}  // namespace

::testing::AssertionResult check_eigen_pairs(const Matrix& a,
                                             const std::vector<double>& w,
                                             const Matrix& z,
                                             double residual_tol,
                                             double orth_tol) {
  ::testing::AssertionResult fail = ::testing::AssertionFailure();
  bool ok = check_shapes(a, w, z, fail);
  if (ok) {
    if (z.cols() == 0) return ::testing::AssertionSuccess();
    const double resid = scaled_eigen_residual(a, w, z);
    const double orth = scaled_orthogonality(z);
    if (!(resid <= residual_tol)) {
      fail << "scaled eigen-residual " << resid << " > " << residual_tol
           << "; ";
      ok = false;
    }
    if (!(orth <= orth_tol)) {
      fail << "scaled orthogonality " << orth << " > " << orth_tol << "; ";
      ok = false;
    }
    ok = ok && std::is_sorted(w.begin(), w.end());
  }
  return ok ? ::testing::AssertionSuccess() : fail;
}

double scaled_eigenvalue_error(const std::vector<double>& w_true,
                               const std::vector<double>& w) {
  double norm = 0.0;
  for (double v : w_true) norm = std::max(norm, std::fabs(v));
  if (norm == 0.0) norm = 1.0;
  double worst = 0.0;
  for (size_t i = 0; i < w.size(); ++i)
    worst = std::max(worst, std::fabs(w[i] - w_true[i]));
  return worst /
         (static_cast<double>(std::max<size_t>(1, w_true.size())) * kEps *
          norm);
}

::testing::AssertionResult check_eigenvalues(const std::vector<double>& w_true,
                                             const std::vector<double>& w,
                                             double tol) {
  ::testing::AssertionResult fail = ::testing::AssertionFailure();
  bool ok = true;
  if (w.size() > w_true.size()) {
    fail << "computed " << w.size() << " eigenvalues but ground truth has "
         << w_true.size() << "; ";
    return fail;
  }
  if (!std::is_sorted(w.begin(), w.end())) {
    fail << "eigenvalues not ascending; ";
    ok = false;
  }
  const double err = scaled_eigenvalue_error(w_true, w);
  if (!(err <= tol)) {
    fail << "scaled eigenvalue error " << err << " > " << tol << "; ";
    ok = false;
  }
  return ok ? ::testing::AssertionSuccess() : fail;
}

::testing::AssertionResult check_generalized_eigen_pairs(
    const Matrix& a, const Matrix& b, const std::vector<double>& w,
    const Matrix& z, double residual_tol, double orth_tol) {
  ::testing::AssertionResult fail = ::testing::AssertionFailure();
  bool ok = check_shapes(a, w, z, fail);
  if (ok) {
    if (z.cols() == 0) return ::testing::AssertionSuccess();
    const double resid = scaled_generalized_residual(a, b, w, z);
    const double orth = scaled_b_orthogonality(b, z);
    if (!(resid <= residual_tol)) {
      fail << "scaled generalized residual " << resid << " > " << residual_tol
           << "; ";
      ok = false;
    }
    if (!(orth <= orth_tol)) {
      fail << "scaled B-orthogonality " << orth << " > " << orth_tol << "; ";
      ok = false;
    }
    ok = ok && std::is_sorted(w.begin(), w.end());
  }
  return ok ? ::testing::AssertionSuccess() : fail;
}

}  // namespace tseig::testing
