// Unit tests for the Level-2 BLAS kernels against reference implementations.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas2.hpp"
#include "common/rng.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::random_matrix;
using testing::ref_gemv;
using testing::sym_full;
using testing::tri_full;

class GemvShapes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(GemvShapes, NoTransMatchesReference) {
  const auto [m, n] = GetParam();
  Rng rng(m * 131 + n);
  Matrix a = random_matrix(m, n, rng);
  std::vector<double> x(n), y(m), yref;
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), m);
  yref = y;
  blas::gemv(op::none, m, n, 1.3, a.data(), a.ld(), x.data(), 1, -0.4,
             y.data(), 1);
  ref_gemv(op::none, m, n, 1.3, a.data(), a.ld(), x.data(), 1, -0.4,
           yref.data(), 1);
  EXPECT_LE(max_abs_diff(y.data(), yref.data(), m), 1e-12 * (n + 1));
}

TEST_P(GemvShapes, TransMatchesReference) {
  const auto [m, n] = GetParam();
  Rng rng(m * 7 + n);
  Matrix a = random_matrix(m, n, rng);
  std::vector<double> x(m), y(n), yref;
  rng.fill_uniform(x.data(), m);
  rng.fill_uniform(y.data(), n);
  yref = y;
  blas::gemv(op::trans, m, n, -0.7, a.data(), a.ld(), x.data(), 1, 2.0,
             y.data(), 1);
  ref_gemv(op::trans, m, n, -0.7, a.data(), a.ld(), x.data(), 1, 2.0,
           yref.data(), 1);
  EXPECT_LE(max_abs_diff(y.data(), yref.data(), n), 1e-12 * (m + 1));
}

TEST_P(GemvShapes, BetaZeroIgnoresInitialY) {
  const auto [m, n] = GetParam();
  Rng rng(5);
  Matrix a = random_matrix(m, n, rng);
  std::vector<double> x(n);
  rng.fill_uniform(x.data(), n);
  std::vector<double> y(m, std::nan(""));
  std::vector<double> yref(m, 0.0);
  blas::gemv(op::none, m, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
             y.data(), 1);
  ref_gemv(op::none, m, n, 1.0, a.data(), a.ld(), x.data(), 1, 0.0,
           yref.data(), 1);
  EXPECT_LE(max_abs_diff(y.data(), yref.data(), m), 1e-12 * (n + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvShapes,
    ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                      std::make_tuple<idx, idx>(3, 5),
                      std::make_tuple<idx, idx>(8, 8),
                      std::make_tuple<idx, idx>(17, 4),
                      std::make_tuple<idx, idx>(4, 17),
                      std::make_tuple<idx, idx>(64, 64),
                      std::make_tuple<idx, idx>(100, 37),
                      std::make_tuple<idx, idx>(33, 129)));

class SymvSizes : public ::testing::TestWithParam<idx> {};

TEST_P(SymvSizes, LowerMatchesFullGemv) {
  const idx n = GetParam();
  Rng rng(n);
  Matrix a = random_matrix(n, n, rng);
  Matrix full = sym_full(uplo::lower, n, a.data(), a.ld());
  std::vector<double> x(n), y(n), yref;
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  yref = y;
  blas::symv(uplo::lower, n, 0.9, a.data(), a.ld(), x.data(), 1, 0.3,
             y.data(), 1);
  ref_gemv(op::none, n, n, 0.9, full.data(), full.ld(), x.data(), 1, 0.3,
           yref.data(), 1);
  EXPECT_LE(max_abs_diff(y.data(), yref.data(), n), 1e-12 * (n + 1));
}

TEST_P(SymvSizes, UpperMatchesFullGemv) {
  const idx n = GetParam();
  Rng rng(n + 1);
  Matrix a = random_matrix(n, n, rng);
  Matrix full = sym_full(uplo::upper, n, a.data(), a.ld());
  std::vector<double> x(n), y(n), yref;
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  yref = y;
  blas::symv(uplo::upper, n, -1.1, a.data(), a.ld(), x.data(), 1, 1.0,
             y.data(), 1);
  ref_gemv(op::none, n, n, -1.1, full.data(), full.ld(), x.data(), 1, 1.0,
           yref.data(), 1);
  EXPECT_LE(max_abs_diff(y.data(), yref.data(), n), 1e-12 * (n + 1));
}

TEST_P(SymvSizes, Syr2MatchesDenseUpdate) {
  const idx n = GetParam();
  Rng rng(n + 2);
  Matrix a = random_matrix(n, n, rng);
  Matrix full = sym_full(uplo::lower, n, a.data(), a.ld());
  std::vector<double> x(n), y(n);
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  const double alpha = 0.6;
  blas::syr2(uplo::lower, n, alpha, x.data(), 1, y.data(), 1, a.data(), a.ld());
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i) {
      const double expect = full(i, j) + alpha * (x[i] * y[j] + y[i] * x[j]);
      EXPECT_NEAR(a(i, j), expect, 1e-14);
    }
}

TEST_P(SymvSizes, SyrMatchesDenseUpdate) {
  const idx n = GetParam();
  Rng rng(n + 3);
  Matrix a = random_matrix(n, n, rng);
  Matrix before = a;
  std::vector<double> x(n);
  rng.fill_uniform(x.data(), n);
  blas::syr(uplo::upper, n, 1.5, x.data(), 1, a.data(), a.ld());
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i <= j; ++i)
      EXPECT_NEAR(a(i, j), before(i, j) + 1.5 * x[i] * x[j], 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymvSizes,
                         ::testing::Values<idx>(1, 2, 5, 16, 31, 64, 117));

TEST(Ger, MatchesDenseUpdate) {
  const idx m = 23, n = 17;
  Rng rng(3);
  Matrix a = random_matrix(m, n, rng);
  Matrix before = a;
  std::vector<double> x(m), y(n);
  rng.fill_uniform(x.data(), m);
  rng.fill_uniform(y.data(), n);
  blas::ger(m, n, -0.8, x.data(), 1, y.data(), 1, a.data(), a.ld());
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < m; ++i)
      EXPECT_NEAR(a(i, j), before(i, j) - 0.8 * x[i] * y[j], 1e-14);
}

struct TriCase {
  uplo ul;
  op trans;
  diag d;
};

class TrmvCases : public ::testing::TestWithParam<TriCase> {};

TEST_P(TrmvCases, MatchesDenseGemv) {
  const auto c = GetParam();
  const idx n = 37;
  Rng rng(23);
  Matrix a = random_matrix(n, n, rng);
  // Keep diagonals away from zero so trsv is well-conditioned too.
  for (idx i = 0; i < n; ++i) a(i, i) += 3.0;
  Matrix full = tri_full(c.ul, c.d, n, a.data(), a.ld());
  std::vector<double> x(n), xref(n);
  rng.fill_uniform(x.data(), n);
  std::vector<double> x0 = x;
  blas::trmv(c.ul, c.trans, c.d, n, a.data(), a.ld(), x.data(), 1);
  ref_gemv(c.trans, n, n, 1.0, full.data(), full.ld(), x0.data(), 1, 0.0,
           xref.data(), 1);
  EXPECT_LE(max_abs_diff(x.data(), xref.data(), n), 1e-12 * n);
}

TEST_P(TrmvCases, TrsvInvertsTrmv) {
  const auto c = GetParam();
  const idx n = 53;
  Rng rng(29);
  Matrix a = random_matrix(n, n, rng);
  for (idx i = 0; i < n; ++i) a(i, i) += 4.0;
  std::vector<double> x(n);
  rng.fill_uniform(x.data(), n);
  std::vector<double> x0 = x;
  blas::trmv(c.ul, c.trans, c.d, n, a.data(), a.ld(), x.data(), 1);
  blas::trsv(c.ul, c.trans, c.d, n, a.data(), a.ld(), x.data(), 1);
  EXPECT_LE(max_abs_diff(x.data(), x0.data(), n), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TrmvCases,
    ::testing::Values(TriCase{uplo::lower, op::none, diag::non_unit},
                      TriCase{uplo::lower, op::none, diag::unit},
                      TriCase{uplo::lower, op::trans, diag::non_unit},
                      TriCase{uplo::lower, op::trans, diag::unit},
                      TriCase{uplo::upper, op::none, diag::non_unit},
                      TriCase{uplo::upper, op::none, diag::unit},
                      TriCase{uplo::upper, op::trans, diag::non_unit},
                      TriCase{uplo::upper, op::trans, diag::unit}));

// ---- Lane order (common/lanes.hpp) ----

/// Entries i < n of y (stride incy) whose bits differ from want[i]; == on
/// doubles would not tell -0.0 from +0.0.
idx bit_mismatches(idx n, const double* y, idx incy,
                   const std::vector<double>& want) {
  idx bad = 0;
  for (idx i = 0; i < n; ++i)
    bad += std::bit_cast<std::uint64_t>(y[i * incy]) !=
           std::bit_cast<std::uint64_t>(want[i]);
  return bad;
}

/// Copies the m-by-n block a0 (leading dimension ld0) to a with ld lda.
void copy_block(idx m, idx n, const double* a0, idx ld0, double* a, idx lda) {
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < m; ++i) a[i + j * lda] = a0[i + j * ld0];
}

TEST(Blas2Lanes, GemvTransIsLaneOrderAtEveryLengthStrideAndAlignment) {
  // Six columns: one four-column block and two single ones.  Row counts
  // 0..67 give every tail behind 0..8 whole lane chunks; lda = m + 1
  // staggers the columns, and start offsets 0..7 doubles move A, x and y
  // through every alignment.  Strided x and y take the scalar path.  Each
  // y[j] must hold the bits of beta y[j] + alpha (lane-order column dot).
  const idx n = 6, mmax = 67;
  const double alpha = -0.7, beta = 0.5;
  Rng rng(31);
  std::vector<double> a0(mmax * n), x0(mmax), y0(n);
  rng.fill_normal(a0.data(), mmax * n);
  rng.fill_normal(x0.data(), mmax);
  rng.fill_normal(y0.data(), n);
  for (idx m = 0; m <= mmax; ++m) {
    SCOPED_TRACE("m " + std::to_string(m));
    std::vector<double> want(n);
    for (idx j = 0; j < n; ++j) {
      want[j] = beta * y0[j];
      want[j] += alpha * testing::lane_order_sum(m, [&](idx k) {
        return a0[k + j * mmax] * x0[k];
      });
    }
    const idx lda = m + 1;
    std::vector<double> ab(lda * n + 8), xb(m + 8), yb(n + 8);
    for (idx off = 0; off < 8; ++off) {
      double* a = ab.data() + off;
      double* x = xb.data() + (off + 5) % 8;
      double* y = yb.data() + (off + 2) % 8;
      copy_block(m, n, a0.data(), mmax, a, lda);
      std::copy(x0.begin(), x0.begin() + m, x);
      std::copy(y0.begin(), y0.end(), y);
      blas::gemv(op::trans, m, n, alpha, a, lda, x, 1, beta, y, 1);
      EXPECT_EQ(bit_mismatches(n, y, 1, want), 0) << "offset " << off;
    }
    copy_block(m, n, a0.data(), mmax, ab.data(), lda);
    std::vector<double> xs(2 * m), ys(3 * n);
    for (idx k = 0; k < m; ++k) xs[2 * k] = x0[k];
    for (idx j = 0; j < n; ++j) ys[3 * j] = y0[j];
    blas::gemv(op::trans, m, n, alpha, ab.data(), lda, xs.data(), 2, beta,
               ys.data(), 3);
    EXPECT_EQ(bit_mismatches(n, ys.data(), 3, want), 0) << "strided";
  }
}

TEST(Blas2Lanes, SymvLowerIsLaneOrderAtEveryLengthStrideAndAlignment) {
  // y[i] takes beta y[i], then (alpha x[j]) a(i, j) for j = 0..i in order,
  // then alpha times column i's A^T x sum over rows i+1..n-1 in lane order.
  // Sizes 0..67 cover partial column blocks and every row tail; lda = n + 1
  // and start offsets 0..7 doubles move A, x and y through every alignment.
  const idx nmax = 67;
  const double alpha = 1.3, beta = -0.4;
  Rng rng(37);
  std::vector<double> a0(nmax * nmax), x0(nmax), y0(nmax);
  rng.fill_normal(a0.data(), nmax * nmax);
  rng.fill_normal(x0.data(), nmax);
  rng.fill_normal(y0.data(), nmax);
  auto a_at = [&](idx i, idx j) { return a0[i + j * nmax]; };
  for (idx n = 0; n <= nmax; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    std::vector<double> want(n);
    for (idx i = 0; i < n; ++i) want[i] = beta * y0[i];
    for (idx j = 0; j < n; ++j) {
      const double xj = alpha * x0[j];
      want[j] += xj * a_at(j, j);
      for (idx i = j + 1; i < n; ++i) want[i] += xj * a_at(i, j);
      want[j] += alpha * testing::lane_order_sum(n - j - 1, [&](idx k) {
        return a_at(j + 1 + k, j) * x0[j + 1 + k];
      });
    }
    const idx lda = n + 1;
    std::vector<double> ab(lda * n + 8), xb(n + 8), yb(n + 8);
    for (idx off = 0; off < 8; ++off) {
      double* a = ab.data() + off;
      double* x = xb.data() + (off + 5) % 8;
      double* y = yb.data() + (off + 2) % 8;
      copy_block(n, n, a0.data(), nmax, a, lda);
      std::copy(x0.begin(), x0.begin() + n, x);
      std::copy(y0.begin(), y0.begin() + n, y);
      blas::symv(uplo::lower, n, alpha, a, lda, x, 1, beta, y, 1);
      EXPECT_EQ(bit_mismatches(n, y, 1, want), 0) << "offset " << off;
    }
    copy_block(n, n, a0.data(), nmax, ab.data(), lda);
    std::vector<double> xs(2 * n), ys(3 * n);
    for (idx k = 0; k < n; ++k) {
      xs[2 * k] = x0[k];
      ys[3 * k] = y0[k];
    }
    blas::symv(uplo::lower, n, alpha, ab.data(), lda, xs.data(), 2, beta,
               ys.data(), 3);
    EXPECT_EQ(bit_mismatches(n, ys.data(), 3, want), 0) << "strided";
  }
}

TEST(Blas2Lanes, GemvTransAndSymvAreAccurateAgainstLongDouble) {
  // |error| <= c eps sum |terms|, with c the longest chain a term passes
  // through: m/8 + 6 for gemv's lane sums (product, lanes, tree, alpha,
  // beta), n + 8 for symv, whose A x half adds up to n terms in sequence.
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const double alpha = 0.9, beta = 0.3;
  Rng rng(41);
  for (idx m : {idx{67}, idx{500}}) {
    const idx n = 6;
    Matrix a = random_matrix(m, n, rng);
    std::vector<double> x(m), y(n);
    rng.fill_normal(x.data(), m);
    rng.fill_normal(y.data(), n);
    std::vector<double> got = y;
    blas::gemv(op::trans, m, n, alpha, a.data(), a.ld(), x.data(), 1, beta,
               got.data(), 1);
    for (idx j = 0; j < n; ++j) {
      long double exact = 0.0L, mag = 0.0L;
      for (idx k = 0; k < m; ++k) {
        exact += static_cast<long double>(a(k, j)) * x[k];
        mag += std::fabs(static_cast<long double>(a(k, j)) * x[k]);
      }
      exact = alpha * exact + static_cast<long double>(beta) * y[j];
      mag = std::fabs(alpha) * mag + std::fabs(beta * y[j]);
      EXPECT_LE(std::fabs(got[j] - exact), (m / 8 + 6) * eps * mag)
          << "m " << m << " j " << j;
    }
  }
  for (idx n : {idx{67}, idx{300}}) {
    Matrix a = random_matrix(n, n, rng);
    Matrix full = sym_full(uplo::lower, n, a.data(), a.ld());
    std::vector<double> x(n), y(n);
    rng.fill_normal(x.data(), n);
    rng.fill_normal(y.data(), n);
    std::vector<double> got = y;
    blas::symv(uplo::lower, n, alpha, a.data(), a.ld(), x.data(), 1, beta,
               got.data(), 1);
    for (idx i = 0; i < n; ++i) {
      long double exact = 0.0L, mag = 0.0L;
      for (idx j = 0; j < n; ++j) {
        exact += static_cast<long double>(full(i, j)) * x[j];
        mag += std::fabs(static_cast<long double>(full(i, j)) * x[j]);
      }
      exact = alpha * exact + static_cast<long double>(beta) * y[i];
      mag = std::fabs(alpha) * mag + std::fabs(beta * y[i]);
      EXPECT_LE(std::fabs(got[i] - exact), (n + 8) * eps * mag)
          << "n " << n << " i " << i;
    }
  }
}

}  // namespace
}  // namespace tseig
