// Unit tests for the Level-3 BLAS kernels against naive references.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::random_matrix;
using testing::ref_gemm;
using testing::sym_full;
using testing::tri_full;

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(GemmShapes, AllTransposeCombinationsMatchReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 10007 + n * 101 + k);
  for (op ta : {op::none, op::trans}) {
    for (op tb : {op::none, op::trans}) {
      const Matrix a = ta == op::none ? random_matrix(m, k, rng)
                                      : random_matrix(k, m, rng);
      const Matrix b = tb == op::none ? random_matrix(k, n, rng)
                                      : random_matrix(n, k, rng);
      Matrix c = random_matrix(m, n, rng);
      Matrix cref = c;
      blas::gemm(ta, tb, m, n, k, 1.7, a.data(), a.ld(), b.data(), b.ld(),
                 -0.3, c.data(), c.ld());
      ref_gemm(ta, tb, m, n, k, 1.7, a.data(), a.ld(), b.data(), b.ld(), -0.3,
               cref.data(), cref.ld());
      EXPECT_LE(max_abs_diff(c, cref), 1e-11 * (k + 1))
          << "ta=" << static_cast<char>(ta) << " tb=" << static_cast<char>(tb);
    }
  }
}

TEST_P(GemmShapes, BetaZeroOverwritesNaN) {
  const auto [m, n, k] = GetParam();
  Rng rng(99);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);
  c.fill(std::nan(""));
  Matrix cref(m, n);
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c.data(), c.ld());
  ref_gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
           b.ld(), 0.0, cref.data(), cref.ld());
  EXPECT_LE(max_abs_diff(c, cref), 1e-11 * (k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(1, 1, 1),
        std::make_tuple<idx, idx, idx>(3, 4, 5),
        std::make_tuple<idx, idx, idx>(8, 4, 16),
        std::make_tuple<idx, idx, idx>(16, 16, 16),
        std::make_tuple<idx, idx, idx>(17, 19, 23),   // all ragged
        std::make_tuple<idx, idx, idx>(64, 64, 64),
        std::make_tuple<idx, idx, idx>(128, 32, 257), // crosses KC boundary
        std::make_tuple<idx, idx, idx>(130, 70, 40),  // crosses MC boundary
        std::make_tuple<idx, idx, idx>(200, 100, 300),
        std::make_tuple<idx, idx, idx>(1, 100, 50),
        std::make_tuple<idx, idx, idx>(100, 1, 50)));

class SymmSizes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(SymmSizes, LeftLowerMatchesDense) {
  const auto [m, n] = GetParam();
  Rng rng(m + n);
  Matrix a = random_matrix(m, m, rng);
  Matrix full = sym_full(uplo::lower, m, a.data(), a.ld());
  Matrix b = random_matrix(m, n, rng);
  Matrix c = random_matrix(m, n, rng);
  Matrix cref = c;
  blas::symm(side::left, uplo::lower, m, n, 0.5, a.data(), a.ld(), b.data(),
             b.ld(), 2.0, c.data(), c.ld());
  ref_gemm(op::none, op::none, m, n, m, 0.5, full.data(), full.ld(), b.data(),
           b.ld(), 2.0, cref.data(), cref.ld());
  EXPECT_LE(max_abs_diff(c, cref), 1e-11 * (m + 1));
}

TEST_P(SymmSizes, RightUpperMatchesDense) {
  const auto [m, n] = GetParam();
  Rng rng(3 * m + n);
  Matrix a = random_matrix(n, n, rng);
  Matrix full = sym_full(uplo::upper, n, a.data(), a.ld());
  Matrix b = random_matrix(m, n, rng);
  Matrix c = random_matrix(m, n, rng);
  Matrix cref = c;
  blas::symm(side::right, uplo::upper, m, n, -1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c.data(), c.ld());
  ref_gemm(op::none, op::none, m, n, n, -1.0, b.data(), b.ld(), full.data(),
           full.ld(), 0.0, cref.data(), cref.ld());
  EXPECT_LE(max_abs_diff(c, cref), 1e-11 * (n + 1));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SymmSizes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                                           std::make_tuple<idx, idx>(5, 9),
                                           std::make_tuple<idx, idx>(32, 32),
                                           std::make_tuple<idx, idx>(65, 33),
                                           std::make_tuple<idx, idx>(120, 77)));

class SyrkSizes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(SyrkSizes, SyrkMatchesGemmOnTriangle) {
  const auto [n, k] = GetParam();
  Rng rng(n * 31 + k);
  for (uplo ul : {uplo::lower, uplo::upper}) {
    for (op tr : {op::none, op::trans}) {
      const Matrix a = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      Matrix c = random_matrix(n, n, rng);
      Matrix cref = c;
      blas::syrk(ul, tr, n, k, 0.8, a.data(), a.ld(), -0.2, c.data(), c.ld());
      ref_gemm(tr, tr == op::none ? op::trans : op::none, n, n, k, 0.8,
               a.data(), a.ld(), a.data(), a.ld(), -0.2, cref.data(),
               cref.ld());
      for (idx j = 0; j < n; ++j) {
        const idx ibeg = ul == uplo::lower ? j : 0;
        const idx iend = ul == uplo::lower ? n : j + 1;
        for (idx i = ibeg; i < iend; ++i)
          EXPECT_NEAR(c(i, j), cref(i, j), 1e-11 * (k + 1));
        // The opposite triangle must be untouched: verified via unchanged
        // entries relative to the pre-call copy held in cref's complement.
      }
    }
  }
}

TEST_P(SyrkSizes, SyrkLeavesOtherTriangleUntouched) {
  const auto [n, k] = GetParam();
  Rng rng(4 * n + k);
  Matrix a = random_matrix(n, k, rng);
  Matrix c = random_matrix(n, n, rng);
  Matrix before = c;
  blas::syrk(uplo::lower, op::none, n, k, 1.0, a.data(), a.ld(), 1.0,
             c.data(), c.ld());
  for (idx j = 1; j < n; ++j)
    for (idx i = 0; i < j; ++i) EXPECT_EQ(c(i, j), before(i, j));
}

TEST_P(SyrkSizes, Syr2kMatchesGemmOnTriangle) {
  const auto [n, k] = GetParam();
  Rng rng(n * 17 + k);
  for (uplo ul : {uplo::lower, uplo::upper}) {
    for (op tr : {op::none, op::trans}) {
      const Matrix a = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      const Matrix b = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      Matrix c = random_matrix(n, n, rng);
      Matrix cref = c;
      blas::syr2k(ul, tr, n, k, 1.1, a.data(), a.ld(), b.data(), b.ld(), 0.4,
                  c.data(), c.ld());
      ref_gemm(tr, tr == op::none ? op::trans : op::none, n, n, k, 1.1,
               a.data(), a.ld(), b.data(), b.ld(), 0.4, cref.data(),
               cref.ld());
      ref_gemm(tr, tr == op::none ? op::trans : op::none, n, n, k, 1.1,
               b.data(), b.ld(), a.data(), a.ld(), 1.0, cref.data(),
               cref.ld());
      for (idx j = 0; j < n; ++j) {
        const idx ibeg = ul == uplo::lower ? j : 0;
        const idx iend = ul == uplo::lower ? n : j + 1;
        for (idx i = ibeg; i < iend; ++i)
          EXPECT_NEAR(c(i, j), cref(i, j), 1e-11 * (k + 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SyrkSizes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                                           std::make_tuple<idx, idx>(7, 3),
                                           std::make_tuple<idx, idx>(32, 64),
                                           std::make_tuple<idx, idx>(96, 96),
                                           std::make_tuple<idx, idx>(101, 53),
                                           std::make_tuple<idx, idx>(150, 40)));

struct TriCase {
  side sd;
  uplo ul;
  op trans;
  diag d;
};

class TrsmCases : public ::testing::TestWithParam<TriCase> {};

TEST_P(TrsmCases, TrsmInvertsDenseProduct) {
  // B = 2 op(A) X (or 2 X op(A)) by the dense reference; trsm with
  // alpha = 0.5 must give X back.
  const auto c = GetParam();
  const idx m = 33, n = 18;
  const idx ka = c.sd == side::left ? m : n;
  Rng rng(37);
  Matrix a = random_matrix(ka, ka, rng);
  for (idx i = 0; i < ka; ++i) a(i, i) += 4.0;
  const Matrix full = tri_full(c.ul, c.d, ka, a.data(), a.ld());
  const Matrix x = random_matrix(m, n, rng);
  Matrix b(m, n);
  if (c.sd == side::left) {
    ref_gemm(c.trans, op::none, m, n, m, 2.0, full.data(), full.ld(),
             x.data(), x.ld(), 0.0, b.data(), b.ld());
  } else {
    ref_gemm(op::none, c.trans, m, n, n, 2.0, x.data(), x.ld(), full.data(),
             full.ld(), 0.0, b.data(), b.ld());
  }
  blas::trsm(c.sd, c.ul, c.trans, c.d, m, n, 0.5, a.data(), a.ld(), b.data(),
             b.ld());
  EXPECT_LE(max_abs_diff(b, x), 1e-11 * ka);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TrsmCases,
    ::testing::Values(
        TriCase{side::left, uplo::lower, op::none, diag::non_unit},
        TriCase{side::left, uplo::lower, op::trans, diag::unit},
        TriCase{side::left, uplo::upper, op::none, diag::unit},
        TriCase{side::left, uplo::upper, op::trans, diag::non_unit},
        TriCase{side::right, uplo::lower, op::none, diag::unit},
        TriCase{side::right, uplo::lower, op::trans, diag::non_unit},
        TriCase{side::right, uplo::upper, op::none, diag::non_unit},
        TriCase{side::right, uplo::upper, op::trans, diag::unit}));

}  // namespace
}  // namespace tseig
