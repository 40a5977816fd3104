// Tests for the one-stage tridiagonal reduction baseline (sytrd/ormtr).
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/steqr.hpp"
#include "onestage/sytrd.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;
using testing::same_bits;

/// Reconstructs Q by applying the factored-form reflectors to the identity.
Matrix build_q(idx n, const Matrix& factored, const std::vector<double>& tau,
               idx nb) {
  Matrix q(n, n);
  lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
  onestage::ormtr(op::none, n, n, factored.data(), factored.ld(), tau.data(),
                  q.data(), q.ld(), nb);
  return q;
}

Matrix tridiag_dense(idx n, const std::vector<double>& d,
                     const std::vector<double>& e) {
  Matrix t(n, n);
  for (idx i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<size_t>(i)];
      t(i, i + 1) = e[static_cast<size_t>(i)];
    }
  }
  return t;
}

class SytrdShapes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(SytrdShapes, ReconstructsA) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 10 + nb);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix a0 = a;

  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), nb);

  Matrix q = build_q(n, a, tau, nb);
  EXPECT_LE(orthogonality_error(q), 1e-12 * n);

  // Q T Q^T must reconstruct A.
  Matrix t = tridiag_dense(n, d, e);
  Matrix qt(n, n), qtqt(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, q.data(), q.ld(), t.data(),
             t.ld(), 0.0, qt.data(), qt.ld());
  blas::gemm(op::none, op::trans, n, n, n, 1.0, qt.data(), qt.ld(), q.data(),
             q.ld(), 0.0, qtqt.data(), qtqt.ld());
  EXPECT_LE(max_abs_diff(qtqt, a0), 1e-11 * n);
}

TEST_P(SytrdShapes, OrmtrTransIsInverse) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 17 + nb);
  Matrix a = testing::random_symmetric(n, rng);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), nb);

  Matrix c = testing::random_matrix(n, 7, rng);
  Matrix c0 = c;
  onestage::ormtr(op::none, n, 7, a.data(), a.ld(), tau.data(), c.data(),
                  c.ld(), nb);
  onestage::ormtr(op::trans, n, 7, a.data(), a.ld(), tau.data(), c.data(),
                  c.ld(), nb);
  EXPECT_LE(max_abs_diff(c, c0), 1e-12 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SytrdShapes,
    ::testing::Values(std::make_tuple<idx, idx>(1, 8),
                      std::make_tuple<idx, idx>(2, 8),
                      std::make_tuple<idx, idx>(3, 8),
                      std::make_tuple<idx, idx>(16, 4),
                      std::make_tuple<idx, idx>(33, 8),
                      std::make_tuple<idx, idx>(64, 16),
                      std::make_tuple<idx, idx>(65, 16),   // ragged tail
                      std::make_tuple<idx, idx>(100, 32),
                      std::make_tuple<idx, idx>(90, 90)));  // forces sytd2

TEST(Sytrd, OrmtrBitwiseAcrossKernelBudgets) {
  // ormtr applies its blocks on column blocks of C, split over
  // blas::kernel_workers() workers: budgets 1 and 4 must give the same bits.
  const idx n = 130, nb = 32;  // ragged last block
  Rng rng(41);
  Matrix a = testing::random_symmetric(n, rng);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), nb);
  for (const op tr : {op::none, op::trans}) {
    for (const idx ncols : {idx{1}, idx{7}, idx{40}, n}) {
      const Matrix c0 = testing::random_matrix(n, ncols, rng);
      Matrix c1 = c0, c4 = c0;
      {
        const blas::ScopedKernelWorkers budget(1);
        onestage::ormtr(tr, n, ncols, a.data(), a.ld(), tau.data(), c1.data(),
                        c1.ld(), nb);
      }
      {
        const blas::ScopedKernelWorkers budget(4);
        onestage::ormtr(tr, n, ncols, a.data(), a.ld(), tau.data(), c4.data(),
                        c4.ld(), nb);
      }
      EXPECT_TRUE(same_bits(c1, c4))
          << "trans " << static_cast<char>(tr) << " ncols " << ncols;
    }
  }
}

TEST(Sytrd, BlockedMatchesUnblocked) {
  const idx n = 72;
  Rng rng(3);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix b = a;
  std::vector<double> da(static_cast<size_t>(n)), ea(static_cast<size_t>(n)),
      ta(static_cast<size_t>(n));
  std::vector<double> db(static_cast<size_t>(n)), eb(static_cast<size_t>(n)),
      tb(static_cast<size_t>(n));
  onestage::sytd2(n, a.data(), a.ld(), da.data(), ea.data(), ta.data());
  onestage::sytrd(n, b.data(), b.ld(), db.data(), eb.data(), tb.data(), 16);
  // Same deterministic factorization up to round-off.
  EXPECT_LE(max_abs_diff(da.data(), db.data(), n), 1e-10);
  EXPECT_LE(max_abs_diff(ea.data(), eb.data(), n - 1), 1e-10);
  EXPECT_LE(max_abs_diff(ta.data(), tb.data(), n - 1), 1e-10);
}

TEST(Sytrd, PreservesEigenvaluesOfKnownSpectrum) {
  const idx n = 60;
  Rng rng(8);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), 16);
  lapack::sterf(n, d.data(), e.data());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<size_t>(i)], eigs[static_cast<size_t>(i)],
                1e-10 * n);
}

TEST(Sytrd, FullEigensolvePipeline) {
  // One-stage pipeline exactly as the Figure-1a baseline runs it:
  // sytrd -> steqr accumulating into Q -> eigenpairs of A.
  const idx n = 80;
  Rng rng(21);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix a0 = a;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), 16);

  Matrix z = build_q(n, a, tau, 16);
  lapack::steqr(n, d.data(), e.data(), z.data(), z.ld(), n);

  EXPECT_LE(testing::eigen_residual(a0, z, d), 1e-11 * n);
  EXPECT_LE(orthogonality_error(z), 1e-11 * n);
}

TEST(Sytrd, DiagonalMatrixGivesZeroOffdiag) {
  const idx n = 12;
  Matrix a(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) = static_cast<double>(i);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), 4);
  for (idx i = 0; i + 1 < n; ++i) EXPECT_NEAR(e[static_cast<size_t>(i)], 0.0, 1e-15);
}

}  // namespace
}  // namespace tseig
