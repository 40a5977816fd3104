// Tests for Cholesky, the generalized-to-standard reduction and the sygv
// driver.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/potrf.hpp"
#include "solver/sygv.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::random_matrix;

/// Random SPD matrix: G G^T + n I.
Matrix random_spd(idx n, Rng& rng) {
  Matrix g = random_matrix(n, n, rng);
  Matrix b(n, n);
  blas::gemm(op::none, op::trans, n, n, n, 1.0, g.data(), g.ld(), g.data(),
             g.ld(), 0.0, b.data(), b.ld());
  for (idx i = 0; i < n; ++i) b(i, i) += static_cast<double>(n);
  return b;
}

class PotrfSizes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(PotrfSizes, ReconstructsSpdMatrix) {
  const auto [n, nb] = GetParam();
  Rng rng(n + nb);
  Matrix b = random_spd(n, rng);
  Matrix l = b;
  lapack::potrf(n, l.data(), l.ld(), nb);
  // Zero the (unreferenced) upper triangle before forming L L^T.
  for (idx j = 1; j < n; ++j)
    for (idx i = 0; i < j; ++i) l(i, j) = 0.0;
  Matrix llt(n, n);
  blas::gemm(op::none, op::trans, n, n, n, 1.0, l.data(), l.ld(), l.data(),
             l.ld(), 0.0, llt.data(), llt.ld());
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i)
      EXPECT_NEAR(llt(i, j), b(i, j), 1e-10 * n * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PotrfSizes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 8),
                                           std::make_tuple<idx, idx>(5, 8),
                                           std::make_tuple<idx, idx>(16, 4),
                                           std::make_tuple<idx, idx>(33, 8),
                                           std::make_tuple<idx, idx>(64, 16),
                                           std::make_tuple<idx, idx>(65, 16),
                                           std::make_tuple<idx, idx>(100, 100)));

TEST(Potrf, RejectsIndefinite) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -2.0;  // indefinite
  a(2, 2) = 1.0;
  EXPECT_THROW(lapack::potrf(3, a.data(), a.ld(), 8), convergence_error);
}

TEST(Sygst, BlockedMatchesUnblocked) {
  const idx n = 70;
  Rng rng(3);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix b = random_spd(n, rng);
  Matrix l = b;
  lapack::potrf(n, l.data(), l.ld(), 16);

  Matrix c1 = a, c2 = a;
  lapack::sygs2(n, c1.data(), c1.ld(), l.data(), l.ld());
  lapack::sygst(n, c2.data(), c2.ld(), l.data(), l.ld(), 16);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i) EXPECT_NEAR(c1(i, j), c2(i, j), 1e-11 * n);
}

TEST(Sygst, StandardFormIsSimilar) {
  // C = inv(L) A inv(L)^T must satisfy L C L^T == A.
  const idx n = 40;
  Rng rng(5);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix b = random_spd(n, rng);
  Matrix l = b;
  lapack::potrf(n, l.data(), l.ld(), 16);
  for (idx j = 1; j < n; ++j)
    for (idx i = 0; i < j; ++i) l(i, j) = 0.0;

  Matrix c = a;
  lapack::sygst(n, c.data(), c.ld(), l.data(), l.ld(), 16);
  // Mirror C (sygst writes the lower triangle only).
  for (idx j = 0; j < n; ++j)
    for (idx i = j + 1; i < n; ++i) c(j, i) = c(i, j);

  Matrix lc(n, n), lclt(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, l.data(), l.ld(), c.data(),
             c.ld(), 0.0, lc.data(), lc.ld());
  blas::gemm(op::none, op::trans, n, n, n, 1.0, lc.data(), lc.ld(), l.data(),
             l.ld(), 0.0, lclt.data(), lclt.ld());
  EXPECT_LE(max_abs_diff(lclt, a), 1e-9 * n * n);
}

class SygvMethods : public ::testing::TestWithParam<solver::method> {};

TEST_P(SygvMethods, GeneralizedResidualAndBOrthogonality) {
  const idx n = 56;
  Rng rng(7);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix b = random_spd(n, rng);

  solver::SyevOptions opts;
  opts.algo = GetParam();
  opts.nb = 16;
  auto res = solver::sygv(n, a.data(), a.ld(), b.data(), b.ld(), opts);

  // ||A X - B X Lambda|| small and X^T B X == I, via the shared scaled
  // oracles (B-orthonormality replaces plain orthonormality here).
  EXPECT_TRUE(testing::check_generalized_eigen_pairs(a, b, res.eigenvalues,
                                                     res.z));
}

TEST_P(SygvMethods, KnownGeneralizedSpectrum) {
  // Construct A = B^(1/2)-free known problem: pick X with B-orthonormal
  // columns (X = L^-T Q) and A = B X diag(w) X^T B; then A x_i = w_i B x_i.
  const idx n = 32;
  Rng rng(9);
  Matrix b = random_spd(n, rng);
  Matrix l = b;
  lapack::potrf(n, l.data(), l.ld(), 8);
  Matrix q;
  lapack::random_orthogonal(n, rng, q);
  // X = L^-T Q.
  Matrix x = q;
  blas::trsm(side::left, uplo::lower, op::trans, diag::non_unit, n, n, 1.0,
             l.data(), l.ld(), x.data(), x.ld());
  auto w = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  // A = (B X) diag(w) (B X)^T with B X = L L^T X = L Q.
  Matrix lq(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, l.data(), l.ld(), q.data(),
             q.ld(), 0.0, lq.data(), lq.ld());
  // Note potrf left the upper triangle of l holding B's upper entries;
  // zero it for the product.
  Matrix lz = l;
  for (idx j = 1; j < n; ++j)
    for (idx i = 0; i < j; ++i) lz(i, j) = 0.0;
  blas::gemm(op::none, op::none, n, n, n, 1.0, lz.data(), lz.ld(), q.data(),
             q.ld(), 0.0, lq.data(), lq.ld());
  Matrix lqd(n, n);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) lqd(i, j) = lq(i, j) * w[static_cast<size_t>(j)];
  Matrix a(n, n);
  blas::gemm(op::none, op::trans, n, n, n, 1.0, lqd.data(), lqd.ld(),
             lq.data(), lq.ld(), 0.0, a.data(), a.ld());

  solver::SyevOptions opts;
  opts.algo = GetParam();
  opts.nb = 8;
  auto res = solver::sygv(n, a.data(), a.ld(), b.data(), b.ld(), opts);
  const double bnorm =
      lapack::lansy(lapack::norm::one, uplo::lower, n, b.data(), b.ld());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                w[static_cast<size_t>(i)], 1e-11 * n * bnorm);
}

TEST_P(SygvMethods, SubsetFraction) {
  const idx n = 50;
  Rng rng(11);
  Matrix a = testing::random_symmetric(n, rng);
  Matrix b = random_spd(n, rng);
  solver::SyevOptions opts;
  opts.algo = GetParam();
  opts.solver = solver::eig_solver::bisect;
  opts.fraction = 0.2;
  opts.nb = 16;
  auto res = solver::sygv(n, a.data(), a.ld(), b.data(), b.ld(), opts);
  ASSERT_EQ(res.z.cols(), n / 5);
  // Subset through the bisect/inverse-iteration path: looser B-orthogonality
  // allowance, same shared oracle.
  EXPECT_TRUE(testing::check_generalized_eigen_pairs(a, b, res.eigenvalues,
                                                     res.z, 50.0, 1e4));
}

INSTANTIATE_TEST_SUITE_P(Methods, SygvMethods,
                         ::testing::Values(solver::method::one_stage,
                                           solver::method::two_stage));

TEST(Sygv, NonFiniteAIsRejected) {
  // The standard solve screens the transformed matrix, so a NaN or Inf in
  // A's referenced triangle ends as invalid_argument, not as garbage.
  const idx n = 24;
  Rng rng(61);
  const Matrix b = random_spd(n, rng);
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    Matrix a = testing::random_symmetric(n, rng);
    a(7, 2) = bad;
    EXPECT_THROW(solver::sygv(n, a.data(), a.ld(), b.data(), b.ld(),
                              solver::SyevOptions{}),
                 invalid_argument);
  }
}

}  // namespace
}  // namespace tseig
