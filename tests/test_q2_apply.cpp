// Tests for the Q2 back-transformation (naive and diamond-blocked) and the
// full two-stage eigensolver chain.
#include <initializer_list>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/householder.hpp"
#include "lapack/steqr.hpp"
#include "test_support.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;
using testing::same_bits;

twostage::BandMatrix random_band(idx n, idx bw, Rng& rng) {
  twostage::BandMatrix b(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      b.at(i, j) = 2.0 * rng.uniform() - 1.0;
  return b;
}

/// Dense Q2 oracle (reverse-order reflector accumulation).
Matrix dense_q2(const twostage::V2Factor& v2) {
  const idx n = v2.n();
  Matrix q(n, n);
  lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
  std::vector<double> work(static_cast<size_t>(n));
  for (idx s = v2.nsweeps() - 1; s >= 0; --s) {
    for (idx b = v2.nblocks(s) - 1; b >= 0; --b) {
      const double tau = v2.tau(s, b);
      if (tau == 0.0) continue;
      lapack::larf(side::left, v2.len(s, b), n, v2.v(s, b), 1, tau,
                   q.data() + v2.start(s, b), q.ld(), work.data());
    }
  }
  return q;
}

TEST(Q2Apply, NaiveMatchesDenseOracle) {
  const idx n = 40, bw = 5;
  Rng rng(3);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);

  Matrix e = testing::random_matrix(n, 13, rng);
  Matrix expect(n, 13);
  Matrix q2 = dense_q2(res.v2);
  blas::gemm(op::none, op::none, n, 13, n, 1.0, q2.data(), q2.ld(), e.data(),
             e.ld(), 0.0, expect.data(), expect.ld());

  twostage::apply_q2_naive(op::none, res.v2, e.data(), e.ld(), 13);
  EXPECT_LE(max_abs_diff(e, expect), 1e-12 * n);
}

TEST(Q2Apply, NaiveTransIsInverse) {
  const idx n = 30, bw = 4;
  Rng rng(5);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  Matrix e = testing::random_matrix(n, 7, rng);
  Matrix e0 = e;
  twostage::apply_q2_naive(op::none, res.v2, e.data(), e.ld(), 7);
  twostage::apply_q2_naive(op::trans, res.v2, e.data(), e.ld(), 7);
  EXPECT_LE(max_abs_diff(e, e0), 1e-12 * n);
}

class Q2BlockedShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(Q2BlockedShapes, BlockedMatchesNaive) {
  const auto [n, bw, ell] = GetParam();
  Rng rng(n * 7 + bw * 3 + ell);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);

  for (op tr : {op::none, op::trans}) {
    Matrix e = testing::random_matrix(n, 9, rng);
    Matrix enaive = e;
    twostage::apply_q2_naive(tr, res.v2, enaive.data(), enaive.ld(), 9);
    twostage::apply_q2(tr, res.v2, e.data(), e.ld(), 9, ell);
    EXPECT_LE(max_abs_diff(e, enaive), 1e-11 * n)
        << "trans=" << static_cast<char>(tr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Q2BlockedShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(12, 3, 1),
                      std::make_tuple<idx, idx, idx>(20, 4, 2),
                      std::make_tuple<idx, idx, idx>(33, 5, 3),
                      std::make_tuple<idx, idx, idx>(48, 6, 4),
                      std::make_tuple<idx, idx, idx>(48, 6, 6),
                      std::make_tuple<idx, idx, idx>(48, 6, 16),  // ell > nb
                      std::make_tuple<idx, idx, idx>(64, 8, 8),
                      std::make_tuple<idx, idx, idx>(50, 2, 4),
                      std::make_tuple<idx, idx, idx>(40, 12, 5)));

/// Applies op(Q2) (both ops) to a random E of each width in `widths` on one
/// worker and on each worker count in `workers`: every column must come
/// out bitwise as on one worker.
void expect_worker_independent(const twostage::V2Factor& v2, idx ell,
                               std::initializer_list<idx> widths,
                               std::initializer_list<int> workers, Rng& rng) {
  const idx n = v2.n();
  for (const op tr : {op::none, op::trans}) {
    for (const idx ncols : widths) {
      const Matrix e0 = testing::random_matrix(n, ncols, rng);
      Matrix es = e0;
      twostage::apply_q2(tr, v2, es.data(), es.ld(), ncols, ell, 1);
      for (const int w : workers) {
        Matrix e = e0;
        twostage::apply_q2(tr, v2, e.data(), e.ld(), ncols, ell, w);
        EXPECT_TRUE(same_bits(e, es))
            << "n " << n << " ell " << ell << " trans "
            << static_cast<char>(tr) << " ncols " << ncols << ", " << w
            << " workers";
      }
    }
  }
}

TEST(Q2Apply, ParallelMatchesSequential) {
  // The diamonds are filled and applied on `workers` bodies.  ell = 16 >
  // nb = 6 gives diamonds of varying widths.
  for (const auto& [n, bw, ell] : {std::make_tuple<idx, idx, idx>(56, 7, 4),
                                   std::make_tuple<idx, idx, idx>(48, 6, 16)}) {
    Rng rng(11 + n);
    const auto res = twostage::sb2st(random_band(n, bw, rng));
    expect_worker_independent(res.v2, ell, {1, 8, 24}, {2, 4}, rng);
  }
  // The default ell = 32 on stage-1 band widths: 32-wide diamonds on column
  // blocks of 8 to 136 columns.
  for (const idx n : {idx{200}, idx{300}}) {
    for (const idx nb : {idx{32}, idx{48}}) {
      Rng rng(17 + n + nb);
      const auto res = twostage::sb2st(random_band(n, nb, rng));
      expect_worker_independent(res.v2, 32, {24, 40, 48, 130}, {2, 3, 4},
                                rng);
    }
  }
}

TEST(Q2Apply, SubsetOfColumns) {
  // Applying to fewer columns equals the corresponding columns of the full
  // application (the f < 1 eigenvector-subset path).
  const idx n = 36, bw = 4;
  Rng rng(13);
  auto band = random_band(n, bw, rng);
  auto res = twostage::sb2st(band);
  Matrix e = testing::random_matrix(n, 10, rng);
  Matrix efull = e;
  twostage::apply_q2(op::none, res.v2, efull.data(), efull.ld(), 10, 4);
  Matrix esub(n, 3);
  lapack::lacpy(n, 3, e.data(), e.ld(), esub.data(), esub.ld());
  twostage::apply_q2(op::none, res.v2, esub.data(), esub.ld(), 3, 4);
  for (idx j = 0; j < 3; ++j)
    for (idx i = 0; i < n; ++i) EXPECT_EQ(esub(i, j), efull(i, j));
}

class FullChainShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(FullChainShapes, TwoStageEigensolverSolvesA) {
  // The complete two-stage pipeline of the paper:
  //   A --sy2sb--> B --sb2st--> T --steqr--> (Lambda, E)
  //   Z = Q1 Q2 E  via apply_q2 then apply_q1 (Eq. 3).
  const auto [n, nb, ell] = GetParam();
  Rng rng(n * 3 + nb);
  Matrix a = testing::random_symmetric(n, rng);

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto s2 = twostage::sb2st(s1.band);

  // Eigendecomposition of T with eigenvectors accumulated from identity.
  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = s2.d, e = s2.e;
  lapack::steqr(n, w.data(), e.data(), z.data(), z.ld(), n);

  // Back-transformation: Z <- Q1 (Q2 Z).
  twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), n, ell);
  twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), n);

  EXPECT_LE(testing::eigen_residual(a, z, w), 1e-11 * n);
  EXPECT_LE(orthogonality_error(z), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FullChainShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(16, 4, 2),
                      std::make_tuple<idx, idx, idx>(33, 8, 4),
                      std::make_tuple<idx, idx, idx>(64, 16, 8),
                      std::make_tuple<idx, idx, idx>(65, 16, 8),
                      std::make_tuple<idx, idx, idx>(80, 8, 6),
                      std::make_tuple<idx, idx, idx>(100, 20, 10)));

TEST(FullChain, KnownSpectrumRecovered) {
  const idx n = 60, nb = 10;
  Rng rng(17);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::geometric, n, 1e8,
                                    rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto s2 = twostage::sb2st(s1.band);
  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = s2.d, e = s2.e;
  lapack::steqr(n, w.data(), e.data(), z.data(), z.ld(), n);
  twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), n, 6);
  twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), n);

  const double anorm = lapack::lansy(lapack::norm::one, uplo::lower, n,
                                     a.data(), a.ld());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(w[static_cast<size_t>(i)], eigs[static_cast<size_t>(i)],
                1e-13 * n * anorm);
  EXPECT_LE(testing::eigen_residual(a, z, w), 1e-12 * n * anorm);
}

}  // namespace
}  // namespace tseig
