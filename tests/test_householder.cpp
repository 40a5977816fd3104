// Tests for Householder reflector generation/application and QR helpers.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/householder.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;
using testing::same_bits;
using testing::random_matrix;

/// Forms the dense n-by-n reflector H = I - tau v v^T.
Matrix dense_reflector(idx n, const double* v, double tau) {
  Matrix h(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      h(i, j) = (i == j ? 1.0 : 0.0) - tau * v[i] * v[j];
    }
  }
  return h;
}

class LarfgSizes : public ::testing::TestWithParam<idx> {};

TEST_P(LarfgSizes, AnnihilatesBelowFirst) {
  const idx n = GetParam();
  Rng rng(n * 3 + 1);
  std::vector<double> x(n);
  rng.fill_uniform(x.data(), n);
  std::vector<double> orig = x;
  double alpha = x[0];
  const double tau = lapack::larfg(n, alpha, x.data() + 1, 1);

  // Build v (unit first element) and verify H [alpha0; x0] = [beta; 0].
  std::vector<double> v(n, 1.0);
  for (idx i = 1; i < n; ++i) v[i] = x[i];
  Matrix h = dense_reflector(n, v.data(), tau);
  std::vector<double> hx(n, 0.0);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) hx[i] += h(i, j) * orig[j];
  EXPECT_NEAR(hx[0], alpha, 1e-13 * n);
  for (idx i = 1; i < n; ++i) EXPECT_NEAR(hx[i], 0.0, 1e-13 * n);

  // Norm preservation: |beta| = ||[alpha0; x0]||.
  double norm = 0.0;
  for (idx i = 0; i < n; ++i) norm += orig[i] * orig[i];
  EXPECT_NEAR(std::fabs(alpha), std::sqrt(norm), 1e-13 * n);

  // H orthogonal.
  EXPECT_LE(orthogonality_error(h), 1e-13 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LarfgSizes,
                         ::testing::Values<idx>(2, 3, 5, 16, 64, 200));

TEST(Larfg, ZeroTailGivesTauZero) {
  std::vector<double> x(5, 0.0);
  double alpha = 3.0;
  const double tau = lapack::larfg(5, alpha, x.data() + 1, 1);
  EXPECT_EQ(tau, 0.0);
  EXPECT_EQ(alpha, 3.0);
}

TEST(Larfg, LengthOne) {
  double alpha = -2.0;
  EXPECT_EQ(lapack::larfg(1, alpha, nullptr, 1), 0.0);
}

TEST(Larfg, TinyValuesAreRescaled) {
  std::vector<double> x = {0.0, 1e-305, 1e-306};
  double alpha = 1e-305;
  const double tau = lapack::larfg(3, alpha, x.data() + 1, 1);
  EXPECT_GT(std::fabs(alpha), 0.0);
  EXPECT_TRUE(std::isfinite(alpha));
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_TRUE(std::isfinite(x[1]) && std::isfinite(x[2]));
}

TEST(Larf, LeftMatchesDense) {
  const idx m = 23, n = 11;
  Rng rng(5);
  Matrix c = random_matrix(m, n, rng);
  Matrix c0 = c;
  std::vector<double> v(m), work(n);
  rng.fill_uniform(v.data(), m);
  const double tau = 0.8;
  lapack::larf(side::left, m, n, v.data(), 1, tau, c.data(), c.ld(),
               work.data());
  Matrix h = dense_reflector(m, v.data(), tau);
  Matrix expect(m, n);
  blas::gemm(op::none, op::none, m, n, m, 1.0, h.data(), h.ld(), c0.data(),
             c0.ld(), 0.0, expect.data(), expect.ld());
  EXPECT_LE(max_abs_diff(c, expect), 1e-13 * m);
}

TEST(Larf, RightMatchesDense) {
  const idx m = 13, n = 21;
  Rng rng(6);
  Matrix c = random_matrix(m, n, rng);
  Matrix c0 = c;
  std::vector<double> v(n), work(m);
  rng.fill_uniform(v.data(), n);
  const double tau = -0.6;
  lapack::larf(side::right, m, n, v.data(), 1, tau, c.data(), c.ld(),
               work.data());
  Matrix h = dense_reflector(n, v.data(), tau);
  Matrix expect(m, n);
  blas::gemm(op::none, op::none, m, n, n, 1.0, c0.data(), c0.ld(), h.data(),
             h.ld(), 0.0, expect.data(), expect.ld());
  EXPECT_LE(max_abs_diff(c, expect), 1e-13 * n);
}

/// Builds k random reflectors in explicit-diagonal storage plus their taus.
void random_reflectors(idx m, idx k, Rng& rng, Matrix& v,
                       std::vector<double>& tau) {
  // Factorize a random matrix so that (v, tau) is a genuine reflector set.
  Matrix a = random_matrix(m, k, rng);
  tau.assign(static_cast<size_t>(k), 0.0);
  std::vector<double> work(static_cast<size_t>(std::max(m, k)));
  lapack::geqr2(m, k, a.data(), a.ld(), tau.data(), work.data());
  v.reshape(m, k);
  lapack::extract_v(m, k, a.data(), a.ld(), v.data(), v.ld());
}

/// Dense product H = H_0 H_1 ... H_{k-1} from explicit-diagonal V and taus.
Matrix dense_block_reflector(idx m, idx k, const Matrix& v,
                             const std::vector<double>& tau) {
  Matrix h(m, m);
  lapack::laset(m, m, 0.0, 1.0, h.data(), h.ld());
  for (idx i = k - 1; i >= 0; --i) {
    Matrix hi = dense_reflector(m, v.col(i), tau[static_cast<size_t>(i)]);
    Matrix tmp(m, m);
    blas::gemm(op::none, op::none, m, m, m, 1.0, hi.data(), hi.ld(), h.data(),
               h.ld(), 0.0, tmp.data(), tmp.ld());
    h = tmp;
  }
  return h;
}

class LarfbShapes : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(LarfbShapes, AllSidesMatchDenseProduct) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 100 + n * 10 + k);
  Matrix v;
  std::vector<double> tau;
  random_reflectors(m, k, rng, v, tau);
  Matrix t(k, k);
  lapack::larft(m, k, v.data(), v.ld(), tau.data(), t.data(), t.ld());
  Matrix h = dense_block_reflector(m, k, v, tau);

  std::vector<double> work(static_cast<size_t>(std::max(m, n)) * k);
  for (op tr : {op::none, op::trans}) {
    // Left: C <- op(H) C with C m-by-n.
    {
      Matrix c = random_matrix(m, n, rng);
      Matrix c0 = c;
      lapack::larfb(side::left, tr, m, n, k, v.data(), v.ld(), t.data(),
                    t.ld(), c.data(), c.ld(), work.data());
      Matrix expect(m, n);
      blas::gemm(tr, op::none, m, n, m, 1.0, h.data(), h.ld(), c0.data(),
                 c0.ld(), 0.0, expect.data(), expect.ld());
      EXPECT_LE(max_abs_diff(c, expect), 1e-12 * m)
          << "left trans=" << static_cast<char>(tr);
    }
    // Right: C <- C op(H) with C n-by-m.
    {
      Matrix c = random_matrix(n, m, rng);
      Matrix c0 = c;
      lapack::larfb(side::right, tr, n, m, k, v.data(), v.ld(), t.data(),
                    t.ld(), c.data(), c.ld(), work.data());
      Matrix expect(n, m);
      blas::gemm(op::none, tr, n, m, m, 1.0, c0.data(), c0.ld(), h.data(),
                 h.ld(), 0.0, expect.data(), expect.ld());
      EXPECT_LE(max_abs_diff(c, expect), 1e-12 * m)
          << "right trans=" << static_cast<char>(tr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LarfbShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(8, 5, 3),
                      std::make_tuple<idx, idx, idx>(16, 16, 8),
                      std::make_tuple<idx, idx, idx>(33, 17, 7),
                      std::make_tuple<idx, idx, idx>(50, 20, 20),
                      std::make_tuple<idx, idx, idx>(64, 40, 1)));

/// larfb's contract, for both sides and both ops at block width k: an m-row
/// V acting on C (m-by-ncols on the left, ncols-by-m on the right).
class LarfbContract : public ::testing::TestWithParam<idx> {
protected:
  // Wider than larfb's 256-column (row) slices, so a whole call is cut
  // internally too.
  static constexpr idx kCols = 300;
  idx k = GetParam();
  idx m = GetParam() + 37;
  Matrix v;
  Matrix t;
  Rng rng{static_cast<std::uint64_t>(GetParam())};

  void SetUp() override {
    std::vector<double> tau;
    random_reflectors(m, k, rng, v, tau);
    t.reshape(k, k);
    lapack::larft(m, k, v.data(), v.ld(), tau.data(), t.data(), t.ld());
  }

  /// C <- op(H) C (left) or C op(H) (right) on `count` columns (left) or
  /// rows (right) of C starting at `first`.
  void apply(side sd, op tr, const Matrix& tf, Matrix& c, idx first,
             idx count) const {
    std::vector<double> work(static_cast<size_t>(count * k));
    if (sd == side::left) {
      lapack::larfb(sd, tr, m, count, k, v.data(), v.ld(), tf.data(),
                    tf.ld(), c.col(first), c.ld(), work.data());
    } else {
      lapack::larfb(sd, tr, count, m, k, v.data(), v.ld(), tf.data(),
                    tf.ld(), c.data() + first, c.ld(), work.data());
    }
  }

  Matrix random_c(side sd) {
    return sd == side::left ? random_matrix(m, kCols, rng)
                            : random_matrix(kCols, m, rng);
  }
};

TEST_P(LarfbContract, StrictlyLowerTIsNotReferenced) {
  // Callers may leave stale values below T's diagonal (syevbench reuses one
  // T buffer across block widths): NaN there must not reach C.
  Matrix tnan = t;
  for (idx j = 0; j < k; ++j)
    for (idx i = j + 1; i < k; ++i)
      tnan(i, j) = std::numeric_limits<double>::quiet_NaN();
  for (const side sd : {side::left, side::right}) {
    for (const op tr : {op::none, op::trans}) {
      const Matrix c0 = random_c(sd);
      Matrix clean = c0, stale = c0;
      apply(sd, tr, t, clean, 0, kCols);
      apply(sd, tr, tnan, stale, 0, kCols);
      EXPECT_TRUE(same_bits(clean, stale))
          << "k " << k << " side " << static_cast<char>(sd) << " trans "
          << static_cast<char>(tr);
    }
  }
}

TEST_P(LarfbContract, SlicesMatchOneCall) {
  // Each column (left) or row (right) of C gets the same arithmetic however
  // C is cut: the column-block drivers rely on it for results that do not
  // depend on the worker count.  The whole call (slices 256 + 44) and the
  // last piece here (274 = 256 + 18) are also cut inside larfb.
  for (const side sd : {side::left, side::right}) {
    for (const op tr : {op::none, op::trans}) {
      const Matrix c0 = random_c(sd);
      Matrix whole = c0, sliced = c0;
      apply(sd, tr, t, whole, 0, kCols);
      idx first = 0;
      for (const idx width : {idx{1}, idx{8}, idx{17}, kCols - 26}) {
        apply(sd, tr, t, sliced, first, width);
        first += width;
      }
      EXPECT_TRUE(same_bits(whole, sliced))
          << "k " << k << " side " << static_cast<char>(sd) << " trans "
          << static_cast<char>(tr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockWidths, LarfbContract,
                         ::testing::Values<idx>(8, 24, 32, 64));

class QrShapes : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(QrShapes, GeqrfReconstructsA) {
  const auto [m, n, nb] = GetParam();
  Rng rng(m + n + nb);
  Matrix a = random_matrix(m, n, rng);
  Matrix a0 = a;
  const idx k = std::min(m, n);
  std::vector<double> tau(static_cast<size_t>(k));
  lapack::geqrf(m, n, a.data(), a.ld(), tau.data(), nb);

  // Q from org2r; R from the upper triangle.
  Matrix q = a;
  lapack::org2r(m, k, k, q.data(), q.ld(), tau.data());
  Matrix r(k, n);
  lapack::lacpy_tri(uplo::upper, k, n, a.data(), a.ld(), r.data(), r.ld());

  Matrix qr(m, n);
  blas::gemm(op::none, op::none, m, n, k, 1.0, q.data(), q.ld(), r.data(),
             r.ld(), 0.0, qr.data(), qr.ld());
  EXPECT_LE(max_abs_diff(qr, a0), 1e-12 * m);

  // Q has orthonormal columns.
  Matrix qk(m, k);
  lapack::lacpy(m, k, q.data(), q.ld(), qk.data(), qk.ld());
  EXPECT_LE(orthogonality_error(qk), 1e-12 * m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::make_tuple<idx, idx, idx>(1, 1, 4),
                      std::make_tuple<idx, idx, idx>(10, 10, 4),
                      std::make_tuple<idx, idx, idx>(50, 30, 8),
                      std::make_tuple<idx, idx, idx>(64, 64, 16),
                      std::make_tuple<idx, idx, idx>(100, 40, 7),   // ragged nb
                      std::make_tuple<idx, idx, idx>(37, 90, 16),   // wide
                      std::make_tuple<idx, idx, idx>(128, 96, 32)));

TEST(Geqrf, BlockedMatchesUnblocked) {
  const idx m = 90, n = 60;
  Rng rng(77);
  Matrix a = random_matrix(m, n, rng);
  Matrix b = a;
  std::vector<double> taua(static_cast<size_t>(n)), taub(static_cast<size_t>(n));
  std::vector<double> work(static_cast<size_t>(m));
  lapack::geqr2(m, n, a.data(), a.ld(), taua.data(), work.data());
  lapack::geqrf(m, n, b.data(), b.ld(), taub.data(), 16);
  // Same factorization up to round-off (deterministic algorithm).
  EXPECT_LE(max_abs_diff(a, b), 1e-12);
  EXPECT_LE(max_abs_diff(taua.data(), taub.data(), n), 1e-12);
}

class Geqrt3Shapes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(Geqrt3Shapes, ExplicitVAndTReconstructA) {
  // (I - V T V^T) [R; 0] == A, V unit lower trapezoidal with explicit
  // zeros above the diagonal, and I - V T V^T orthogonal.
  const auto [m, n] = GetParam();
  Rng rng(3 * m + n);
  const Matrix a0 = random_matrix(m, n, rng);
  Matrix v = a0, r(n, n), t(n, n);
  lapack::geqrt3(m, n, v.data(), v.ld(), r.data(), r.ld(), t.data(), t.ld());
  for (idx c = 0; c < n; ++c) {
    for (idx i = 0; i < c; ++i) {
      EXPECT_EQ(v(i, c), 0.0);
      EXPECT_EQ(t(c, i), 0.0);
    }
    EXPECT_EQ(v(c, c), 1.0);
  }
  Matrix qr(m, n);
  for (idx c = 0; c < n; ++c)
    for (idx i = 0; i <= c; ++i) qr(i, c) = r(i, c);
  std::vector<double> work(static_cast<size_t>(n * n));
  lapack::larfb(side::left, op::none, m, n, n, v.data(), v.ld(), t.data(),
                t.ld(), qr.data(), qr.ld(), work.data());
  EXPECT_LE(max_abs_diff(qr, a0), 1e-12 * m);

  Matrix q(m, m);
  lapack::laset(m, m, 0.0, 1.0, q.data(), q.ld());
  std::vector<double> wq(static_cast<size_t>(n * m));
  lapack::larfb(side::left, op::none, m, m, n, v.data(), v.ld(), t.data(),
                t.ld(), q.data(), q.ld(), wq.data());
  EXPECT_LE(orthogonality_error(q), 1e-12 * m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Geqrt3Shapes,
    ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                      std::make_tuple<idx, idx>(9, 5),     // base case only
                      std::make_tuple<idx, idx>(16, 16),
                      std::make_tuple<idx, idx>(40, 17),   // one split
                      std::make_tuple<idx, idx>(64, 64),   // square
                      std::make_tuple<idx, idx>(300, 64),  // stage-1 panel
                      std::make_tuple<idx, idx>(150, 96)));

}  // namespace
}  // namespace tseig
