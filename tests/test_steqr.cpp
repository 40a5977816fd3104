// Tests for the tridiagonal QL/QR eigensolvers (steqr, and the root-free
// sterf against an independent bisection oracle) and the test-matrix
// generators.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "test_support.hpp"
#include "tridiag/bisect.hpp"

namespace tseig {
namespace {

namespace matgen = testing::matgen;
using testing::orthogonality_error;

/// Builds the dense matrix for tridiagonal (d, e).
Matrix tridiag_dense(const std::vector<double>& d,
                     const std::vector<double>& e) {
  const idx n = static_cast<idx>(d.size());
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

class SteqrSizes : public ::testing::TestWithParam<idx> {};

TEST_P(SteqrSizes, ToeplitzAnalyticSpectrum) {
  const idx n = GetParam();
  // T = tridiag(-1, 2, -1): lambda_k = 4 sin^2(k pi / (2(n+1))), k=1..n.
  std::vector<double> d(static_cast<size_t>(n), 2.0);
  std::vector<double> e(static_cast<size_t>(n), -1.0);
  lapack::sterf(n, d.data(), e.data());
  for (idx k = 0; k < n; ++k) {
    const double s = std::sin((k + 1) * M_PI / (2.0 * (n + 1)));
    EXPECT_NEAR(d[static_cast<size_t>(k)], 4.0 * s * s, 1e-12 * n);
  }
}

TEST_P(SteqrSizes, RandomTridiagEigenpairs) {
  const idx n = GetParam();
  Rng rng(n * 5 + 3);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n));
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1 > 0 ? n - 1 : 0);
  Matrix t = tridiag_dense(d, e);

  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = d;
  std::vector<double> ework = e;
  lapack::steqr(n, w.data(), ework.data(), z.data(), z.ld(), n);

  EXPECT_LE(testing::eigen_residual(t, z, w), 1e-12 * n);
  EXPECT_LE(orthogonality_error(z), 1e-12 * n);
  EXPECT_TRUE(std::is_sorted(w.begin(), w.end()));

  // Eigenvalues-only path agrees.
  std::vector<double> w2 = d, e2 = e;
  lapack::sterf(n, w2.data(), e2.data());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(w[static_cast<size_t>(i)], w2[static_cast<size_t>(i)], 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteqrSizes,
                         ::testing::Values<idx>(1, 2, 3, 5, 8, 16, 33, 64,
                                                100, 250));

TEST(Steqr, DiagonalMatrixIsSorted) {
  std::vector<double> d = {3.0, -1.0, 2.0, 0.5};
  std::vector<double> e = {0.0, 0.0, 0.0, 0.0};
  Matrix z(4, 4);
  lapack::laset(4, 4, 0.0, 1.0, z.data(), z.ld());
  lapack::steqr(4, d.data(), e.data(), z.data(), z.ld(), 4);
  const std::vector<double> expect = {-1.0, 0.5, 2.0, 3.0};
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(d[i], expect[i]);
  // z must be the permutation matrix sorting the diagonal.
  EXPECT_DOUBLE_EQ(z(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(z(3, 1), 1.0);
  EXPECT_DOUBLE_EQ(z(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(z(0, 3), 1.0);
}

TEST(Steqr, TwoByTwoExact) {
  // [[a, b], [b, c]] has analytic eigenvalues.
  const double a = 1.0, b = 2.0, c = -1.0;
  std::vector<double> d = {a, c}, e = {b, 0.0};
  lapack::sterf(2, d.data(), e.data());
  const double mid = (a + c) / 2.0;
  const double rad = std::sqrt((a - c) * (a - c) / 4.0 + b * b);
  EXPECT_NEAR(d[0], mid - rad, 1e-14);
  EXPECT_NEAR(d[1], mid + rad, 1e-14);
}

TEST(Steqr, WilkinsonW21NearDegeneratePairs) {
  // Wilkinson's W21+: d = |i - 10|, e = 1.  Its large eigenvalues come in
  // famously close pairs; QL must still resolve orthogonal eigenvectors.
  const idx n = 21;
  std::vector<double> d(21), e(21, 1.0);
  e[20] = 0.0;
  for (idx i = 0; i < n; ++i) d[static_cast<size_t>(i)] = std::fabs(static_cast<double>(i) - 10.0);
  Matrix t = tridiag_dense(d, e);
  Matrix z(n, n);
  lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
  std::vector<double> w = d, ework = e;
  lapack::steqr(n, w.data(), ework.data(), z.data(), z.ld(), n);
  EXPECT_LE(testing::eigen_residual(t, z, w), 1e-13 * n);
  EXPECT_LE(orthogonality_error(z), 1e-13 * n);
  // The top pair is separated by ~1e-15 relative; they must still be distinct
  // sorted values around 10.746.
  EXPECT_NEAR(w[20], 10.746194182903393, 1e-9);
  EXPECT_NEAR(w[19], 10.746194182903322, 1e-9);
}

TEST(Steqr, AccumulatesIntoExistingBasis) {
  // Passing Q as the initial z yields eigenvectors of Q T Q^T.
  const idx n = 24;
  Rng rng(9);
  Matrix q;
  lapack::random_orthogonal(n, rng, q);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n));
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(d, e);

  // A = Q T Q^T.
  Matrix qt(n, n), a(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, q.data(), q.ld(), t.data(),
             t.ld(), 0.0, qt.data(), qt.ld());
  blas::gemm(op::none, op::trans, n, n, n, 1.0, qt.data(), qt.ld(), q.data(),
             q.ld(), 0.0, a.data(), a.ld());

  Matrix z = q;
  std::vector<double> w = d, ework = e;
  lapack::steqr(n, w.data(), ework.data(), z.data(), z.ld(), n);
  EXPECT_LE(testing::eigen_residual(a, z, w), 1e-12 * n);
}

// ---- sterf (root-free QL/QR) against bisection --------------------------

/// One tridiagonal of the sterf sweep; e holds the n - 1 couplings.
struct TridiagCase {
  std::string name;
  std::vector<double> d, e;
};

TridiagCase truncated(std::string name, matgen::Tridiag t, idx n) {
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n - 1));
  return {std::move(name), std::move(t.d), std::move(t.e)};
}

TridiagCase random_case(std::string name, idx n, std::uint64_t seed,
                        double scale) {
  Rng rng(seed);
  TridiagCase c{std::move(name), std::vector<double>(static_cast<size_t>(n)),
                std::vector<double>(static_cast<size_t>(n - 1))};
  rng.fill_uniform(c.d.data(), n);
  rng.fill_uniform(c.e.data(), n - 1);
  for (double& x : c.d) x *= scale;
  for (double& x : c.e) x *= scale;
  return c;
}

/// The classes of the sweep at size n: Wilkinson ladders, glued ladders,
/// random, a diagonal graded from 1e-150 to 1e150, zero couplings that
/// split off 1x1 and 2x2 blocks, entries near 1e+-300 (block scaled down
/// and up) and a subnormal coupling in an otherwise tiny matrix.
std::vector<TridiagCase> sterf_cases(idx n) {
  std::vector<TridiagCase> cases;
  cases.push_back(truncated("wilkinson", matgen::wilkinson(n), n));
  cases.push_back(truncated(
      "glued_wilkinson", matgen::glued_wilkinson((n + 20) / 21, 21, 1e-14), n));
  cases.push_back(random_case("random", n, 100 + n, 1.0));

  TridiagCase graded{"graded", std::vector<double>(static_cast<size_t>(n)),
                     std::vector<double>(static_cast<size_t>(n - 1))};
  for (idx i = 0; i < n; ++i) {
    const double t = n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
    graded.d[static_cast<size_t>(i)] =
        (i % 3 == 1 ? -1.0 : 1.0) * std::pow(10.0, -150.0 + 300.0 * t);
  }
  for (idx i = 0; i + 1 < n; ++i)
    graded.e[static_cast<size_t>(i)] =
        0.5 * std::sqrt(std::fabs(graded.d[static_cast<size_t>(i)])) *
        std::sqrt(std::fabs(graded.d[static_cast<size_t>(i + 1)]));
  cases.push_back(graded);

  // e[0] = 0 splits off d[0]; e[2] = 0 leaves the 2x2 block {1, 2}; the
  // same at the bottom and one split in the middle.
  TridiagCase split = random_case("split", n, 200 + n, 1.0);
  for (const idx k : {idx{0}, idx{2}, n / 2, n - 4, n - 2})
    if (k >= 0 && k < n - 1) split.e[static_cast<size_t>(k)] = 0.0;
  cases.push_back(split);

  cases.push_back(random_case("huge", n, 300 + n, 1e300));
  cases.push_back(random_case("tiny", n, 400 + n, 1e-300));
  TridiagCase subnormal = random_case("subnormal_e", n, 500 + n, 1e-305);
  if (n > 1) subnormal.e[static_cast<size_t>((n - 1) / 2)] = 3e-310;
  cases.push_back(subnormal);
  return cases;
}

/// max |w - ref| / (n eps ||T||_inf).
double scaled_error(const TridiagCase& c, const std::vector<double>& w,
                    const std::vector<double>& ref) {
  const idx n = static_cast<idx>(c.d.size());
  double tnorm = 0.0;
  for (idx i = 0; i < n; ++i) {
    double row = std::fabs(c.d[static_cast<size_t>(i)]);
    if (i > 0) row += std::fabs(c.e[static_cast<size_t>(i - 1)]);
    if (i + 1 < n) row += std::fabs(c.e[static_cast<size_t>(i)]);
    tnorm = std::max(tnorm, row);
  }
  double err = 0.0;
  for (idx i = 0; i < n; ++i)
    err = std::max(err, std::fabs(w[static_cast<size_t>(i)] -
                                  ref[static_cast<size_t>(i)]));
  if (err == 0.0) return 0.0;
  // T = 0 with n > 1: bisection stops within its pivot floor (about
  // DBL_MIN) of 0.  (For n = 1 stebz returns d[0] exactly, so the floor is
  // not needed there.)
  if (tnorm == 0.0) return err / std::numeric_limits<double>::min();
  return err / (static_cast<double>(n) *
                std::numeric_limits<double>::epsilon() * tnorm);
}

/// sterf on (d, e) with NaN guards at e[n-1] and e[n]: the result must not
/// read them (the eigenvalues stay finite) nor write them.
std::vector<double> guarded_sterf(const std::vector<double>& d0,
                                  const std::vector<double>& e0) {
  const idx n = static_cast<idx>(d0.size());
  std::vector<double> d = d0;
  std::vector<double> e = e0;
  const double guard = std::numeric_limits<double>::quiet_NaN();
  e.push_back(guard);
  e.push_back(guard);
  lapack::sterf(n, d.data(), e.data());
  EXPECT_TRUE(std::isnan(e[static_cast<size_t>(n - 1)]));
  EXPECT_TRUE(std::isnan(e[static_cast<size_t>(n)]));
  for (const double x : d) EXPECT_TRUE(std::isfinite(x));
  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  return d;
}

class SterfSizes : public ::testing::TestWithParam<idx> {};

TEST_P(SterfSizes, MatchesBisectionOnEveryClass) {
  // Bisection (stebz_index) is independent of both QL/QR codes.  Each case
  // also runs reversed: the spectrum is the same, and the end with the
  // smaller |d| moves, so the other of QL and QR runs.
  const idx n = GetParam();
  for (const TridiagCase& c : sterf_cases(n)) {
    const std::vector<double> ref =
        tridiag::stebz_index(n, c.d.data(), c.e.data(), 0, n - 1);
    TridiagCase rev{c.name + " reversed",
                    std::vector<double>(c.d.rbegin(), c.d.rend()),
                    std::vector<double>(c.e.rbegin(), c.e.rend())};
    for (const TridiagCase& t : {c, rev}) {
      SCOPED_TRACE(t.name + " n " + std::to_string(n));
      const std::vector<double> w = guarded_sterf(t.d, t.e);
      EXPECT_LE(scaled_error(t, w, ref), 2.0);
    }
  }
}

TEST_P(SterfSizes, MatchesSteqrEigenvalues) {
  // steqr (tql2 with vectors) on the classes it takes unscaled.
  const idx n = GetParam();
  for (const TridiagCase& c : sterf_cases(n)) {
    if (c.name == "huge" || c.name == "tiny" || c.name == "subnormal_e")
      continue;
    SCOPED_TRACE(c.name + " n " + std::to_string(n));
    std::vector<double> wq = c.d;
    std::vector<double> eq = c.e;
    eq.resize(static_cast<size_t>(n));
    Matrix z(n, n);
    lapack::laset(n, n, 0.0, 1.0, z.data(), z.ld());
    lapack::steqr(n, wq.data(), eq.data(), z.data(), z.ld(), n);
    EXPECT_LE(scaled_error(c, guarded_sterf(c.d, c.e), wq), 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SterfSizes,
                         ::testing::Values<idx>(1, 2, 3, 17, 64, 300));

TEST(Sterf, TwoByTwoBlocksAreClosedForm) {
  // Couplings split the matrix into 2x2 blocks only, each solved by the
  // closed form; the result is exactly the blocks' eigenvalues, sorted.
  std::vector<double> d = {4.0, 1.0, -2.0, 3.0, 1e-3, 1e-3};
  std::vector<double> e = {2.0, 0.0, 1e-8, 0.0, 1e-3};
  std::vector<double> ref;
  for (size_t b = 0; b < 3; ++b) {
    const double a = d[2 * b], c = d[2 * b + 1], x = e[2 * b];
    const double mid = 0.5 * (a + c);
    const double rad = std::sqrt(0.25 * (a - c) * (a - c) + x * x);
    ref.push_back(mid - rad);
    ref.push_back(mid + rad);
  }
  std::sort(ref.begin(), ref.end());
  const std::vector<double> w = guarded_sterf(d, e);
  for (size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(w[i], ref[i], 4e-16 * std::fabs(ref[i]) + 1e-300) << i;
}

TEST(Sterf, NanInputThrowsConvergenceError) {
  std::vector<double> d(17, 1.0);
  std::vector<double> e(17, 0.5);
  d[8] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(lapack::sterf(17, d.data(), e.data()), convergence_error);
}

TEST(Generators, RandomOrthogonalIsOrthogonal) {
  Rng rng(123);
  Matrix q;
  lapack::random_orthogonal(64, rng, q);
  EXPECT_LE(orthogonality_error(q), 1e-12 * 64);
}

class SpectrumKinds
    : public ::testing::TestWithParam<lapack::spectrum_kind> {};

TEST_P(SpectrumKinds, SymmetricWithSpectrumHasMatchingInvariants) {
  Rng rng(55);
  const idx n = 48;
  auto eigs = lapack::make_spectrum(GetParam(), n, 1e6, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  // trace(A) == sum of eigenvalues; ||A||_F == sqrt(sum lambda^2).
  double trace = 0.0;
  for (idx i = 0; i < n; ++i) trace += a(i, i);
  const double sum = std::accumulate(eigs.begin(), eigs.end(), 0.0);
  EXPECT_NEAR(trace, sum, 1e-9 * n);

  double sumsq = 0.0;
  for (double v : eigs) sumsq += v * v;
  EXPECT_NEAR(lapack::lansy(lapack::norm::fro, uplo::lower, n, a.data(),
                            a.ld()),
              std::sqrt(sumsq), 1e-9 * n);

  // Symmetry.
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) EXPECT_EQ(a(i, j), a(j, i));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpectrumKinds,
    ::testing::Values(lapack::spectrum_kind::linear,
                      lapack::spectrum_kind::geometric,
                      lapack::spectrum_kind::clustered,
                      lapack::spectrum_kind::two_cluster,
                      lapack::spectrum_kind::random_uniform));

TEST(Aux, LangeNormsMatchDefinitions) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = -2; a(0, 2) = 3;
  a(1, 0) = -4; a(1, 1) = 5; a(1, 2) = -6;
  EXPECT_DOUBLE_EQ(lapack::lange(lapack::norm::max, 2, 3, a.data(), a.ld()), 6.0);
  EXPECT_DOUBLE_EQ(lapack::lange(lapack::norm::one, 2, 3, a.data(), a.ld()), 9.0);
  EXPECT_DOUBLE_EQ(lapack::lange(lapack::norm::inf, 2, 3, a.data(), a.ld()), 15.0);
  EXPECT_NEAR(lapack::lange(lapack::norm::fro, 2, 3, a.data(), a.ld()),
              std::sqrt(91.0), 1e-14);
}

TEST(Aux, Lapy2ExtremeValues) {
  EXPECT_DOUBLE_EQ(lapack::lapy2(3.0, 4.0), 5.0);
  EXPECT_DOUBLE_EQ(lapack::lapy2(0.0, 0.0), 0.0);
  EXPECT_NEAR(lapack::lapy2(1e300, 1e300), std::sqrt(2.0) * 1e300, 1e287);
  EXPECT_NEAR(lapack::lapy2(1e-300, 1e-300), std::sqrt(2.0) * 1e-300, 1e-313);
}

}  // namespace
}  // namespace tseig
