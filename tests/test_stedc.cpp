// Tests for the divide-and-conquer tridiagonal eigensolver.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "onestage/sytrd.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"
#include "tridiag/stedc.hpp"

namespace tseig {
namespace {

using testing::orthogonality_error;

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

void check_eigensystem(idx n, const std::vector<double>& d0,
                       const std::vector<double>& e0, idx crossover,
                       double tol_scale = 1.0) {
  Matrix t = tridiag_dense(n, d0, e0);
  std::vector<double> d = d0, e = e0;
  e.resize(static_cast<size_t>(n), 0.0);
  Matrix z(n, n);
  tridiag::stedc(n, d.data(), e.data(), z.data(), z.ld(),
                 tridiag::StedcOptions{crossover});

  EXPECT_TRUE(testing::check_eigen_pairs(t, d, z, 50.0 * tol_scale,
                                         50.0 * tol_scale));

  // Eigenvalues must match the QL/QR reference.
  std::vector<double> dref = d0, eref = e0;
  eref.resize(static_cast<size_t>(n), 0.0);
  lapack::sterf(n, dref.data(), eref.data());
  const double scale = std::max(std::fabs(dref.front()), std::fabs(dref.back()));
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<size_t>(i)], dref[static_cast<size_t>(i)],
                1e-12 * n * std::max(scale, 1.0) * tol_scale)
        << i;
}

class StedcSizes : public ::testing::TestWithParam<idx> {};

TEST_P(StedcSizes, RandomTridiagonal) {
  const idx n = GetParam();
  Rng rng(n * 11 + 1);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  check_eigensystem(n, d, e, 16);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StedcSizes,
                         ::testing::Values<idx>(1, 2, 5, 16, 17, 33, 64, 100,
                                                150, 257));

TEST(Stedc, ToeplitzAnalyticSpectrum) {
  const idx n = 120;
  std::vector<double> d(static_cast<size_t>(n), 2.0),
      e(static_cast<size_t>(n), -1.0);
  e[static_cast<size_t>(n - 1)] = 0.0;
  std::vector<double> dc = d, ec = e;
  Matrix z(n, n);
  tridiag::stedc(n, dc.data(), ec.data(), z.data(), z.ld(),
                 tridiag::StedcOptions{24});
  for (idx k = 0; k < n; ++k) {
    const double s = std::sin((k + 1) * M_PI / (2.0 * (n + 1)));
    EXPECT_NEAR(dc[static_cast<size_t>(k)], 4.0 * s * s, 1e-12 * n);
  }
  EXPECT_LE(orthogonality_error(z), 1e-12 * n);
}

TEST(Stedc, CrossoverValuesAgree) {
  const idx n = 90;
  Rng rng(5);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(n, d, e);
  for (idx crossover : {idx{4}, idx{8}, idx{32}, idx{128}}) {
    std::vector<double> dc = d, ec = e;
    Matrix z(n, n);
    tridiag::stedc(n, dc.data(), ec.data(), z.data(), z.ld(),
                   tridiag::StedcOptions{crossover});
    EXPECT_TRUE(testing::check_eigen_pairs(t, dc, z)) << crossover;
  }
}

TEST(Stedc, ZeroCouplingSplitsCleanly) {
  // e[m] == 0 at the split point: rho == 0 path (no secular solve).
  const idx n = 40;
  Rng rng(7);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  e[n / 2 - 1] = 0.0;
  check_eigensystem(n, d, e, 8);
}

TEST(Stedc, GluedWilkinsonHeavyDeflation) {
  // Glued Wilkinson matrices (matgen builder): famously clustered spectrum
  // that stresses deflation and eigenvector orthogonality.
  const auto glued = testing::matgen::glued_wilkinson(4, 21, 1e-8);
  const idx n = static_cast<idx>(glued.d.size());
  const std::vector<double>& d = glued.d;
  std::vector<double> e = glued.e;
  e.resize(static_cast<size_t>(n), 0.0);

  Matrix t = tridiag_dense(n, d, e);
  std::vector<double> dc = d, ec = e;
  Matrix z(n, n);
  const tridiag::StedcStats stats = tridiag::stedc(
      n, dc.data(), ec.data(), z.data(), z.ld(), tridiag::StedcOptions{16});
  // Clustered spectra stress orthogonality; allow extra headroom.
  EXPECT_TRUE(testing::check_eigen_pairs(t, dc, z, 200.0, 200.0));
  // D&C eigenvalues against the independent sterf oracle.
  EXPECT_TRUE(testing::check_eigenvalues(
      testing::matgen::tridiag_eigenvalues(glued), dc, 200.0));

  EXPECT_GT(stats.merges, 0);
  EXPECT_GT(stats.deflated, 0);  // clustered spectrum must deflate
}

TEST(Stedc, WilkinsonLadderNearDegeneratePairs) {
  // W21+ through D&C: the nearly-equal top pairs must come out distinct,
  // ordered and orthogonal (a classic inverse-iteration failure mode that
  // D&C must not share).
  const auto wil = testing::matgen::wilkinson(21);
  const idx n = 21;
  std::vector<double> dc = wil.d, ec = wil.e;
  ec.resize(static_cast<size_t>(n), 0.0);
  Matrix z(n, n);
  tridiag::stedc(n, dc.data(), ec.data(), z.data(), z.ld(),
                 tridiag::StedcOptions{8});
  Matrix t = tridiag_dense(n, wil.d, wil.e);
  EXPECT_TRUE(testing::check_eigen_pairs(t, dc, z));
  EXPECT_TRUE(testing::check_eigenvalues(
      testing::matgen::tridiag_eigenvalues(wil), dc));
  EXPECT_LT(dc[19], dc[20]);  // the famous pair stays strictly ordered
}

TEST(Stedc, ConstantDiagonalDeflatesCompletely) {
  // T = c I: every merge deflates everything; eigenvectors are identity-ish.
  const idx n = 48;
  std::vector<double> d(static_cast<size_t>(n), 3.25),
      e(static_cast<size_t>(n), 0.0);
  Matrix z(n, n);
  std::vector<double> dc = d, ec = e;
  tridiag::stedc(n, dc.data(), ec.data(), z.data(), z.ld(),
                 tridiag::StedcOptions{8});
  for (idx i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(dc[static_cast<size_t>(i)], 3.25);
  EXPECT_LE(orthogonality_error(z), 1e-13 * n);
}

TEST(Stedc, NegativeCouplingHandled) {
  // The rank-one correction uses |beta| with a sign carried into z; verify a
  // matrix with negative off-diagonals at every split.
  const idx n = 50;
  Rng rng(13);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  for (idx i = 0; i + 1 < n; ++i) e[static_cast<size_t>(i)] = -0.5 - rng.uniform();
  check_eigensystem(n, d, e, 8);
}

TEST(Stedc, LargeProblemAccuracy) {
  const idx n = 400;
  Rng rng(17);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  check_eigensystem(n, d, e, 32);
}

TEST(Stedc, SecularIterationsPerRoot) {
  // The two-pole rational model needs a handful of evaluations of the
  // secular function per root (midpoint included); a bisection fallback
  // would need about 50.
  const idx n = 512;
  Rng rng(19);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  Matrix z(n, n);
  const tridiag::StedcStats st = tridiag::stedc(
      n, d.data(), e.data(), z.data(), z.ld(), tridiag::StedcOptions{32});
  ASSERT_GT(st.secular_solves, 0);
  const double mean = static_cast<double>(st.secular_iterations) /
                      static_cast<double>(st.secular_solves);
  EXPECT_GE(mean, 1.0);
  EXPECT_LE(mean, 6.0);
}

TEST(Stedc, MatgenCatalogSpectra) {
  // Every spectrum class of the generator catalog at scale 1, reduced to
  // tridiagonal form, through small and default leaves: accurate pairs,
  // eigenvalues matching sterf, and results bitwise independent of the
  // worker count.
  for (idx n : {idx{97}, idx{300}}) {
    for (const auto& spec : testing::matgen::torture_cases(n, 4000 + n)) {
      if (spec.scale != 1.0) continue;
      testing::matgen::Generated gen = testing::matgen::generate(spec);
      std::vector<double> d(static_cast<size_t>(n)),
          e(static_cast<size_t>(n), 0.0), tau(static_cast<size_t>(n));
      onestage::sytrd(n, gen.a.data(), gen.a.ld(), d.data(), e.data(),
                      tau.data(), 32);
      e[static_cast<size_t>(n - 1)] = 0.0;
      const Matrix t = tridiag_dense(n, d, e);
      std::vector<double> dref = d, eref = e;
      lapack::sterf(n, dref.data(), eref.data());

      for (idx crossover : {idx{4}, idx{32}}) {
        SCOPED_TRACE(std::string(testing::matgen::class_name(spec.cls)) +
                     " n=" + std::to_string(n) +
                     " crossover=" + std::to_string(crossover));
        std::vector<double> w[2];
        Matrix zw[2];
        const int workers[2] = {1, 4};
        for (int r = 0; r < 2; ++r) {
          w[r] = d;
          std::vector<double> ew = e;
          zw[r].reshape(n, n);
          tridiag::StedcOptions opts;
          opts.crossover = crossover;
          opts.num_workers = workers[r];
          tridiag::stedc(n, w[r].data(), ew.data(), zw[r].data(), zw[r].ld(),
                         opts);
        }
        EXPECT_TRUE(testing::check_eigen_pairs(t, w[0], zw[0], 50.0, 50.0));
        EXPECT_TRUE(testing::check_eigenvalues(dref, w[0], 50.0));
        EXPECT_EQ(0, std::memcmp(w[0].data(), w[1].data(),
                                 sizeof(double) * static_cast<size_t>(n)));
        EXPECT_EQ(0, std::memcmp(zw[0].data(), zw[1].data(),
                                 sizeof(double) * static_cast<size_t>(n * n)));
      }
    }
  }
}

TEST(Stedc, SolveFlopsUseBlockStructure) {
  // The merges multiply only the nonzero blocks of the children's basis:
  // 4/3 n^3 over the tree without deflation, where a dense back-multiply
  // costs 8/3 n^3.
  const idx n = 512;
  Rng rng(23);
  const Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.solver = solver::eig_solver::dc;
  const solver::SyevResult res = solver::syev(n, a.data(), a.ld(), opts);
  const double n3 = static_cast<double>(n) * n * n;
  EXPECT_LE(static_cast<double>(res.phases.solve_flops) / n3, 1.6);
}

}  // namespace
}  // namespace tseig
