// Property tests of the full eigensolver pipelines across matrix classes:
// every (method x solver) combination must satisfy the numerical contract of
// DESIGN.md section 5 on well-separated, clustered, geometric and scaled
// spectra.
#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "matgen.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using lapack::spectrum_kind;
using solver::eig_solver;
using solver::jobz;
using solver::method;
using solver::syev;
using solver::SyevOptions;

/// Both reductions: at these sizes the default (method::automatic) would
/// only ever run one-stage.
constexpr method kMethods[] = {method::one_stage, method::two_stage};

struct Case {
  method algo;
  eig_solver solver;
  spectrum_kind kind;
};

class PipelineSpectra : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineSpectra, ContractHolds) {
  const auto c = GetParam();
  const idx n = 64;
  Rng rng(static_cast<std::uint64_t>(c.kind) * 100 + 7);
  auto eigs = lapack::make_spectrum(c.kind, n, 1e7, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);
  const double anorm = std::max(
      1.0, lapack::lansy(lapack::norm::one, uplo::lower, n, a.data(), a.ld()));

  SyevOptions opts;
  opts.algo = c.algo;
  opts.solver = c.solver;
  opts.nb = 16;
  auto res = syev(n, a.data(), a.ld(), opts);

  // Eigenvalues match the prescribed spectrum to O(eps * ||A||).
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                eigs[static_cast<size_t>(i)], 1e-12 * n * anorm)
        << "eigenvalue " << i;

  // Residual and orthogonality via the shared scaled oracles.  Inverse
  // iteration guarantees looser orthogonality inside tight clusters than
  // QR/D&C; the bound reflects that (still far below sqrt(eps)/(n eps)).
  const double otol = c.solver == eig_solver::bisect ? 1e7 : 200.0;
  EXPECT_TRUE(
      testing::check_eigen_pairs(a, res.eigenvalues, res.z, 200.0, otol));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSpectra,
    ::testing::Values(
        // two-stage x {qr, dc, bisect} x spectrum kinds
        Case{method::two_stage, eig_solver::dc, spectrum_kind::linear},
        Case{method::two_stage, eig_solver::dc, spectrum_kind::geometric},
        Case{method::two_stage, eig_solver::dc, spectrum_kind::clustered},
        Case{method::two_stage, eig_solver::dc, spectrum_kind::two_cluster},
        Case{method::two_stage, eig_solver::dc, spectrum_kind::random_uniform},
        Case{method::two_stage, eig_solver::qr, spectrum_kind::linear},
        Case{method::two_stage, eig_solver::qr, spectrum_kind::geometric},
        Case{method::two_stage, eig_solver::qr, spectrum_kind::clustered},
        Case{method::two_stage, eig_solver::bisect, spectrum_kind::linear},
        Case{method::two_stage, eig_solver::bisect, spectrum_kind::geometric},
        Case{method::two_stage, eig_solver::bisect,
             spectrum_kind::random_uniform},
        // one-stage spot checks on the hard spectra
        Case{method::one_stage, eig_solver::dc, spectrum_kind::clustered},
        Case{method::one_stage, eig_solver::dc, spectrum_kind::geometric},
        Case{method::one_stage, eig_solver::qr, spectrum_kind::two_cluster},
        Case{method::one_stage, eig_solver::bisect, spectrum_kind::linear}));

class PipelineScales : public ::testing::TestWithParam<double> {};

TEST_P(PipelineScales, ScaleInvariance) {
  // Eigenvalues scale linearly with the matrix; residuals stay relative.
  const double scale = GetParam();
  const idx n = 40;
  Rng rng(19);
  auto eigs = lapack::make_spectrum(spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) a(i, j) *= scale;

  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    SyevOptions opts;
    opts.algo = algo;
    opts.nb = 8;
    auto res = syev(n, a.data(), a.ld(), opts);
    for (idx i = 0; i < n; ++i)
      EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                  scale * eigs[static_cast<size_t>(i)],
                  1e-12 * n * scale * static_cast<double>(n));
    // The scaled oracles are themselves scale-invariant, so one threshold
    // covers matrices from 1e-100 to 1e100.
    EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, PipelineScales,
                         ::testing::Values(1e-100, 1e-20, 1e-3, 1.0, 1e3,
                                           1e20, 1e100));

class PipelineBandwidths
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(PipelineBandwidths, TwoStageAcrossTilings) {
  // The result must be independent of nb and ell choices.
  const auto [n, nb, ell] = GetParam();
  Rng rng(n + nb + ell);
  Matrix a = testing::random_symmetric(n, rng);

  SyevOptions opts;
  opts.algo = method::two_stage;  // nb and ell tile the two-stage path
  opts.nb = nb;
  opts.ell = ell;
  auto res = syev(n, a.data(), a.ld(), opts);
  EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));

  SyevOptions ref;
  ref.algo = method::one_stage;
  auto baseline = syev(n, a.data(), a.ld(), ref);
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                baseline.eigenvalues[static_cast<size_t>(i)], 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, PipelineBandwidths,
    ::testing::Values(std::make_tuple<idx, idx, idx>(48, 4, 1),
                      std::make_tuple<idx, idx, idx>(48, 8, 3),
                      std::make_tuple<idx, idx, idx>(48, 12, 8),
                      std::make_tuple<idx, idx, idx>(49, 8, 64),  // ell >> nb
                      std::make_tuple<idx, idx, idx>(63, 16, 16),
                      std::make_tuple<idx, idx, idx>(64, 32, 5),
                      std::make_tuple<idx, idx, idx>(65, 64, 7)));  // nb ~ n

class PipelineLargeMatgen
    : public ::testing::TestWithParam<testing::matgen::spectrum_class> {};

TEST_P(PipelineLargeMatgen, LargeAdversarialSpectraTwoStageDC) {
  // Production-scale regression: n = 1024 matgen matrices with known ground
  // truth through the default two-stage + D&C path.  Clustered-at-eps and
  // graded (kappa = 1e12) spectra are the classic accuracy killers for
  // tridiagonalization + D&C; the Weyl-scaled eigenvalue oracle must hold.
  const idx n = 1024;
  testing::matgen::Spec spec;
  spec.cls = GetParam();
  spec.n = n;
  spec.kappa = 1e12;
  spec.seed = 1024;
  const auto g = testing::matgen::generate(spec);

  SyevOptions opts;
  opts.algo = method::two_stage;
  opts.solver = eig_solver::dc;
  auto res = syev(n, g.a.data(), g.a.ld(), opts);

  EXPECT_TRUE(testing::check_eigenvalues(g.eigs, res.eigenvalues, 200.0));
  EXPECT_TRUE(
      testing::check_eigen_pairs(g.a, res.eigenvalues, res.z, 200.0, 200.0));
}

INSTANTIATE_TEST_SUITE_P(
    LargeMatgen, PipelineLargeMatgen,
    ::testing::Values(testing::matgen::spectrum_class::clustered_eps,
                      testing::matgen::spectrum_class::graded),
    [](const auto& info) {
      return std::string(testing::matgen::class_name(info.param));
    });

SyevOptions with_method(method algo) {
  SyevOptions o;
  o.algo = algo;
  return o;
}

TEST(PipelineEdge, NegativeDefiniteMatrix) {
  const idx n = 32;
  Rng rng(23);
  auto eigs = lapack::make_spectrum(spectrum_kind::linear, n, 0, rng);
  for (double& v : eigs) v = -v;
  std::sort(eigs.begin(), eigs.end());
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    auto res = syev(n, a.data(), a.ld(), with_method(algo));
    for (idx i = 0; i < n; ++i)
      EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                  eigs[static_cast<size_t>(i)], 1e-11 * n * n);
  }
}

TEST(PipelineEdge, ZeroMatrix) {
  const idx n = 24;
  Matrix a(n, n);
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    auto res = syev(n, a.data(), a.ld(), with_method(algo));
    for (double w : res.eigenvalues) EXPECT_EQ(w, 0.0);
    EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
  }
}

TEST(PipelineEdge, RankOneMatrix) {
  // A = u u^T: one eigenvalue ||u||^2, the rest zero.
  const idx n = 30;
  Rng rng(29);
  std::vector<double> u(static_cast<size_t>(n));
  rng.fill_uniform(u.data(), n);
  Matrix a(n, n);
  double unorm2 = 0.0;
  for (idx i = 0; i < n; ++i) unorm2 += u[static_cast<size_t>(i)] * u[static_cast<size_t>(i)];
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i)
      a(i, j) = u[static_cast<size_t>(i)] * u[static_cast<size_t>(j)];

  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    auto res = syev(n, a.data(), a.ld(), with_method(algo));
    EXPECT_NEAR(res.eigenvalues.back(), unorm2, 1e-12 * n);
    for (idx i = 0; i + 1 < n; ++i)
      EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)], 0.0, 1e-12 * n);
  }
}

TEST(PipelineEdge, AlreadyTridiagonalDense) {
  // A dense-stored tridiagonal matrix: stage 1 mostly deflates (tiles are
  // already band), as do sytrd's reflectors; both pipelines must still work.
  const idx n = 40;
  Rng rng(31);
  Matrix a(n, n);
  for (idx i = 0; i < n; ++i) {
    a(i, i) = 2.0 * rng.uniform() - 1.0;
    if (i + 1 < n) {
      const double v = 2.0 * rng.uniform() - 1.0;
      a(i + 1, i) = v;
      a(i, i + 1) = v;
    }
  }
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    auto res = syev(n, a.data(), a.ld(), with_method(algo));
    EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
  }
}

TEST(PipelineEdge, IdentityPlusPerturbation) {
  const idx n = 36;
  Rng rng(37);
  Matrix a(n, n);
  for (idx i = 0; i < n; ++i) a(i, i) = 1.0;
  for (idx j = 0; j < n; ++j)
    for (idx i = j + 1; i < n; ++i) {
      const double v = 1e-10 * (2.0 * rng.uniform() - 1.0);
      a(i, j) += v;
      a(j, i) += v;
    }
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    auto res = syev(n, a.data(), a.ld(), with_method(algo));
    for (double w : res.eigenvalues) EXPECT_NEAR(w, 1.0, 1e-8);
    EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
  }
}

}  // namespace
}  // namespace tseig
