// Integration tests for the public syev driver: every combination of
// reduction method, tridiagonal solver, job and fraction.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/generators.hpp"
#include "matgen.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using solver::eig_solver;
using solver::jobz;
using solver::method;
using solver::method_name;
using solver::syev;
using solver::SyevOptions;

struct Config {
  method algo;
  eig_solver solver;
};

class SyevConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(SyevConfigs, FullEigenpairsSolveA) {
  const auto cfg = GetParam();
  const idx n = 72;
  Rng rng(91);
  Matrix a = testing::random_symmetric(n, rng);

  SyevOptions opts;
  opts.algo = cfg.algo;
  opts.solver = cfg.solver;
  opts.nb = 16;
  auto res = syev(n, a.data(), a.ld(), opts);

  ASSERT_EQ(res.eigenvalues.size(), static_cast<size_t>(n));
  ASSERT_EQ(res.z.cols(), n);
  // Inverse iteration (bisect) is looser inside clusters; the shared oracle
  // takes a wider orthogonality threshold there.
  const double otol = cfg.solver == eig_solver::bisect ? 1e4 : 50.0;
  EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z, 50.0, otol));
  EXPECT_GT(res.phases.reduction_flops, 0u);
  EXPECT_GT(res.phases.reduction_seconds, 0.0);
}

TEST_P(SyevConfigs, ValuesOnlyMatchesVectorRun) {
  const auto cfg = GetParam();
  const idx n = 48;
  Rng rng(17);
  Matrix a = testing::random_symmetric(n, rng);

  SyevOptions opts;
  opts.algo = cfg.algo;
  opts.solver = cfg.solver;
  opts.nb = 12;
  auto full = syev(n, a.data(), a.ld(), opts);
  opts.job = jobz::values_only;
  auto vals = syev(n, a.data(), a.ld(), opts);

  ASSERT_EQ(vals.eigenvalues.size(), static_cast<size_t>(n));
  EXPECT_EQ(vals.z.cols(), 0);
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(vals.eigenvalues[static_cast<size_t>(i)],
                full.eigenvalues[static_cast<size_t>(i)], 1e-10 * n);
}

TEST_P(SyevConfigs, TwentyPercentSubset) {
  const auto cfg = GetParam();
  const idx n = 60;
  Rng rng(23);
  Matrix a = testing::random_symmetric(n, rng);

  SyevOptions opts;
  opts.algo = cfg.algo;
  opts.solver = cfg.solver;
  opts.nb = 12;
  opts.fraction = 0.2;
  auto res = syev(n, a.data(), a.ld(), opts);

  const idx m = n / 5;
  ASSERT_EQ(res.z.cols(), m);
  // SyevResult invariant: every solver path returns exactly as many
  // eigenvalues as eigenvector columns (the qr/dc paths used to return all
  // n next to m columns).
  ASSERT_EQ(res.eigenvalues.size(), static_cast<size_t>(m));
  // The returned eigenvectors must correspond to the m smallest eigenvalues.
  const double otol = cfg.solver == eig_solver::bisect ? 1e4 : 50.0;
  EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z, 50.0, otol));

  // The m eigenvalues are the smallest of the full spectrum.
  SyevOptions full_opts = opts;
  full_opts.fraction = 1.0;
  auto full = syev(n, a.data(), a.ld(), full_opts);
  for (idx i = 0; i < m; ++i)
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                full.eigenvalues[static_cast<size_t>(i)], 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SyevConfigs,
    ::testing::Values(Config{method::one_stage, eig_solver::qr},
                      Config{method::one_stage, eig_solver::dc},
                      Config{method::one_stage, eig_solver::bisect},
                      Config{method::two_stage, eig_solver::qr},
                      Config{method::two_stage, eig_solver::dc},
                      Config{method::two_stage, eig_solver::bisect}));

TEST(Syev, OneAndTwoStageAgreeOnKnownSpectrum) {
  const idx n = 64;
  Rng rng(29);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  for (method algo : {method::one_stage, method::two_stage}) {
    SyevOptions opts;
    opts.algo = algo;
    opts.nb = 16;
    auto res = syev(n, a.data(), a.ld(), opts);
    for (idx i = 0; i < n; ++i)
      EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                  eigs[static_cast<size_t>(i)], 1e-9 * n);
  }
}

TEST(Syev, ParallelWorkersMatchSequential) {
  // Results are bitwise independent of the worker count on both methods,
  // with and without the stage-1 look-ahead pipeline.
  const idx n = 96;
  Rng rng(31);
  Matrix a = testing::random_symmetric(n, rng);

  for (const method algo : {method::one_stage, method::two_stage}) {
    for (const int lookahead : {0, 2}) {
      SCOPED_TRACE(::testing::Message() << "method " << method_name(algo)
                                        << ", lookahead " << lookahead);
      SyevOptions seq;
      seq.algo = algo;
      seq.nb = 16;
      seq.lookahead = lookahead;
      auto r1 = syev(n, a.data(), a.ld(), seq);
      SyevOptions par = seq;
      par.num_workers = 4;
      par.stage2_workers = 2;
      auto r2 = syev(n, a.data(), a.ld(), par);

      EXPECT_TRUE(testing::check_eigen_pairs(a, r2.eigenvalues, r2.z));
      for (idx i = 0; i < n; ++i)
        EXPECT_EQ(r1.eigenvalues[static_cast<size_t>(i)],
                  r2.eigenvalues[static_cast<size_t>(i)]);
      EXPECT_LE(testing::max_abs_diff(r1.z, r2.z), 0.0);
    }
  }
}

TEST(Syev, ValuesOnlySterfMeetsBisectionAndIsDeterministic) {
  // Values-only qr and dc solves run sterf on the reduced tridiagonal; the
  // bisect solver (stebz) reduces to the same tridiagonal, so it is the
  // oracle.  sterf is serial: its eigenvalues are bitwise the same for
  // every worker count and look-ahead depth.
  const idx n = 200;
  Rng rng(43);
  Matrix a = testing::random_symmetric(n, rng);
  for (const method algo : {method::one_stage, method::two_stage}) {
    SyevOptions base;
    base.algo = algo;
    base.job = jobz::values_only;
    base.nb = 16;
    SyevOptions bis = base;
    bis.solver = eig_solver::bisect;
    const auto ref = syev(n, a.data(), a.ld(), bis);
    for (const eig_solver sv : {eig_solver::qr, eig_solver::dc}) {
      SCOPED_TRACE(::testing::Message() << "method " << static_cast<int>(algo)
                                        << ", solver " << static_cast<int>(sv));
      SyevOptions o = base;
      o.solver = sv;
      const auto first = syev(n, a.data(), a.ld(), o);
      ASSERT_EQ(first.eigenvalues.size(), static_cast<size_t>(n));
      EXPECT_TRUE(testing::check_eigenvalues(ref.eigenvalues,
                                             first.eigenvalues, 4.0));
      EXPECT_GT(first.phases.solve_flops, 0u);
      for (const int workers : {1, 4}) {
        for (const int lookahead : {0, 2}) {
          o.num_workers = workers;
          o.lookahead = lookahead;
          const auto r = syev(n, a.data(), a.ld(), o);
          EXPECT_EQ(std::memcmp(r.eigenvalues.data(), first.eigenvalues.data(),
                                sizeof(double) * static_cast<size_t>(n)),
                    0)
              << "workers " << workers << ", lookahead " << lookahead;
        }
      }
    }
  }
}

TEST(Syev, ParallelDcFailureThrowsInsteadOfAborting) {
  // Regression: a divide-and-conquer leaf that fails on a pool worker used
  // to end the process (an exception escaping a fork_join body calls
  // std::terminate).  The failure must reach the caller instead.  The
  // message is not pinned: only that the call throws.
  const idx n = 256;
  Matrix a(n, n);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i)
      a(i, j) = 1.0 / static_cast<double>(1 + i + j);
  a(100, 3) = std::nan("");
  SyevOptions opts;
  opts.solver = eig_solver::dc;
  opts.dc_crossover = 8;
  opts.num_workers = 4;
  EXPECT_THROW(syev(n, a.data(), a.ld(), opts), std::exception);
}

TEST(Syev, PhaseBreakdownIsConsistent) {
  const idx n = 64;
  Rng rng(37);
  Matrix a = testing::random_symmetric(n, rng);
  SyevOptions opts;
  opts.algo = method::two_stage;  // n = 64 would resolve to one-stage
  opts.nb = 16;
  auto res = syev(n, a.data(), a.ld(), opts);
  EXPECT_NEAR(res.phases.reduction_seconds,
              res.phases.stage1_seconds + res.phases.stage2_seconds, 1e-12);
  EXPECT_GT(res.phases.solve_flops, 0u);
  EXPECT_GT(res.phases.update_flops, 0u);
  // Reduction flop count should be near (4/3) n^3 + stage-2's 6 n^2 nb.
  const double expect = 4.0 / 3.0 * std::pow(n, 3) + 6.0 * n * n * 16;
  EXPECT_LT(std::fabs(static_cast<double>(res.phases.reduction_flops) - expect),
            1.2 * expect);
}

TEST(Syev, RejectsBadArguments) {
  Matrix a(4, 4);
  SyevOptions opts;
  opts.fraction = 0.0;
  EXPECT_THROW(solver::syev(4, a.data(), a.ld(), opts), invalid_argument);
  opts.fraction = 1.5;
  EXPECT_THROW(solver::syev(4, a.data(), a.ld(), opts), invalid_argument);
  opts.fraction = 1.0;
  EXPECT_THROW(solver::syev(0, a.data(), a.ld(), opts), invalid_argument);
}

TEST(Syev, TinyMatrices) {
  Rng rng(41);
  for (idx n : {idx{1}, idx{2}, idx{3}, idx{5}}) {
    Matrix a = testing::random_symmetric(n, rng);
    for (method algo : {method::one_stage, method::two_stage}) {
      SyevOptions opts;
      opts.algo = algo;
      opts.nb = 4;
      // This is a *pipeline* regression test: keep the closed-form lane out
      // so n <= 3 still exercises the reduction path (the lane has its own
      // suite in test_syev_small).
      opts.small_n_closed_form = false;
      auto res = solver::syev(n, a.data(), a.ld(), opts);
      EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
    }
  }
}

TEST(Syev, TinyMatricesTwoStageAllConfigs) {
  // Regression for the nb clamp: min(nb, max(2, n-1)) let nb = 2 reach
  // sy2sb for n <= 2, a band wider than the matrix.  Every solver/jobz
  // combination must handle n = 1, 2, 3 through the two-stage path.
  Rng rng(43);
  for (idx n : {idx{1}, idx{2}, idx{3}}) {
    Matrix a = testing::random_symmetric(n, rng);

    // Reference spectrum from the one-stage QR path.  The whole test pins
    // the closed-form lane off: it exists to exercise the two-stage
    // reduction at n <= 3, which the lane would otherwise bypass.
    SyevOptions ref_opts;
    ref_opts.small_n_closed_form = false;
    ref_opts.algo = method::one_stage;
    ref_opts.solver = eig_solver::qr;
    ref_opts.nb = 2;
    auto ref = solver::syev(n, a.data(), a.ld(), ref_opts);

    for (eig_solver sol :
         {eig_solver::qr, eig_solver::dc, eig_solver::bisect}) {
      for (jobz job : {jobz::vectors, jobz::values_only}) {
        SyevOptions opts;
        opts.small_n_closed_form = false;
        opts.algo = method::two_stage;
        opts.solver = sol;
        opts.job = job;
        opts.nb = 8;  // deliberately larger than n
        auto res = solver::syev(n, a.data(), a.ld(), opts);
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " solver=" + std::to_string(static_cast<int>(sol)) +
                     " job=" + std::to_string(static_cast<int>(job)));
        ASSERT_EQ(res.eigenvalues.size(), static_cast<size_t>(n));
        for (idx i = 0; i < n; ++i)
          EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                      ref.eigenvalues[static_cast<size_t>(i)], 1e-13 * (n + 1));
        if (job == jobz::vectors) {
          ASSERT_EQ(res.z.cols(), n);
          EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z));
        } else {
          EXPECT_EQ(res.z.cols(), 0);
        }
      }
    }
  }
}


TEST(Syev, MatgenTortureCatalogBothMethods) {
  // Adversarial spectra with known ground truth (tests/support/matgen):
  // clustered at ulp spacing, graded to condition 1e15, Wilkinson ladders,
  // sign flips, exact zeros, each at scales 1e-120 / 1 / 1e120.  Both
  // reduction methods, with the default solver and with bisection + inverse
  // iteration, must pass the residual/orthogonality oracles AND reproduce
  // the prescribed eigenvalues to the Weyl-scaled bound.
  const idx n = 48;
  for (const auto& spec : testing::matgen::torture_cases(n, 2026)) {
    const auto g = testing::matgen::generate(spec);
    for (method algo : {method::one_stage, method::two_stage}) {
      for (eig_solver sol : {eig_solver::dc, eig_solver::bisect}) {
        SCOPED_TRACE(::testing::Message()
                     << testing::matgen::class_name(spec.cls) << " scale "
                     << spec.scale
                     << (algo == method::one_stage ? " one" : " two")
                     << "-stage"
                     << (sol == eig_solver::bisect ? " bisect" : " dc"));
        SyevOptions opts;
        opts.algo = algo;
        opts.solver = sol;
        opts.nb = 16;
        auto res = syev(n, g.a.data(), g.a.ld(), opts);
        const double otol = sol == eig_solver::bisect ? 1e4 : 50.0;
        EXPECT_TRUE(testing::check_eigen_pairs(g.a, res.eigenvalues, res.z,
                                               50.0, otol));
        EXPECT_TRUE(testing::check_eigenvalues(g.eigs, res.eigenvalues));
      }
    }
  }
}

TEST(Syev, ResolveOptionsPicksEachSideOfTheThreshold) {
  const idx t = solver::kOneStageMaxN;
  SyevOptions o;
  ASSERT_EQ(o.algo, method::automatic);
  EXPECT_EQ(solver::resolve_options(1, o).algo, method::one_stage);
  EXPECT_EQ(solver::resolve_options(t, o).algo, method::one_stage);
  EXPECT_EQ(solver::resolve_options(t + 1, o).algo, method::two_stage);
  EXPECT_EQ(solver::resolve_options(4 * t, o).algo, method::two_stage);
  // The method reads n alone: every worker count resolves the same way.
  for (const int workers : {-1, 0, 1, 4}) {
    o.num_workers = workers;
    EXPECT_EQ(solver::resolve_options(t, o).algo, method::one_stage);
    EXPECT_EQ(solver::resolve_options(t + 1, o).algo, method::two_stage);
    EXPECT_GE(solver::resolve_options(t, o).num_workers, 1);
  }
  // An explicit method is kept on both sides.
  for (const method m : {method::one_stage, method::two_stage}) {
    o.algo = m;
    EXPECT_EQ(solver::resolve_options(t, o).algo, m);
    EXPECT_EQ(solver::resolve_options(t + 1, o).algo, m);
  }
  // nb: 0 picks the automatic width, then the clamps (n for one-stage, the
  // n - 1 band for two-stage); stage2_workers never exceeds the workers.
  o.algo = method::automatic;
  o.nb = 0;
  o.num_workers = 2;
  o.stage2_workers = 8;
  const SyevOptions r = solver::resolve_options(1000, o);
  EXPECT_GE(r.nb, 32);
  EXPECT_LE(r.nb, 96);
  EXPECT_EQ(r.num_workers, 2);
  EXPECT_EQ(r.stage2_workers, 2);
  o.nb = 48;
  EXPECT_EQ(solver::resolve_options(20, o).nb, 20);
  o.algo = method::two_stage;
  EXPECT_EQ(solver::resolve_options(20, o).nb, 19);
  EXPECT_EQ(solver::resolve_options(1, o).nb, 1);
}

/// Bitwise equality of two solves (eigenvalues and eigenvectors).
::testing::AssertionResult same_result(const solver::SyevResult& x,
                                       const solver::SyevResult& y) {
  if (x.eigenvalues.size() != y.eigenvalues.size() ||
      std::memcmp(x.eigenvalues.data(), y.eigenvalues.data(),
                  sizeof(double) * x.eigenvalues.size()) != 0)
    return ::testing::AssertionFailure() << "eigenvalues differ";
  if (x.z.rows() != y.z.rows() || x.z.cols() != y.z.cols() ||
      (x.z.cols() > 0 && !testing::same_bits(x.z, y.z)))
    return ::testing::AssertionFailure() << "eigenvectors differ";
  return ::testing::AssertionSuccess();
}

TEST(Syev, AutomaticIsBitwiseTheMethodItResolvesTo) {
  const idx t = solver::kOneStageMaxN;
  Rng rng(53);
  for (const idx n : {idx{40}, t, t + 1}) {
    const Matrix a = testing::random_symmetric(n, rng);
    for (const jobz job : {jobz::values_only, jobz::vectors}) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << ", job " << static_cast<int>(job));
      SyevOptions o;
      o.job = job;
      const auto got = syev(n, a.data(), a.ld(), o);
      o.algo = n <= t ? method::one_stage : method::two_stage;
      EXPECT_TRUE(same_result(got, syev(n, a.data(), a.ld(), o)));
    }
  }
}

TEST(Syev, AutomaticIsBitwiseAcrossWorkersAndLookahead) {
  // Both sides of the threshold, so both reductions: the resolved method
  // and its bits never depend on the worker count or look-ahead depth.
  const idx t = solver::kOneStageMaxN;
  Rng rng(59);
  for (const idx n : {t, t + 1}) {
    const Matrix a = testing::random_symmetric(n, rng);
    SyevOptions o;
    const auto ref = syev(n, a.data(), a.ld(), o);
    EXPECT_TRUE(testing::check_eigen_pairs(a, ref.eigenvalues, ref.z)) << n;
    for (const int workers : {1, 4}) {
      for (const int lookahead : {0, 2}) {
        SCOPED_TRACE(::testing::Message() << "n " << n << ", workers "
                                          << workers << ", lookahead "
                                          << lookahead);
        o.num_workers = workers;
        o.lookahead = lookahead;
        EXPECT_TRUE(same_result(ref, syev(n, a.data(), a.ld(), o)));
      }
    }
  }
}

TEST(Syev, AutoNbSelectsValidTiling) {
  // nb == 0 picks a size-dependent tile width; results must stay correct.
  Rng rng(47);
  for (idx n : {idx{40}, idx{200}, idx{700}}) {
    Matrix a = testing::random_symmetric(n, rng);
    for (const method algo : {method::one_stage, method::two_stage}) {
      SyevOptions opts;
      opts.algo = algo;
      opts.nb = 0;
      auto res = solver::syev(n, a.data(), a.ld(), opts);
      EXPECT_TRUE(testing::check_eigen_pairs(a, res.eigenvalues, res.z))
          << n << " " << method_name(algo);
    }
  }
}

// ---- Hostile input: every method x solver has a defined outcome -----------

/// The probe matrix a_ij = scale / (1 + i + j), lower triangle filled.
Matrix hilbert_like(idx n, double scale) {
  Matrix a(n, n);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i)
      a(i, j) = scale / static_cast<double>(1 + i + j);
  return a;
}

/// The six method x solver pairs, one worker, all vectors.
std::vector<SyevOptions> every_method_and_solver() {
  std::vector<SyevOptions> out;
  for (const method m : {method::one_stage, method::two_stage})
    for (const eig_solver sv : {eig_solver::qr, eig_solver::dc,
                                eig_solver::bisect}) {
      SyevOptions o;
      o.algo = m;
      o.solver = sv;
      o.num_workers = 1;
      out.push_back(o);
    }
  return out;
}

TEST(Syev, NonFiniteInputThrowsOnEveryMethodAndSolver) {
  // Unscreened, qr/dc report a misleading non-convergence and bisect
  // returns 64 finite, wrong eigenvalues.
  const idx n = 64;
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix a = hilbert_like(n, 1.0);
    a(5, 3) = bad;
    for (const SyevOptions& o : every_method_and_solver()) {
      SCOPED_TRACE(::testing::Message()
                   << "entry " << bad << ", method " << static_cast<int>(o.algo)
                   << ", solver " << static_cast<int>(o.solver));
      EXPECT_THROW(syev(n, a.data(), a.ld(), o), invalid_argument);
    }
  }
  // Only the referenced (lower) triangle is screened.
  Matrix a = hilbert_like(n, 1.0);
  a(3, 5) = std::nan("");
  EXPECT_NO_THROW(syev(n, a.data(), a.ld(), SyevOptions{}));
}

TEST(Syev, ExtremeScalesMeetTheScaledOracles) {
  // Matrices scaled toward overflow and underflow, the 1e-310 probe among
  // them (its entries are subnormal): each pair's eigenpairs, mapped back by
  // the exact power of two `up`, must solve A0 = a * up -- a well-scaled
  // matrix -- within the scaled residual, orthogonality and eigenvalue
  // bounds.  Unscaled, qr and dc fail to converge at 1e-310.
  const idx n = 64;
  struct Case {
    double scale;
    double up;  // exact power of two with a * up in the normal range
  };
  for (const Case c : {Case{0x1p1000, 0x1p-1000}, Case{0x1p-1000, 0x1p1000},
                       Case{1e-310, 0x1p1022}}) {
    SCOPED_TRACE(::testing::Message() << "scale " << c.scale);
    const Matrix a = hilbert_like(n, c.scale);
    Matrix a0 = a;
    for (idx j = 0; j < n; ++j)
      for (idx i = 0; i < n; ++i) a0(i, j) *= c.up;
    const auto ref = syev(n, a0.data(), a0.ld(), SyevOptions{});
    for (const SyevOptions& o : every_method_and_solver()) {
      SCOPED_TRACE(::testing::Message()
                   << "method " << static_cast<int>(o.algo) << ", solver "
                   << static_cast<int>(o.solver));
      const auto res = syev(n, a.data(), a.ld(), o);
      std::vector<double> w = res.eigenvalues;
      for (double& x : w) x *= c.up;
      EXPECT_TRUE(testing::check_eigenvalues(ref.eigenvalues, w));
      EXPECT_TRUE(testing::check_eigen_pairs(a0, w, res.z));
    }
  }
}

}  // namespace
}  // namespace tseig
