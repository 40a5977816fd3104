// Closed-form tiny-n fast lane (solver::small + the syev/syev_batch
// routing): kernel-level stability at the edges of the double range,
// bitwise determinism, the near-degenerate fallback, exhaustive
// lane-vs-pipeline agreement over the matgen torture catalog, jobz/range
// edge cases, NaN/Inf rejection and the mixed-size batch routing contract.
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "matgen.hpp"
#include "solver/syev_batch.hpp"
#include "solver/syev_small.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

namespace small = solver::small;
using solver::BatchProblem;
using solver::SyevOptions;
using solver::SyevResult;
using testing::matgen::Generated;
using testing::matgen::Spec;
using testing::matgen::spectrum_class;

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Tests of lane *routing* behavior can't run when TSEIG_SMALL_N=0 vetoes
// the lane process-wide (the documented lane-vs-pipeline debugging oracle);
// they skip instead of failing so the veto stays usable on this binary.
// Kernel-level tests (eigen_small directly) are unaffected by the veto.
#define TSEIG_REQUIRE_LANE()                                           \
  if (!small::env_enabled())                                           \
  GTEST_SKIP() << "TSEIG_SMALL_N=0 vetoes the closed-form lane"

SyevOptions lane_on() { return {}; }

SyevOptions lane_off(solver::method algo = solver::method::automatic) {
  SyevOptions o;
  o.algo = algo;
  o.small_n_closed_form = false;
  return o;
}

/// The pipeline under both reductions (n <= 3 alone resolves to one-stage).
const SyevOptions kPipelines[] = {lane_off(solver::method::one_stage),
                                  lane_off(solver::method::two_stage)};

Matrix to_matrix(idx n, const double* v, idx ldv, idx m) {
  Matrix z(n, m);
  for (idx j = 0; j < m; ++j)
    for (idx i = 0; i < n; ++i) z(i, j) = v[i + j * ldv];
  return z;
}

// ---------------------------------------------------------------------------
// Kernel level: small::eigen_small.

TEST(SyevSmallKernel, TwoByTwoAtExtremeScales) {
  // [[2, 1], [1, 2]] * s has eigenvalues {s, 3s}; the power-of-two
  // pre-scaling must keep the kernel exact-to-rounding even where the
  // quadratic forms would overflow (s ~ 1e300) or flush (s ~ 1e-300).
  for (double s : {1e-300, 1e-150, 1.0, 1e150, 1e300}) {
    SCOPED_TRACE(s);
    const double a[4] = {2.0 * s, 1.0 * s, 0.0, 2.0 * s};
    double w[2], v[4];
    EXPECT_TRUE(small::eigen_small(2, a, 2, w, v, 2));
    EXPECT_NEAR(w[0], s, 8.0 * kEps * s);
    EXPECT_NEAR(w[1], 3.0 * s, 8.0 * kEps * 3.0 * s);
    // Unit eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::fabs(v[0] * v[3] - v[1] * v[2]), 1.0, 8.0 * kEps);
  }
}

TEST(SyevSmallKernel, TwoByTwoSmallEigenvalueNoCancellation) {
  // Nearly singular: eigenvalues {~delta^2/2, ~2}.  The classic
  // mean -/+ hypot formula loses the small one entirely; the Borges rotated
  // quadratic form keeps it to high relative accuracy.
  const double delta = 1e-8;
  const double a[4] = {1.0, 1.0 - delta, 0.0, 1.0};
  double w[2], v[4];
  EXPECT_TRUE(small::eigen_small(2, a, 2, w, v, 2));
  EXPECT_NEAR(w[0], delta, 1e-12 * delta + 4.0 * kEps);
  EXPECT_NEAR(w[1], 2.0 - delta, 8.0 * kEps);
}

TEST(SyevSmallKernel, ThreeByThreeKnownSpectrumAtExtremeScales) {
  // Tridiagonal [[2,1,0],[1,2,1],[0,1,2]] * s: eigenvalues
  // s * (2 - sqrt(2), 2, 2 + sqrt(2)).
  const double r2 = std::sqrt(2.0);
  for (double s : {1e-300, 1.0, 1e150, 1e300}) {
    SCOPED_TRACE(s);
    const double a[9] = {2.0 * s, s, 0.0, 0.0, 2.0 * s, s, 0.0, 0.0, 2.0 * s};
    double w[3], v[9];
    small::eigen_small(3, a, 3, w, v, 3);
    EXPECT_NEAR(w[0], (2.0 - r2) * s, 64.0 * kEps * 4.0 * s);
    EXPECT_NEAR(w[1], 2.0 * s, 64.0 * kEps * 4.0 * s);
    EXPECT_NEAR(w[2], (2.0 + r2) * s, 64.0 * kEps * 4.0 * s);
  }
}

TEST(SyevSmallKernel, BitwiseDeterministicAcrossRepeatedCalls) {
  for (idx n : {1, 2, 3}) {
    for (const Spec& s : testing::matgen::torture_cases(n, 17)) {
      const Generated g = testing::matgen::generate(s);
      double w1[3], v1[9], w2[3], v2[9];
      const bool c1 = small::eigen_small(n, g.a.data(), g.a.ld(), w1, v1, n);
      const bool c2 = small::eigen_small(n, g.a.data(), g.a.ld(), w2, v2, n);
      EXPECT_EQ(c1, c2);
      EXPECT_EQ(std::memcmp(w1, w2, static_cast<size_t>(n) * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(v1, v2,
                            static_cast<size_t>(n * n) * sizeof(double)),
                0);
    }
  }
}

TEST(SyevSmallKernel, ExactDiagonalSortsWithPermutationVectors) {
  const double a[9] = {3.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 2.0};
  double w[3], v[9];
  EXPECT_TRUE(small::eigen_small(3, a, 3, w, v, 3));
  EXPECT_EQ(w[0], -1.0);
  EXPECT_EQ(w[1], 2.0);
  EXPECT_EQ(w[2], 3.0);
  const double expect[9] = {0, 1, 0, 0, 0, 1, 1, 0, 0};  // columns e1<-e2 etc
  for (int i = 0; i < 9; ++i) EXPECT_EQ(v[i], expect[i]);
}

TEST(SyevSmallKernel, NearDegenerateTripleEngagesFallbackAndStaysAccurate) {
  // All three eigenvalues within a few ulps of 1: cross products of
  // A - lambda I cancel to garbage directions, the quality gate must catch
  // it and the QL fallback must deliver oracle-grade results anyway.
  Spec s;
  s.cls = spectrum_class::clustered_eps;
  s.n = 3;
  s.seed = 3;
  Generated g = testing::matgen::generate(s);
  // Collapse the three anchors to one: A = Q diag(1, 1+2eps, 1+4eps) Q^T.
  for (idx i = 0; i < 3; ++i) {
    for (idx j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (idx k = 0; k < 3; ++k)
        acc += g.q(k, i) * (1.0 + 2.0 * kEps * static_cast<double>(k)) *
               g.q(k, j);
      g.a(i, j) = acc;
    }
  }
  double w[3], v[9];
  const bool closed = small::eigen_small(3, g.a.data(), g.a.ld(), w, v, 3);
  EXPECT_FALSE(closed);  // the gate must engage the fallback here
  const std::vector<double> wv(w, w + 3);
  EXPECT_TRUE(testing::check_eigen_pairs(g.a, wv, to_matrix(3, v, 3, 3)));
  for (double x : wv) EXPECT_NEAR(x, 1.0, 64.0 * kEps);
}

TEST(SyevSmallKernel, TortureSweepPassesOraclesOnEveryPath) {
  // Every class x scale x n: whichever path the kernel picks (closed form
  // or fallback), eigenvalues must match the prescribed spectrum and the
  // vectors must pass the residual/orthogonality oracles.
  for (idx n : {1, 2, 3}) {
    for (const Spec& s : testing::matgen::torture_cases(n, 41)) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << " " << testing::matgen::class_name(s.cls)
                   << " scale " << s.scale);
      const Generated g = testing::matgen::generate(s);
      double w[3], v[9];
      small::eigen_small(n, g.a.data(), g.a.ld(), w, v, n);
      const std::vector<double> wv(w, w + n);
      EXPECT_TRUE(testing::check_eigenvalues(g.eigs, wv));
      EXPECT_TRUE(testing::check_eigen_pairs(g.a, wv, to_matrix(n, v, n, n)));
    }
  }
}

// ---------------------------------------------------------------------------
// Lane routing through solver::syev.

TEST(SyevSmallLane, AgreesWithFullPipelineOverTortureCatalog) {
  TSEIG_REQUIRE_LANE();
  for (idx n : {1, 2, 3}) {
    for (const Spec& s : testing::matgen::torture_cases(n, 29)) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << " " << testing::matgen::class_name(s.cls)
                   << " scale " << s.scale);
      const Generated g = testing::matgen::generate(s);
      const SyevResult lane = solver::syev(n, g.a.data(), g.a.ld(), lane_on());
      EXPECT_TRUE(testing::check_eigenvalues(g.eigs, lane.eigenvalues));
      EXPECT_TRUE(testing::check_eigen_pairs(g.a, lane.eigenvalues, lane.z));
      for (const SyevOptions& o : kPipelines) {
        SCOPED_TRACE(solver::method_name(o.algo));
        const SyevResult pipe = solver::syev(n, g.a.data(), g.a.ld(), o);
        // Both paths pass the ground-truth and residual oracles...
        EXPECT_TRUE(testing::check_eigenvalues(g.eigs, pipe.eigenvalues));
        EXPECT_TRUE(
            testing::check_eigen_pairs(g.a, pipe.eigenvalues, pipe.z));
        // ...and agree with each other within the same Weyl-scaled bound.
        EXPECT_TRUE(testing::check_eigenvalues(pipe.eigenvalues,
                                               lane.eigenvalues));
      }
      // The lane's whole cost lands in the solve phase of the breakdown.
      EXPECT_EQ(lane.phases.reduction_flops, 0u);
      EXPECT_GT(lane.phases.solve_flops, 0u);
    }
  }
}

TEST(SyevSmallLane, ValuesOnlyReturnsFullSpectrum) {
  Spec s;
  s.cls = spectrum_class::random_uniform;
  s.n = 3;
  s.seed = 7;
  const Generated g = testing::matgen::generate(s);
  SyevOptions o = lane_on();
  o.job = solver::jobz::values_only;
  const SyevResult r = solver::syev(3, g.a.data(), g.a.ld(), o);
  EXPECT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_EQ(r.z.cols(), 0);
  EXPECT_TRUE(testing::check_eigenvalues(g.eigs, r.eigenvalues));
}

TEST(SyevSmallLane, FractionTruncationInvariant) {
  // m < n via the fraction option: the lane must return exactly the m
  // smallest eigenvalues with matching z columns (the SyevResult invariant),
  // identical in content to the leading columns of the full solve.
  Spec s;
  s.cls = spectrum_class::sign_flip;
  s.n = 3;
  s.kappa = 1e6;
  s.seed = 11;
  const Generated g = testing::matgen::generate(s);
  const SyevResult full = solver::syev(3, g.a.data(), g.a.ld(), lane_on());
  for (double f : {0.34, 0.67, 1.0}) {
    SCOPED_TRACE(f);
    SyevOptions o = lane_on();
    o.fraction = f;
    const idx m = static_cast<idx>(std::llround(f * 3.0));
    const SyevResult r = solver::syev(3, g.a.data(), g.a.ld(), o);
    ASSERT_EQ(r.eigenvalues.size(), static_cast<size_t>(m));
    ASSERT_EQ(r.z.cols(), m);
    ASSERT_EQ(r.z.rows(), 3);
    for (idx j = 0; j < m; ++j) {
      EXPECT_EQ(r.eigenvalues[static_cast<size_t>(j)],
                full.eigenvalues[static_cast<size_t>(j)]);
      for (idx i = 0; i < 3; ++i) EXPECT_EQ(r.z(i, j), full.z(i, j));
    }
  }
}

TEST(SyevSmallLane, RangeByIndexAndByValue) {
  TSEIG_REQUIRE_LANE();
  const double a[9] = {1.0, 0.5, 0.25, 0.0, 2.0, 0.5, 0.0, 0.0, 4.0};
  const SyevResult full = solver::syev(3, a, 3, lane_on());
  ASSERT_EQ(full.eigenvalues.size(), 3u);

  SyevOptions oi = lane_on();
  oi.sel = solver::range::by_index;
  oi.il = 1;
  oi.iu = 2;
  const SyevResult ri = solver::syev(3, a, 3, oi);
  ASSERT_EQ(ri.eigenvalues.size(), 2u);
  ASSERT_EQ(ri.z.cols(), 2);
  for (idx j = 0; j < 2; ++j) {
    EXPECT_EQ(ri.eigenvalues[static_cast<size_t>(j)],
              full.eigenvalues[static_cast<size_t>(j + 1)]);
    for (idx i = 0; i < 3; ++i) EXPECT_EQ(ri.z(i, j), full.z(i, j + 1));
  }

  SyevOptions ov = lane_on();
  ov.sel = solver::range::by_value;
  ov.vl = full.eigenvalues[0];  // (vl, vu] is half-open: excludes w[0]
  ov.vu = full.eigenvalues[1];
  const SyevResult rv = solver::syev(3, a, 3, ov);
  ASSERT_EQ(rv.eigenvalues.size(), 1u);
  EXPECT_EQ(rv.eigenvalues[0], full.eigenvalues[1]);
  ASSERT_EQ(rv.z.cols(), 1);

  // An empty window must come back empty on both lane and pipeline.
  ov.vl = full.eigenvalues[2] + 1.0;
  ov.vu = full.eigenvalues[2] + 2.0;
  const SyevResult re = solver::syev(3, a, 3, ov);
  EXPECT_TRUE(re.eigenvalues.empty());
  EXPECT_EQ(re.z.cols(), 0);
  SyevOptions ove = ov;
  ove.small_n_closed_form = false;
  const SyevResult pe = solver::syev(3, a, 3, ove);
  EXPECT_TRUE(pe.eigenvalues.empty());
  EXPECT_EQ(pe.z.cols(), 0);
}

TEST(SyevSmallLane, RejectsNanAndInfInput) {
  TSEIG_REQUIRE_LANE();
  double a[9] = {1.0, 0.5, 0.25, 0.0, 2.0, 0.5, 0.0, 0.0, 4.0};
  a[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver::syev(3, a, 3, lane_on()), std::invalid_argument);
  a[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver::syev(3, a, 3, lane_on()), std::invalid_argument);
  a[1] = 0.5;
  EXPECT_NO_THROW(solver::syev(3, a, 3, lane_on()));
}

TEST(SyevSmallLane, ReadsOnlyTheLowerTriangle) {
  // Poisoning the strictly-upper triangle with NaN must change nothing, on
  // the lane *and* on the full pipeline (the shared uplo contract).
  Spec s;
  s.cls = spectrum_class::graded;
  s.n = 3;
  s.kappa = 1e9;
  s.seed = 13;
  const Generated g = testing::matgen::generate(s);
  Matrix poisoned = g.a;
  for (idx j = 1; j < 3; ++j)
    for (idx i = 0; i < j; ++i)
      poisoned(i, j) = std::numeric_limits<double>::quiet_NaN();
  for (const SyevOptions& o : {lane_on(), kPipelines[0], kPipelines[1]}) {
    const SyevResult clean = solver::syev(3, g.a.data(), g.a.ld(), o);
    const SyevResult dirty =
        solver::syev(3, poisoned.data(), poisoned.ld(), o);
    ASSERT_EQ(clean.eigenvalues.size(), dirty.eigenvalues.size());
    for (size_t i = 0; i < clean.eigenvalues.size(); ++i)
      EXPECT_EQ(clean.eigenvalues[i], dirty.eigenvalues[i]);
    EXPECT_EQ(testing::max_abs_diff(clean.z, dirty.z), 0.0);
  }
}

TEST(SyevSmallLane, FlopAccountingMatchesNominalConstants) {
  TSEIG_REQUIRE_LANE();
  const double a1[1] = {4.0};
  const double a2[4] = {2.0, 1.0, 0.0, 2.0};
  const double a3[9] = {2.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 2.0};
  struct Case {
    idx n;
    const double* a;
    std::uint64_t flops;
  } cases[] = {{1, a1, static_cast<std::uint64_t>(small::kFlops1)},
               {2, a2, static_cast<std::uint64_t>(small::kFlops2)},
               {3, a3, static_cast<std::uint64_t>(small::kFlops3)}};
  for (const Case& c : cases) {
    const SyevResult r = solver::syev(c.n, c.a, c.n, lane_on());
    EXPECT_EQ(r.phases.solve_flops, c.flops);
    EXPECT_EQ(r.phases.reduction_flops, 0u);
    EXPECT_EQ(r.phases.update_flops, 0u);
  }
}

TEST(SyevSmallLane, OptionAndEnvironmentGate) {
  TSEIG_REQUIRE_LANE();
  // The process has no TSEIG_SMALL_N override in the test environment, so
  // the env gate must report enabled and the option flag alone must decide.
  EXPECT_TRUE(small::env_enabled());
  SyevOptions on = lane_on(), off = lane_off();
  EXPECT_TRUE(small::lane_eligible(3, on));
  EXPECT_FALSE(small::lane_eligible(3, off));
  EXPECT_FALSE(small::lane_eligible(4, on));  // beyond kMaxN
}

// ---------------------------------------------------------------------------
// Batch routing.

TEST(SyevSmallBatch, MixedSizeBatchRoutesAndMatchesSequential) {
  TSEIG_REQUIRE_LANE();
  Rng rng(2026);
  std::vector<Matrix> store;
  std::vector<BatchProblem> problems;
  // 40 tiny lane-eligible problems, 2 medium whole-problem ones and one
  // above the crossover (full-budget path) in one batch.
  for (int rep = 0; rep < 40; ++rep)
    store.push_back(testing::random_symmetric(1 + rep % 3, rng));
  store.push_back(testing::random_symmetric(64, rng));
  store.push_back(testing::random_symmetric(48, rng));
  store.push_back(testing::random_symmetric(300, rng));
  // The n = 64 member runs the default (one-stage at this size), the other
  // pipeline members two-stage; the method never affects the lane.
  SyevOptions two_stage = lane_on();
  two_stage.algo = solver::method::two_stage;
  for (const Matrix& m : store)
    problems.push_back(
        {m.rows(), m.data(), m.ld(), m.rows() == 64 ? lane_on() : two_stage});

  solver::SyevBatchOptions bopts;
  bopts.num_workers = 4;
  const auto batch = solver::syev_batch(problems, bopts);
  EXPECT_EQ(batch.stats.tiny_lane_count, 40);
  EXPECT_EQ(batch.stats.whole_problem_count, 42);
  EXPECT_EQ(batch.stats.partitioned_count, 1);
  ASSERT_EQ(batch.results.size(), problems.size());
  ASSERT_EQ(batch.stats.problems.size(), problems.size());

  for (size_t i = 0; i < problems.size(); ++i) {
    SCOPED_TRACE(i);
    const BatchProblem& p = problems[i];
    // Bitwise identical to the sequential per-problem solve.
    const SyevResult seq = solver::syev(p.n, p.a, p.lda, p.opts);
    const SyevResult& got = batch.results[i];
    ASSERT_EQ(got.eigenvalues.size(), seq.eigenvalues.size());
    for (size_t k = 0; k < seq.eigenvalues.size(); ++k)
      EXPECT_EQ(got.eigenvalues[k], seq.eigenvalues[k]);
    EXPECT_EQ(testing::max_abs_diff(got.z, seq.z), 0.0);
    // Per-problem stats stay intact under chunked scheduling.
    const auto& st = batch.stats.problems[i];
    EXPECT_EQ(st.n, p.n);
    EXPECT_EQ(st.whole_problem, p.n <= batch.stats.crossover);
    EXPECT_GE(st.start_seconds, st.enqueue_seconds);
    EXPECT_GE(st.end_seconds, st.start_seconds);
    EXPECT_GT(got.phases.solve_flops, 0u);
  }
}

TEST(SyevSmallBatch, LaneOptOutRestoresOldScheduling) {
  Rng rng(99);
  std::vector<Matrix> store;
  std::vector<BatchProblem> problems;
  for (int rep = 0; rep < 8; ++rep)
    store.push_back(testing::random_symmetric(2 + rep % 2, rng));
  for (const Matrix& m : store)
    problems.push_back({m.rows(), m.data(), m.ld(), lane_off()});
  const auto batch = solver::syev_batch(problems, {});
  EXPECT_EQ(batch.stats.tiny_lane_count, 0);
  EXPECT_EQ(batch.stats.whole_problem_count, 8);
  for (size_t i = 0; i < problems.size(); ++i) {
    const Matrix full = testing::sym_full(uplo::lower, problems[i].n,
                                          problems[i].a, problems[i].lda);
    EXPECT_TRUE(testing::check_eigen_pairs(
        full, batch.results[i].eigenvalues, batch.results[i].z));
  }
}

}  // namespace
}  // namespace tseig
