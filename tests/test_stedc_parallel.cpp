// Parallel-vs-serial equivalence of the divide-and-conquer tridiagonal
// eigensolver: the merge tree executed on the worker pool must reproduce the
// serial results (same secular iterations per root, same deflation
// decisions) across worker counts and on pathological spectra, with the
// StedcStats each call returns independent of the worker count.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "test_support.hpp"
#include "tridiag/stedc.hpp"

namespace tseig {
namespace {


constexpr double kEps = std::numeric_limits<double>::epsilon();

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

double tridiag_norm1(idx n, const std::vector<double>& d,
                     const std::vector<double>& e) {
  double nrm = 0.0;
  for (idx i = 0; i < n; ++i) {
    double col = std::fabs(d[static_cast<size_t>(i)]);
    if (i > 0) col += std::fabs(e[static_cast<size_t>(i - 1)]);
    if (i + 1 < n) col += std::fabs(e[static_cast<size_t>(i)]);
    nrm = std::max(nrm, col);
  }
  return nrm;
}

struct Solved {
  std::vector<double> d;
  Matrix z;
  tridiag::StedcStats stats;
};

Solved run_stedc(idx n, const std::vector<double>& d0,
                 const std::vector<double>& e0, int workers,
                 idx crossover = 16) {
  Solved out;
  out.d = d0;
  std::vector<double> e = e0;
  e.resize(static_cast<size_t>(n), 0.0);
  out.z.reshape(n, n);
  tridiag::StedcOptions opts;
  opts.crossover = crossover;
  opts.num_workers = workers;
  out.stats =
      tridiag::stedc(n, out.d.data(), e.data(), out.z.data(), out.z.ld(), opts);
  return out;
}

/// Runs serial and parallel solves and checks the satellite's contract:
/// eigenvalues match to 8 n eps ||T||, Z stays orthogonal, and the residual
/// ||T Z - Z Lambda|| is small, for every worker count.
void check_parallel_equivalence(idx n, const std::vector<double>& d0,
                                const std::vector<double>& e0,
                                idx crossover = 16) {
  const Matrix t = tridiag_dense(n, d0, e0);
  const double tnorm = std::max(tridiag_norm1(n, d0, e0), 1.0);
  const double wtol = 8.0 * static_cast<double>(n) * kEps * tnorm;

  const Solved serial = run_stedc(n, d0, e0, 1, crossover);
  EXPECT_TRUE(std::is_sorted(serial.d.begin(), serial.d.end()));

  for (int workers : {2, 8}) {
    const Solved par = run_stedc(n, d0, e0, workers, crossover);
    SCOPED_TRACE("workers = " + std::to_string(workers));
    ASSERT_EQ(par.d.size(), serial.d.size());
    for (idx i = 0; i < n; ++i)
      EXPECT_NEAR(par.d[static_cast<size_t>(i)],
                  serial.d[static_cast<size_t>(i)], wtol)
          << i;
    EXPECT_TRUE(testing::check_eigen_pairs(t, par.d, par.z, 200.0, 200.0));

    // The schedule must not change what the algorithm computes: same merge
    // tree, same deflation decisions, same secular solves.
    EXPECT_EQ(par.stats.merges, serial.stats.merges);
    EXPECT_EQ(par.stats.total_size, serial.stats.total_size);
    EXPECT_EQ(par.stats.deflated, serial.stats.deflated);
    EXPECT_EQ(par.stats.secular_solves, serial.stats.secular_solves);
  }
}

TEST(StedcParallel, RandomSpectrum) {
  const idx n = 257;  // odd size: unbalanced splits at every level
  Rng rng(101);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  check_parallel_equivalence(n, d, e);
}

TEST(StedcParallel, ClusteredEigenvaluesGluedWilkinson) {
  // Glued Wilkinson blocks: tightly clustered eigenvalues, heavy deflation
  // inside every merge.
  const idx blocks = 6, bn = 21;
  const idx n = blocks * bn;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  for (idx b = 0; b < blocks; ++b)
    for (idx i = 0; i < bn; ++i)
      d[static_cast<size_t>(b * bn + i)] =
          std::fabs(static_cast<double>(i) - 10.0);
  for (idx i = 0; i + 1 < n; ++i)
    e[static_cast<size_t>(i)] = (i % bn == bn - 1) ? 1e-8 : 1.0;
  check_parallel_equivalence(n, d, e, 8);
}

TEST(StedcParallel, ManyDeflationsConstantDiagonal) {
  // T = c I + tiny couplings: nearly everything deflates in every merge.
  const idx n = 192;
  std::vector<double> d(static_cast<size_t>(n), 2.5),
      e(static_cast<size_t>(n), 1e-14);
  e[static_cast<size_t>(n - 1)] = 0.0;
  check_parallel_equivalence(n, d, e, 8);
}

TEST(StedcParallel, ZeroCouplingEntries) {
  // Zeros in e, including at split points: exercises the rho == 0 merge
  // path (interleave without a secular solve) under the task schedule.
  const idx n = 200;
  Rng rng(107);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  e[static_cast<size_t>(n / 2 - 1)] = 0.0;  // root split
  e[static_cast<size_t>(n / 4 - 1)] = 0.0;  // depth-1 split
  e[static_cast<size_t>(17)] = 0.0;         // inside a leaf
  check_parallel_equivalence(n, d, e, 8);
}

TEST(StedcParallel, StatsAggregatedAcrossWorkers) {
  // Merges running on pool workers must all be counted: the returned counts
  // are non-trivial and identical at every worker count.
  const idx n = 300;
  Rng rng(109);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);

  const Solved serial = run_stedc(n, d, e, 1, 8);
  EXPECT_GT(serial.stats.merges, 0);
  EXPECT_GT(serial.stats.secular_solves, 0);
  EXPECT_GT(serial.stats.secular_iterations, 0);
  EXPECT_GE(serial.stats.total_size, n);  // the root merge alone has size n
  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    const Solved par = run_stedc(n, d, e, workers, 8);
    EXPECT_EQ(par.stats.merges, serial.stats.merges);
    EXPECT_EQ(par.stats.deflated, serial.stats.deflated);
    EXPECT_EQ(par.stats.secular_solves, serial.stats.secular_solves);
    EXPECT_EQ(par.stats.total_size, serial.stats.total_size);
    EXPECT_EQ(par.stats.secular_iterations, serial.stats.secular_iterations);
  }
}

TEST(StedcParallel, TraceCoversLeavesAndMerges) {
  const idx n = 300;
  Rng rng(113);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);

  // Record through the unified telemetry layer: fanned-out levels and
  // serial merges both land in the obs rings under one epoch.
  obs::reset();
  obs::set_enabled(true);
  tridiag::StedcOptions opts;
  opts.crossover = 16;
  opts.num_workers = 4;
  Matrix z(n, n);
  const tridiag::StedcStats stats =
      tridiag::stedc(n, d.data(), e.data(), z.data(), z.ld(), opts);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(snap.dropped_spans, 0u);

  idx leaves = 0, merges = 0;
  for (const obs::SpanRecord& ev : snap.spans) {
    EXPECT_GE(ev.end_seconds, ev.start_seconds);
    if (std::strcmp(ev.label, "dc_leaf") == 0) ++leaves;
    if (std::strcmp(ev.label, "dc_merge") == 0) ++merges;
  }
  // crossover 16 on n = 300 gives > 16 leaves and at least as many merges.
  EXPECT_GT(leaves, 8);
  EXPECT_GT(merges, 8);
  EXPECT_EQ(merges, stats.merges);
}

TEST(StedcParallel, SmallProblemsAllWorkerCounts) {
  // Problems at or below the crossover (single leaf, no merges) and just
  // above it must be schedule-independent too.
  Rng rng(127);
  for (idx n : {idx{1}, idx{2}, idx{5}, idx{16}, idx{17}, idx{40}}) {
    std::vector<double> d(static_cast<size_t>(n)),
        e(static_cast<size_t>(n), 0.0);
    rng.fill_uniform(d.data(), n);
    if (n > 1) rng.fill_uniform(e.data(), n - 1);
    check_parallel_equivalence(n, d, e, 16);
  }
}

}  // namespace
}  // namespace tseig
