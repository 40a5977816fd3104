// Tests for Sturm bisection (stebz) and inverse iteration (stein).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/rng.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"
#include "tridiag/bisect.hpp"

namespace tseig {
namespace {

using testing::eigen_residual;
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

std::vector<double> reference_eigs(idx n, std::vector<double> d,
                                   std::vector<double> e) {
  e.resize(static_cast<size_t>(n), 0.0);
  lapack::sterf(n, d.data(), e.data());
  return d;
}

class BisectSizes : public ::testing::TestWithParam<idx> {};

TEST_P(BisectSizes, SturmCountMatchesSortedSpectrum) {
  const idx n = GetParam();
  Rng rng(n * 3 + 2);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);
  for (double x : {-2.0, -0.5, 0.0, 0.3, 1.5, 2.5}) {
    const idx expect = static_cast<idx>(
        std::lower_bound(ref.begin(), ref.end(), x) - ref.begin());
    // Sturm counts eigenvalues < x; ties are measure-zero for random data.
    EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), x), expect) << x;
  }
}

TEST_P(BisectSizes, IndexRangeMatchesReference) {
  const idx n = GetParam();
  Rng rng(n * 5 + 7);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);

  const idx il = n / 4;
  const idx iu = std::min(n - 1, il + n / 2);
  auto w = tridiag::stebz_index(n, d.data(), e.data(), il, iu);
  ASSERT_EQ(static_cast<idx>(w.size()), iu - il + 1);
  for (idx j = 0; j < static_cast<idx>(w.size()); ++j)
    EXPECT_NEAR(w[static_cast<size_t>(j)], ref[static_cast<size_t>(il + j)],
                1e-12 * n);
}

TEST_P(BisectSizes, InverseIterationEigenpairs) {
  const idx n = GetParam();
  Rng rng(n * 7 + 11);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  if (n > 1) rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(n, d, e);

  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
  Matrix z(n, n);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-10 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BisectSizes,
                         ::testing::Values<idx>(1, 2, 5, 16, 33, 64, 128));

TEST(Bisect, ValueRangeSelectsInterval) {
  const idx n = 60;
  Rng rng(3);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);

  const double vl = -0.5, vu = 0.75;
  auto w = tridiag::stebz_value(n, d.data(), e.data(), vl, vu);
  std::vector<double> expect;
  for (double v : ref)
    if (v > vl && v <= vu) expect.push_back(v);
  ASSERT_EQ(w.size(), expect.size());
  for (size_t j = 0; j < w.size(); ++j) EXPECT_NEAR(w[j], expect[j], 1e-11);
}

TEST(Bisect, SubsetTwentyPercent) {
  // The Figure-4d scenario: smallest 20% of the spectrum only.
  const idx n = 100;
  Rng rng(9);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  Matrix t = tridiag_dense(n, d, e);

  const idx m = n / 5;
  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, m - 1);
  Matrix z(n, m);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-10 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

TEST(Bisect, WilkinsonClusterOrthogonality) {
  // Wilkinson W21's top eigenvalue pairs agree to ~1e-14; inverse iteration
  // must reorthogonalize within those clusters.
  const idx n = 21;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 1.0);
  for (idx i = 0; i < n; ++i) d[static_cast<size_t>(i)] = std::fabs(static_cast<double>(i) - 10.0);
  e[static_cast<size_t>(n - 1)] = 0.0;
  Matrix t = tridiag_dense(n, d, e);

  auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
  Matrix z(n, n);
  tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
  EXPECT_LE(eigen_residual(t, z, w), 1e-11 * n);
  EXPECT_LE(orthogonality_error(z), 1e-8 * n);
}

TEST(Bisect, GershgorinExtremesBracketSpectrum) {
  const idx n = 30;
  Rng rng(15);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
  rng.fill_uniform(d.data(), n);
  rng.fill_uniform(e.data(), n - 1);
  auto ref = reference_eigs(n, d, e);
  // Counts at +-inf proxies.
  EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), ref.front() - 1.0), 0);
  EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), ref.back() + 1.0), n);
}

/// True when both arrays hold the same bits (unlike a zero difference, this
/// also tells -0.0 from +0.0).
bool same_bits(const double* a, const double* b, idx n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         same_bits(a.data(), b.data(), static_cast<idx>(a.size()));
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (idx j = 0; j < a.cols(); ++j)
    if (!same_bits(a.col(j), b.col(j), a.rows())) return false;
  return true;
}

struct SubsetPairs {
  std::vector<double> w;
  Matrix z;
};

/// All eigenpairs of t by stebz_index + stein, under the caller's budget.
SubsetPairs bisect_and_invert(const testing::matgen::Tridiag& t) {
  const auto n = static_cast<idx>(t.d.size());
  SubsetPairs r;
  r.w = tridiag::stebz_index(n, t.d.data(), t.e.data(), 0, n - 1);
  r.z.reshape(n, n);
  tridiag::stein(n, t.d.data(), t.e.data(), r.w, r.z.data(), r.z.ld());
  return r;
}

TEST(Bisect, BitwiseAcrossWorkerBudgets) {
  // A random tridiagonal (singleton clusters) and glued Wilkinson ladders
  // (clusters of nearly equal eigenvalues, reorthogonalized inside stein).
  const idx n = 200;
  Rng rng(401);
  testing::matgen::Tridiag random_t;
  random_t.d.resize(static_cast<size_t>(n));
  random_t.e.resize(static_cast<size_t>(n - 1));
  rng.fill_uniform(random_t.d.data(), n);
  rng.fill_uniform(random_t.e.data(), n - 1);
  testing::matgen::Tridiag glued =
      testing::matgen::glued_wilkinson(8, 21, 1e-10);

  for (const testing::matgen::Tridiag* t : {&random_t, &glued}) {
    SubsetPairs ref;
    {
      const blas::ScopedKernelWorkers budget(1);
      ref = bisect_and_invert(*t);
    }
    for (int workers : {2, 3, 8}) {
      const blas::ScopedKernelWorkers budget(workers);
      const SubsetPairs got = bisect_and_invert(*t);
      EXPECT_TRUE(same_bits(got.w, ref.w)) << workers << " workers";
      EXPECT_TRUE(same_bits(got.z, ref.z)) << workers << " workers";
    }
    // Called from a pool task, the parallel loops fall back to serial even
    // under a wider budget.
    SubsetPairs nested;
    rt::ThreadPool::instance().fork_join(2, [&](int job) {
      if (job != 1) return;
      const blas::ScopedKernelWorkers budget(4);
      nested = bisect_and_invert(*t);
    });
    EXPECT_TRUE(same_bits(nested.w, ref.w));
    EXPECT_TRUE(same_bits(nested.z, ref.z));
  }
}

TEST(Bisect, SturmCountWithLargeAndSubnormalCouplings) {
  // |e| > 1 lifts the pivot floor above DBL_MIN; |e| ~ 1e-160 makes every
  // e^2 subnormal.
  const idx n = 50;
  for (double scale : {3.0, 1e-160}) {
    Rng rng(53);
    std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n), 0.0);
    rng.fill_uniform(d.data(), n);
    for (idx i = 0; i + 1 < n; ++i)
      e[static_cast<size_t>(i)] = scale * (1.0 + rng.uniform()) *
                                  (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const auto ref = reference_eigs(n, d, e);
    std::vector<double> probes{ref.front() - 1.0, ref.back() + 1.0};
    for (idx i = 0; i + 1 < n; ++i)
      probes.push_back(
          0.5 * (ref[static_cast<size_t>(i)] + ref[static_cast<size_t>(i + 1)]));
    for (double x : probes) {
      const idx expect = static_cast<idx>(
          std::lower_bound(ref.begin(), ref.end(), x) - ref.begin());
      EXPECT_EQ(tridiag::sturm_count(n, d.data(), e.data(), x), expect)
          << "scale " << scale << " x " << x;
    }
    const auto w = tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
    for (idx j = 0; j < n; ++j)
      EXPECT_NEAR(w[static_cast<size_t>(j)], ref[static_cast<size_t>(j)],
                  1e-13 * (1.0 + scale))
          << "scale " << scale;
  }
}

/// Restores automatic kernel-tier selection on scope exit.
struct KernelGuard {
  ~KernelGuard() { blas::kernels::select_kernel(nullptr); }
};

TEST(Bisect, SyevSubsetBitwiseAcrossWorkersAndTiers) {
  // m in {1, 7, 60, 205}: Z is one, two or four apply_q2 column blocks
  // depending on the worker count.
  const idx n = 400;
  Rng rng(1205);
  const Matrix a = testing::random_symmetric(n, rng);
  KernelGuard guard;
  for (idx m : {idx{1}, idx{7}, idx{60}, idx{205}}) {
    solver::SyevOptions opts;
    opts.solver = solver::eig_solver::bisect;
    opts.sel = solver::range::by_index;
    opts.il = 0;
    opts.iu = m - 1;
    opts.num_workers = 1;
    const auto ref = solver::syev(n, a.data(), a.ld(), opts);
    ASSERT_EQ(ref.z.cols(), m);
    for (int workers : {2, 4}) {
      opts.num_workers = workers;
      const auto got = solver::syev(n, a.data(), a.ld(), opts);
      EXPECT_TRUE(same_bits(got.eigenvalues, ref.eigenvalues))
          << "m " << m << ", " << workers << " workers";
      EXPECT_TRUE(same_bits(got.z, ref.z))
          << "m " << m << ", " << workers << " workers";
    }
    if (m != 60) continue;
    for (const blas::kernels::Kernel* tier : blas::kernels::available_kernels()) {
      blas::kernels::select_kernel(tier);
      const auto got = solver::syev(n, a.data(), a.ld(), opts);
      EXPECT_TRUE(same_bits(got.eigenvalues, ref.eigenvalues)) << tier->name;
      EXPECT_TRUE(same_bits(got.z, ref.z)) << tier->name;
    }
  }
}

TEST(Bisect, SubsetSolveRecordsStebzAndSteinSpans) {
  const idx n = 64;
  Rng rng(65);
  const Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.solver = solver::eig_solver::bisect;
  opts.fraction = 0.2;
  obs::reset();
  obs::set_enabled(true);
  solver::syev(n, a.data(), a.ld(), opts);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);

  int stebz = 0, stein = 0;
  for (const obs::SpanRecord& ev : snap.spans) {
    const bool is_stebz = std::strcmp(ev.label, "stebz") == 0;
    const bool is_stein = std::strcmp(ev.label, "stein") == 0;
    if (is_stebz || is_stein) {
      EXPECT_EQ(ev.phase, obs::Phase::solve);
    }
    stebz += is_stebz;
    stein += is_stein;
  }
  EXPECT_EQ(stebz, 1);
  EXPECT_EQ(stein, 1);
}

}  // namespace
}  // namespace tseig
