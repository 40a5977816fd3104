// Tests for Sturm bisection (stebz) and inverse iteration (stein).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/rng.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "obs/telemetry.hpp"
#include "onestage/sytrd.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"
#include "tridiag/bisect.hpp"

namespace tseig {
namespace {

using testing::eigen_residual;
using testing::orthogonality_error;
using testing::same_bits;

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

TEST(Bisect, OneByOneReturnsTheDiagonalExactly) {
  // LAPACK dstebz returns d(1) for n = 1; bisection alone stopped within
  // its pivot floor of it (-pivmin/2 = -1.1e-308 for d = {0}).
  const double inf = std::numeric_limits<double>::infinity();
  const auto bits_equal = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (const double d0 : {0.0, -0.0, 1.0, -3.7, 1e-300, 1e300, 0.1}) {
    SCOPED_TRACE(d0);
    const double d[1] = {d0};
    const double e[1] = {0.0};
    const double below = std::nextafter(d0, -inf);
    const double above = std::nextafter(d0, inf);
    const auto w = tridiag::stebz_index(1, d, e, 0, 0);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_TRUE(bits_equal(w[0], d0));
    const auto in = tridiag::stebz_value(1, d, e, below, above);
    ASSERT_EQ(in.size(), 1u);
    EXPECT_TRUE(bits_equal(in[0], d0));
    // (vl, vu] is half-open: d0 = vu is inside, d0 = vl is not.
    EXPECT_EQ(tridiag::stebz_value(1, d, e, below, d0).size(), 1u);
    EXPECT_TRUE(tridiag::stebz_value(1, d, e, d0, above).empty());
  }
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

/// The scalar bisection that stebz_index ran before it grouped indices into
/// lanes: the same Gershgorin interval, squares and pivot floor, then one
/// index at a time with its own Sturm counts.  It is the oracle of the lane
/// path, which must reproduce it bit for bit.
namespace scalar_ref {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kSafmin = std::numeric_limits<double>::min();

idx count_below(idx n, const double* d, const double* e2, double pivmin,
                double x) {
  idx count = 0;
  double q = d[0] - x;
  if (std::fabs(q) < pivmin) q = -pivmin;
  if (q < 0.0) ++count;
  for (idx i = 1; i < n; ++i) {
    q = d[i] - x - e2[i - 1] / q;
    if (std::fabs(q) < pivmin) q = -pivmin;
    if (q < 0.0) ++count;
  }
  return count;
}

double bisect_one(idx n, const double* d, const double* e2, double pivmin,
                  idx target, double lo, double hi) {
  for (int it = 0; it < 128; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (hi - lo <=
        2.0 * kEps * std::max(std::fabs(lo), std::fabs(hi)) + kSafmin)
      break;
    if (count_below(n, d, e2, pivmin, mid) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> stebz_index(const testing::matgen::Tridiag& t, idx il,
                                idx iu) {
  const auto n = static_cast<idx>(t.d.size());
  const double* d = t.d.data();
  const double* e = t.e.data();
  if (n == 1) return {d[0]};  // dstebz's 1x1 rule, not bisected
  double gl = d[0], gu = d[0];
  for (idx i = 0; i < n; ++i) {
    const double r = (i > 0 ? std::fabs(e[i - 1]) : 0.0) +
                     (i + 1 < n ? std::fabs(e[i]) : 0.0);
    gl = std::min(gl, d[i] - r);
    gu = std::max(gu, d[i] + r);
  }
  const double pad = kEps * std::max(std::fabs(gl), std::fabs(gu)) + kSafmin;
  gl -= 2.0 * pad;
  gu += 2.0 * pad;
  std::vector<double> e2(static_cast<size_t>(n - 1));
  double emax = 1.0;
  for (idx i = 0; i + 1 < n; ++i) {
    e2[static_cast<size_t>(i)] = e[i] * e[i];
    emax = std::max(emax, e2[static_cast<size_t>(i)]);
  }
  const double pivmin = kSafmin * emax;
  std::vector<double> w;
  for (idx j = il; j <= iu; ++j)
    w.push_back(bisect_one(n, d, e2.data(), pivmin, j, gl, gu));
  return w;
}

}  // namespace scalar_ref

/// The glued-Wilkinson ladder cut to n rows.
testing::matgen::Tridiag glued_of_size(idx n) {
  testing::matgen::Tridiag t =
      testing::matgen::glued_wilkinson((n + 20) / 21, 21, 1e-12);
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n - 1));
  return t;
}

/// The tridiagonal form of matgen's clustered_eps matrix: three clusters of
/// eigenvalues a few ulps apart.
testing::matgen::Tridiag clustered_of_size(idx n) {
  testing::matgen::Spec spec;
  spec.cls = testing::matgen::spectrum_class::clustered_eps;
  spec.n = n;
  spec.seed = 31;
  testing::matgen::Generated g = testing::matgen::generate(spec);
  testing::matgen::Tridiag t;
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n));
  std::vector<double> tau(static_cast<size_t>(n));
  onestage::sytd2(n, g.a.data(), g.a.ld(), t.d.data(), t.e.data(), tau.data());
  t.e.resize(static_cast<size_t>(n - 1));
  return t;
}

/// A random diagonal with couplings of size 1e-160, whose squares are all
/// subnormal.
testing::matgen::Tridiag tiny_couplings_of_size(idx n) {
  Rng rng(static_cast<std::uint64_t>(n) + 53);
  testing::matgen::Tridiag t;
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n - 1));
  rng.fill_uniform(t.d.data(), n);
  for (double& v : t.e)
    v = 1e-160 * (1.0 + rng.uniform()) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
  return t;
}

TEST(Bisect, LaneBisectionMatchesScalarReference) {
  // m crosses the 8-lane group edges (7: one padded group; 8: one full
  // group; 9: a full group and a group of one), and il = 3 shifts every
  // group off the start of the spectrum.
  for (idx n : {idx{1}, idx{2}, idx{17}, idx{400}}) {
    const std::pair<const char*, testing::matgen::Tridiag> cases[] = {
        {"glued", glued_of_size(n)},
        {"clustered", clustered_of_size(n)},
        {"tiny couplings", tiny_couplings_of_size(n)}};
    for (const auto& [name, t] : cases) {
      for (idx m : {idx{1}, idx{7}, idx{8}, idx{9}, idx{205}}) {
        for (idx il : {idx{0}, idx{3}}) {
          if (il + m > n) continue;
          const std::vector<double> ref =
              scalar_ref::stebz_index(t, il, il + m - 1);
          for (int workers : {1, 4}) {
            const blas::ScopedKernelWorkers budget(workers);
            const std::vector<double> got = tridiag::stebz_index(
                n, t.d.data(), t.e.data(), il, il + m - 1);
            EXPECT_TRUE(same_bits(got, ref))
                << name << " n " << n << " m " << m << " il " << il << ", "
                << workers << " workers";
          }
        }
      }
    }
  }
}

TEST(Bisect, ExtremeScaleMatchesUnscaled) {
  // Entries are multiples of 2^-20 with max |entry| = 0.75, so the ladder
  // scaled by 2^-1000 stays normal and both scaled copies map back onto
  // exactly these entries.  (Bisection is not scale-invariant in general:
  // the Gershgorin pads and the pivot floor carry absolute DBL_MIN terms.)
  const idx n = 64;
  Rng rng(1000);
  testing::matgen::Tridiag t;
  t.d.resize(static_cast<size_t>(n));
  t.e.resize(static_cast<size_t>(n - 1));
  auto entry = [&rng] {
    const double v = std::ldexp(std::floor(std::ldexp(rng.uniform(), 20)), -20);
    return rng.uniform() < 0.5 ? -v : v;
  };
  for (double& v : t.d) v = entry();
  for (double& v : t.e) v = entry();
  t.d[0] = 0.75;
  const Matrix dense = tridiag_dense(n, t.d, t.e);
  const std::vector<double> ref =
      tridiag::stebz_index(n, t.d.data(), t.e.data(), 0, n - 1);
  const double vl = 0.5 * (ref[9] + ref[10]), vu = 0.5 * (ref[40] + ref[41]);

  for (int ex : {1000, -1000}) {
    std::vector<double> d(t.d), e(t.e);
    for (double& v : d) v = std::ldexp(v, ex);
    for (double& v : e) v = std::ldexp(v, ex);
    std::vector<double> expect(ref);
    for (double& v : expect) v = std::ldexp(v, ex);

    const std::vector<double> w =
        tridiag::stebz_index(n, d.data(), e.data(), 0, n - 1);
    EXPECT_TRUE(same_bits(w, expect)) << "2^" << ex;
    EXPECT_EQ(
        tridiag::sturm_count(n, d.data(), e.data(), std::ldexp(vu, ex)), 41)
        << "2^" << ex;
    const std::vector<double> wv = tridiag::stebz_value(
        n, d.data(), e.data(), std::ldexp(vl, ex), std::ldexp(vu, ex));
    EXPECT_TRUE(same_bits(wv, std::vector<double>(expect.begin() + 10,
                                                  expect.begin() + 41)))
        << "2^" << ex;

    // Eigenvectors do not scale: stein on the scaled ladder solves the
    // unscaled one.
    Matrix z(n, n);
    tridiag::stein(n, d.data(), e.data(), w, z.data(), z.ld());
    EXPECT_LE(eigen_residual(dense, z, ref), 1e-10 * n) << "2^" << ex;
    EXPECT_LE(orthogonality_error(z), 1e-8 * n) << "2^" << ex;
  }
}

TEST(Bisect, SyevNearOverflowMatchesScaledResult) {
  // a_ij = 1/(1 + i + j) times 1e300: e^2 of its tridiagonal overflows, so
  // bisection must run on a scaled copy.
  const idx n = 64;
  Matrix a(n, n), big(n, n);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) {
      a(i, j) = 1.0 / static_cast<double>(1 + i + j);
      big(i, j) = 1e300 * a(i, j);
    }
  for (solver::method algo :
       {solver::method::one_stage, solver::method::two_stage}) {
    solver::SyevOptions opts;
    opts.algo = algo;
    opts.solver = solver::eig_solver::bisect;
    const auto ref = solver::syev(n, a.data(), a.ld(), opts);
    const auto got = solver::syev(n, big.data(), big.ld(), opts);
    std::vector<double> expect(ref.eigenvalues);
    for (double& v : expect) v *= 1e300;
    EXPECT_TRUE(testing::check_eigenvalues(expect, got.eigenvalues))
        << "method " << static_cast<int>(algo);
    EXPECT_LE(orthogonality_error(got.z), 1e-8 * n)
        << "method " << static_cast<int>(algo);
  }
}

TEST(Bisect, SubsetSolveRecordsStebzAndSteinSpans) {
  const idx n = 64;
  Rng rng(65);
  const Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.algo = solver::method::two_stage;  // the q2_build spans below
  opts.solver = solver::eig_solver::bisect;
  opts.fraction = 0.2;
  obs::reset();
  obs::set_enabled(true);
  const double call_start = obs::now_seconds();
  solver::syev(n, a.data(), a.ld(), opts);
  const double call_end = obs::now_seconds();
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

  // apply_q2 fills its diamonds on the pool; every fill body records a
  // q2_build span inside the syev call.
  int builds = 0;
  for (const obs::SpanRecord& ev : snap.spans) {
    if (std::strcmp(ev.label, "q2_build") != 0) continue;
    ++builds;
    EXPECT_GE(ev.start_seconds, call_start);
    EXPECT_LE(ev.end_seconds, call_end);
  }
  EXPECT_GE(builds, 1);
}

}  // namespace
}  // namespace tseig
