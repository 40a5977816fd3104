// Tests for the stage-2 bulge chasing (band -> tridiagonal, recording Q2).
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/householder.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "onestage/sytrd.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;

/// Builds a random symmetric band matrix.
twostage::BandMatrix random_band(idx n, idx bw, Rng& rng) {
  twostage::BandMatrix b(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      b.at(i, j) = 2.0 * rng.uniform() - 1.0;
  return b;
}

/// Eigenvalues of a dense symmetric matrix via the one-stage baseline.
std::vector<double> dense_eigenvalues(Matrix a) {
  const idx n = a.rows();
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, a.data(), a.ld(), d.data(), e.data(), tau.data(), 16);
  lapack::sterf(n, d.data(), e.data());
  return d;
}

/// Materializes Q2 = H_1 H_2 ... H_K (reflectors in generation order) by
/// dense accumulation -- the trusted oracle for the factored form.
Matrix dense_q2(const twostage::V2Factor& v2) {
  const idx n = v2.n();
  Matrix q(n, n);
  lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
  std::vector<double> work(static_cast<size_t>(n));
  // Apply H_k to Q from the left for k = K .. 1 (so Q = H_1 (... H_K I)).
  for (idx s = v2.nsweeps() - 1; s >= 0; --s) {
    for (idx b = v2.nblocks(s) - 1; b >= 0; --b) {
      const double tau = v2.tau(s, b);
      if (tau == 0.0) continue;
      const idx r = v2.start(s, b);
      const idx len = v2.len(s, b);
      lapack::larf(side::left, len, n, v2.v(s, b), 1, tau,
                   q.data() + r, q.ld(), work.data());
    }
  }
  return q;
}

TEST(BandMatrix, DenseRoundTrip) {
  twostage::BandMatrix b(6, 2);
  for (idx j = 0; j < 6; ++j)
    for (idx i = j; i < std::min<idx>(6, j + 3); ++i)
      b.at(i, j) = static_cast<double>(10 * i + j);
  Matrix d = b.to_dense();
  for (idx j = 0; j < 6; ++j)
    for (idx i = 0; i < 6; ++i) {
      if (std::abs(i - j) <= 2) {
        const idx lo = std::max(i, j), hi = std::min(i, j);
        EXPECT_EQ(d(i, j), 10.0 * lo + hi);
      } else {
        EXPECT_EQ(d(i, j), 0.0);
      }
    }
}

class Sb2stShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(Sb2stShapes, SimilarityHoldsAndEigenvaluesPreserved) {
  const auto [n, bw] = GetParam();
  Rng rng(n * 31 + bw);
  auto band = random_band(n, bw, rng);
  Matrix bdense = band.to_dense();

  auto res = twostage::sb2st(band);

  // Eigenvalues of T match eigenvalues of B.
  auto expect = dense_eigenvalues(bdense);
  std::vector<double> d = res.d, e = res.e;
  lapack::sterf(n, d.data(), e.data());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<size_t>(i)], expect[static_cast<size_t>(i)],
                1e-10 * n)
        << i;

  // Q2^T B Q2 == T with the dense-accumulated Q2.
  Matrix q2 = dense_q2(res.v2);
  EXPECT_LE(orthogonality_error(q2), 1e-12 * n);
  Matrix bq(n, n), t(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, bdense.data(), bdense.ld(),
             q2.data(), q2.ld(), 0.0, bq.data(), bq.ld());
  blas::gemm(op::trans, op::none, n, n, n, 1.0, q2.data(), q2.ld(),
             bq.data(), bq.ld(), 0.0, t.data(), t.ld());
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      double expect_t = 0.0;
      if (i == j) expect_t = res.d[static_cast<size_t>(i)];
      if (i == j + 1) expect_t = res.e[static_cast<size_t>(j)];
      if (j == i + 1) expect_t = res.e[static_cast<size_t>(i)];
      EXPECT_NEAR(t(i, j), expect_t, 1e-11 * n) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Sb2stShapes,
                         ::testing::Values(std::make_tuple<idx, idx>(3, 2),
                                           std::make_tuple<idx, idx>(8, 3),
                                           std::make_tuple<idx, idx>(16, 4),
                                           std::make_tuple<idx, idx>(17, 5),
                                           std::make_tuple<idx, idx>(32, 8),
                                           std::make_tuple<idx, idx>(45, 7),
                                           std::make_tuple<idx, idx>(64, 16),
                                           std::make_tuple<idx, idx>(50, 2)));

/// Bitwise equality of two chase results: d, e, and every reflector and tau.
void expect_same_chase(const twostage::Sb2stResult& a,
                       const twostage::Sb2stResult& b) {
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.e, b.e);
  ASSERT_EQ(a.v2.nsweeps(), b.v2.nsweeps());
  for (idx s = 0; s < a.v2.nsweeps(); ++s) {
    for (idx bk = 0; bk < a.v2.nblocks(s); ++bk) {
      EXPECT_EQ(a.v2.tau(s, bk), b.v2.tau(s, bk));
      EXPECT_LE(max_abs_diff(a.v2.v(s, bk), b.v2.v(s, bk), a.v2.len(s, bk)),
                0.0);
    }
  }
}

class Sb2stSchedules
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Sb2stSchedules, ParallelMatchesSequentialBitwise) {
  const auto [workers, stage2_workers] = GetParam();
  // n = 4, bw = 2 has 2 sweeps of one hop each, fewer than most widths
  // here.
  for (const auto& [n, bw] : {std::pair<idx, idx>{60, 8}, {4, 2}}) {
    SCOPED_TRACE("n " + std::to_string(n) + " bw " + std::to_string(bw));
    Rng rng(5);
    auto band = random_band(n, bw, rng);
    twostage::Sb2stOptions opts;
    opts.num_workers = workers;
    opts.stage2_workers = stage2_workers;
    expect_same_chase(twostage::sb2st(band), twostage::sb2st(band, opts));
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, Sb2stSchedules,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8),
                                            ::testing::Values(0, 1, 2, 3)));

class Sb2stOwnedRanges
    : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(Sb2stOwnedRanges, EveryWidthAndCapMatchesWidthOneBitwise) {
  // Every owner count 1..4 (workers x stage2_workers cap) splits the sweeps
  // into different hop ranges; n = 5 and nb = 48 give sweeps shorter than
  // the width, where some owners hold no hop of a sweep.
  const auto [n, nb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 7 + nb));
  auto band = random_band(n, nb, rng);
  twostage::Sb2stOptions one;
  one.num_workers = 1;
  const auto ref = twostage::sb2st(band, one);
  for (int workers = 1; workers <= 4; ++workers) {
    for (int cap = 0; cap <= 4; ++cap) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " cap " +
                   std::to_string(cap));
      twostage::Sb2stOptions opts;
      opts.num_workers = workers;
      opts.stage2_workers = cap;
      expect_same_chase(ref, twostage::sb2st(band, opts));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Sb2stOwnedRanges,
    ::testing::Combine(::testing::Values<idx>(5, 50, 130),
                       ::testing::Values<idx>(3, 16, 48)));

TEST(Sb2st, CountedFlopsAndBytesMatchTheHopFormulas) {
  // Stage 2's counters hold each hop's kernels once, at any width:
  //  * larfg of a length-L reflector: nrm2 2(L-1) and scal (L-1) flops,
  //    scal's 16(L-1) bytes;
  //  * hop 0 (hbceu): the two-sided update, xLARFY's 4L^2 + 4L flops and
  //    byte_count::larfy(L);
  //  * hop u > 0 (hbrel + hblru): the previous reflector (length nb) from
  //    the right on the L rows below it, 4 L nb flops and larf(nb, L); the
  //    new one from the left on nb - 1 columns, 4 L (nb - 1) flops and
  //    larf(L, nb - 1); then the two-sided update as for hop 0.
  // A reflector with tau = 0 (L = 1, the last hop of some sweeps) applies
  // nothing.
  const idx n = 50, nb = 8;
  Rng rng(17);
  const auto band = random_band(n, nb, rng);
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    twostage::Sb2stOptions opts;
    opts.num_workers = workers;
    FlopScope flops;
    ByteScope bytes;
    const auto res = twostage::sb2st(band, opts);
    const std::uint64_t got_flops = flops.count(), got_bytes = bytes.count();

    std::int64_t want_flops = 0, want_bytes = 0;
    const twostage::V2Factor& v2 = res.v2;
    for (idx s = 0; s < v2.nsweeps(); ++s) {
      for (idx u = 0; u < v2.nblocks(s); ++u) {
        const idx len = v2.len(s, u);
        if (len >= 2) {
          want_flops += 3 * (len - 1);
          want_bytes += 16 * (len - 1);
        }
        if (u > 0 && v2.tau(s, u - 1) != 0.0) {
          want_flops += 4 * len * nb;
          want_bytes += byte_count::larf(nb, len);
        }
        if (v2.tau(s, u) == 0.0) continue;
        if (u > 0) {
          want_flops += 4 * len * (nb - 1);
          want_bytes += byte_count::larf(len, nb - 1);
        }
        want_flops += 4 * len * len + 4 * len;
        want_bytes += byte_count::larfy(len);
      }
    }
    EXPECT_EQ(got_flops, static_cast<std::uint64_t>(want_flops));
    EXPECT_EQ(got_bytes, static_cast<std::uint64_t>(want_bytes));
  }
}

TEST(Sb2st, NestedInsidePoolRegionMatchesSequentialBitwise) {
  // A call from inside a fork_join body runs the pipeline on one worker.
  const idx n = 60, bw = 8;
  Rng rng(6);
  auto band = random_band(n, bw, rng);
  const auto seq = twostage::sb2st(band);
  std::vector<twostage::Sb2stResult> got(2);
  rt::ThreadPool::instance().fork_join(2, [&](int t) {
    twostage::Sb2stOptions opts;
    opts.num_workers = 4;
    got[static_cast<size_t>(t)] = twostage::sb2st(band, opts);
  });
  for (const auto& g : got) expect_same_chase(seq, g);
}

TEST(Sb2st, AlreadyTridiagonalIsPassedThrough) {
  const idx n = 12;
  Rng rng(7);
  auto band = random_band(n, 1, rng);
  auto res = twostage::sb2st(band);
  for (idx i = 0; i < n; ++i) EXPECT_EQ(res.d[static_cast<size_t>(i)], band.at(i, i));
  for (idx i = 0; i + 1 < n; ++i)
    EXPECT_EQ(res.e[static_cast<size_t>(i)], band.at(i + 1, i));
  // All recorded reflectors are trivial.
  for (idx s = 0; s < res.v2.nsweeps(); ++s)
    for (idx b = 0; b < res.v2.nblocks(s); ++b)
      EXPECT_EQ(res.v2.tau(s, b), 0.0);
}

TEST(Sb2st, TinyMatrices) {
  Rng rng(9);
  for (idx n : {idx{1}, idx{2}, idx{3}}) {
    auto band = random_band(n, std::max<idx>(1, n - 1), rng);
    auto res = twostage::sb2st(band);
    auto expect = dense_eigenvalues(band.to_dense());
    std::vector<double> d = res.d, e = res.e;
    lapack::sterf(n, d.data(), e.data());
    for (idx i = 0; i < n; ++i)
      EXPECT_NEAR(d[static_cast<size_t>(i)], expect[static_cast<size_t>(i)], 1e-13);
  }
}

TEST(Sb2st, TwoStagePipelinePreservesSpectrum) {
  // Dense -> band (stage 1) -> tridiagonal (stage 2): the end-to-end
  // reduction of the paper, eigenvalues must match the prescribed spectrum.
  const idx n = 70, nb = 12;
  Rng rng(13);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto s2 = twostage::sb2st(s1.band);
  std::vector<double> d = s2.d, e = s2.e;
  lapack::sterf(n, d.data(), e.data());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<size_t>(i)], eigs[static_cast<size_t>(i)],
                1e-9 * n);
}

TEST(Sb2st, MatgenAdversarialSpectraSurviveBothStages) {
  // The same end-to-end reduction over the matgen torture catalog: graded,
  // clustered and near-zero spectra (with known ground truth) must come out
  // of sy2sb -> sb2st -> sterf within the Weyl-scaled eigenvalue bound.
  const idx n = 56, nb = 8;
  for (auto cls : {testing::matgen::spectrum_class::clustered_eps,
                   testing::matgen::spectrum_class::graded,
                   testing::matgen::spectrum_class::near_zero,
                   testing::matgen::spectrum_class::glued_wilkinson}) {
    testing::matgen::Spec spec;
    spec.cls = cls;
    spec.n = n;
    spec.kappa = 1e12;
    spec.seed = 31;
    const auto g = testing::matgen::generate(spec);
    SCOPED_TRACE(testing::matgen::class_name(cls));
    auto s1 = twostage::sy2sb(n, g.a.data(), g.a.ld(), nb, 1);
    auto s2 = twostage::sb2st(s1.band);
    std::vector<double> d = s2.d, e = s2.e;
    lapack::sterf(n, d.data(), e.data());
    EXPECT_TRUE(testing::check_eigenvalues(g.eigs, d));
  }
}

}  // namespace
}  // namespace tseig
