// Integration tests for the stage-1 dense-to-band reduction and Q1.
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/steqr.hpp"
#include "matgen.hpp"
#include "onestage/sytrd.hpp"
#include "test_support.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::orthogonality_error;

/// Materializes Q1 by applying it to the identity.
Matrix build_q1(const twostage::Q1Factor& q1, int workers = 1) {
  Matrix q(q1.n, q1.n);
  lapack::laset(q1.n, q1.n, 0.0, 1.0, q.data(), q.ld());
  twostage::apply_q1(op::none, q1, q.data(), q.ld(), q1.n, workers);
  return q;
}

class Sy2sbShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, int>> {};

TEST_P(Sy2sbShapes, ReconstructsAAndPreservesBand) {
  const auto [n, nb, workers] = GetParam();
  Rng rng(n * 7 + nb);
  Matrix a = testing::random_symmetric(n, rng);

  auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, workers);
  EXPECT_EQ(res.band.bandwidth(), std::min<idx>(nb, n - 1));

  // B must actually be banded (guaranteed by storage) and symmetric source
  // entries untouched outside the band; check Q1 B Q1^T == A.
  Matrix b = res.band.to_dense();
  Matrix q = build_q1(res.q1, workers);
  EXPECT_LE(orthogonality_error(q), 1e-11 * n);

  Matrix qb(n, n), qbqt(n, n);
  blas::gemm(op::none, op::none, n, n, n, 1.0, q.data(), q.ld(), b.data(),
             b.ld(), 0.0, qb.data(), qb.ld());
  blas::gemm(op::none, op::trans, n, n, n, 1.0, qb.data(), qb.ld(), q.data(),
             q.ld(), 0.0, qbqt.data(), qbqt.ld());
  EXPECT_LE(max_abs_diff(qbqt, a), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Sy2sbShapes,
    ::testing::Values(std::make_tuple<idx, idx, int>(8, 4, 1),
                      std::make_tuple<idx, idx, int>(16, 4, 1),
                      std::make_tuple<idx, idx, int>(33, 8, 1),   // ragged
                      std::make_tuple<idx, idx, int>(64, 16, 1),
                      std::make_tuple<idx, idx, int>(65, 16, 1),  // ragged
                      std::make_tuple<idx, idx, int>(96, 32, 1),
                      std::make_tuple<idx, idx, int>(100, 12, 1),
                      std::make_tuple<idx, idx, int>(40, 1, 1),   // tridiagonal
                      std::make_tuple<idx, idx, int>(50, 3, 2),
                      std::make_tuple<idx, idx, int>(64, 16, 4),  // parallel
                      std::make_tuple<idx, idx, int>(100, 12, 3),
                      std::make_tuple<idx, idx, int>(65, 16, 2)));

TEST(Sy2sb, PreservesEigenvalues) {
  const idx n = 72, nb = 12;
  Rng rng(13);
  auto eigs = lapack::make_spectrum(lapack::spectrum_kind::linear, n, 0, rng);
  Matrix a = lapack::symmetric_with_spectrum(eigs, rng);
  auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);

  // Eigenvalues of the band matrix must match the prescribed spectrum;
  // tridiagonalize the densified band with the one-stage baseline.
  Matrix b = res.band.to_dense();
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));
  onestage::sytrd(n, b.data(), b.ld(), d.data(), e.data(), tau.data(), 16);
  lapack::sterf(n, d.data(), e.data());
  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d[static_cast<size_t>(i)], eigs[static_cast<size_t>(i)],
                1e-9 * n);
}

TEST(Sy2sb, ApplyQ1TransIsInverse) {
  const idx n = 48, nb = 8;
  Rng rng(17);
  Matrix a = testing::random_symmetric(n, rng);
  auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);

  Matrix g = testing::random_matrix(n, 10, rng);
  Matrix g0 = g;
  twostage::apply_q1(op::none, res.q1, g.data(), g.ld(), 10);
  twostage::apply_q1(op::trans, res.q1, g.data(), g.ld(), 10);
  EXPECT_LE(max_abs_diff(g, g0), 1e-11 * n);
}

TEST(Sy2sb, ApplyQ1ParallelMatchesSequential) {
  // Bitwise against one worker, for Q1 and Q1^T.  The column blocks are
  // ceil(ncols / workers) rounded up to 8, at most 256 columns, so the
  // widths vary with both; ncols = 300 gives several blocks on one worker.
  const idx n = 64, nb = 16;
  Rng rng(19);
  Matrix a = testing::random_symmetric(n, rng);
  auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);

  for (const op trans : {op::none, op::trans}) {
    for (const idx ncols : {idx{1}, idx{7}, idx{40}, idx{300}}) {
      SCOPED_TRACE(::testing::Message()
                   << (trans == op::none ? "Q1" : "Q1^T") << ", ncols "
                   << ncols);
      const Matrix g = testing::random_matrix(n, ncols, rng);
      Matrix gs = g;
      twostage::apply_q1(trans, res.q1, gs.data(), gs.ld(), ncols, 1);
      for (const int workers : {2, 3, 4}) {
        Matrix gp = g;
        twostage::apply_q1(trans, res.q1, gp.data(), gp.ld(), ncols, workers);
        EXPECT_LE(max_abs_diff(gs, gp), 0.0) << "workers " << workers;
      }
    }
  }
}

TEST(Sy2sb, SingleTileIsIdentityQ1) {
  const idx n = 10;
  Rng rng(23);
  Matrix a = testing::random_symmetric(n, rng);
  auto res = twostage::sy2sb(n, a.data(), a.ld(), 16, 1);  // nb >= n
  Matrix b = res.band.to_dense();
  EXPECT_LE(max_abs_diff(b, a), 0.0);
  Matrix q = build_q1(res.q1);
  Matrix eye(n, n);
  lapack::laset(n, n, 0.0, 1.0, eye.data(), eye.ld());
  EXPECT_LE(max_abs_diff(q, eye), 0.0);
}

TEST(Sy2sb, BandProfileIsExact) {
  // Every entry outside the band must be exactly zero by construction, and
  // the band dense expansion symmetric.
  const idx n = 40, nb = 8;
  Rng rng(29);
  Matrix a = testing::random_symmetric(n, rng);
  auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  Matrix b = res.band.to_dense();
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i) {
      if (std::abs(i - j) > nb) {
        EXPECT_EQ(b(i, j), 0.0);
      }
      EXPECT_EQ(b(i, j), b(j, i));
    }
}

TEST(Sy2sbLookaheadResolve, PassesThroughExplicitValues) {
  EXPECT_EQ(twostage::resolve_lookahead(0), 0);
  EXPECT_EQ(twostage::resolve_lookahead(5), 5);
}

// ---- Bitwise determinism ----------------------------------------------------
//
// Every element of the band and of Q1 sees one operation order, fixed by n
// and nb: the trailing update runs in block columns and X in row blocks
// whose bounds do not depend on the worker count, and look-ahead only
// reorders whole block operations.

/// The stage-1 output compared byte for byte: the band storage and Q1
/// applied to the identity.
struct Stage1Bytes {
  std::vector<double> band;
  Matrix q;
};

Stage1Bytes stage1_bytes(const Matrix& a, idx nb, int workers,
                         int lookahead) {
  const idx n = a.rows();
  twostage::Sy2sbOptions o;
  o.num_workers = workers;
  o.lookahead = lookahead;
  const auto res = twostage::sy2sb(n, a.data(), a.ld(), nb, o);
  Stage1Bytes out;
  out.band.assign(res.band.data(),
                  res.band.data() + res.band.ldab() * res.band.n());
  out.q = build_q1(res.q1, workers);
  return out;
}

bool same_bytes(const Stage1Bytes& x, const Stage1Bytes& y) {
  return x.band.size() == y.band.size() &&
         std::memcmp(x.band.data(), y.band.data(),
                     x.band.size() * sizeof(double)) == 0 &&
         x.q.rows() == y.q.rows() &&
         std::memcmp(x.q.data(), y.q.data(),
                     static_cast<size_t>(x.q.rows() * x.q.cols()) *
                         sizeof(double)) == 0;
}

/// Runs the determinism grid: n x nb x workers {1..4} x look-ahead {0, 1, 2}
/// against workers 1, look-ahead 0.
void expect_bitwise_grid() {
  for (const idx n : {idx{1}, idx{2}, idx{17}, idx{64}, idx{130}, idx{300}}) {
    Rng rng(n * 13 + 5);
    const Matrix a = testing::random_symmetric(n, rng);
    for (const idx nb : {idx{1}, idx{3}, idx{8}, idx{32}, n + 1}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << ", nb " << nb);
      const Stage1Bytes ref = stage1_bytes(a, nb, 1, 0);
      for (const int workers : {1, 2, 3, 4})
        for (const int lookahead : {0, 1, 2}) {
          if (workers == 1 && lookahead == 0) continue;
          EXPECT_TRUE(same_bytes(ref, stage1_bytes(a, nb, workers, lookahead)))
              << "workers " << workers << ", look-ahead " << lookahead;
        }
    }
  }
}

TEST(Sy2sb, BitwiseAcrossWorkersAndLookahead) { expect_bitwise_grid(); }

TEST(Sy2sb, BitwiseAcrossKernelTiers) {
  // Every Level-3 flop of stage 1 runs in the dispatched microkernel tier,
  // whose rounding is the same on every tier (blas/kernels/registry.hpp).
  const idx n = 130, nb = 32;
  Rng rng(37);
  const Matrix a = testing::random_symmetric(n, rng);
  const auto tiers = blas::kernels::available_kernels();
  blas::kernels::select_kernel(tiers.back());
  const Stage1Bytes ref = stage1_bytes(a, nb, 2, 1);
  for (const blas::kernels::Kernel* k : tiers) {
    SCOPED_TRACE(k->name);
    blas::kernels::select_kernel(k);
    EXPECT_TRUE(same_bytes(ref, stage1_bytes(a, nb, 2, 1)));
  }
  blas::kernels::select_kernel(nullptr);
}

TEST(Sy2sb, BitwiseWhileOtherClientsKeepThePoolBusy) {
  // Schedule perturbation: two other client threads keep forking
  // parallel_for work onto the shared pool, so the bodies of the reduction
  // start late and in varying order and the block columns land on
  // different bodies from run to run.  The bytes must not change.
  std::atomic<bool> stop{false};
  std::atomic<long> sink{0};
  auto client = [&] {
    while (!stop.load()) {
      parallel_for(3, 0, 64, 1, [&](idx i) {
        double x = static_cast<double>(i);
        for (int r = 0; r < 2000; ++r) x = x * 0.999 + 1.0;
        sink.fetch_add(static_cast<long>(x));
      });
    }
  };
  std::thread c1(client), c2(client);
  expect_bitwise_grid();
  stop.store(true);
  c1.join();
  c2.join();
}

TEST(Sy2sb, MatgenOraclesHold) {
  // Over the matgen catalog and its scales: the scaled similarity residual
  // ||Q1^T A Q1 - B||_F / (n eps ||A||_F), the scaled orthogonality of Q1
  // and the exact band profile.
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const idx n = 72, nb = 8;
  for (const auto& spec : testing::matgen::torture_cases(n, 41)) {
    SCOPED_TRACE(::testing::Message()
                 << testing::matgen::class_name(spec.cls) << " x "
                 << spec.scale);
    const auto g = testing::matgen::generate(spec);
    twostage::Sy2sbOptions o;
    o.num_workers = 2;
    const auto res = twostage::sy2sb(n, g.a.data(), g.a.ld(), nb, o);
    const Matrix b = res.band.to_dense();
    const Matrix q = build_q1(res.q1, 2);
    Matrix aq(n, n), qtaq(n, n);
    blas::gemm(op::none, op::none, n, n, n, 1.0, g.a.data(), g.a.ld(),
               q.data(), q.ld(), 0.0, aq.data(), aq.ld());
    blas::gemm(op::trans, op::none, n, n, n, 1.0, q.data(), q.ld(),
               aq.data(), aq.ld(), 0.0, qtaq.data(), qtaq.ld());
    double diff = 0.0;
    for (idx j = 0; j < n; ++j)
      for (idx i = 0; i < n; ++i) {
        const double dij = qtaq(i, j) - b(i, j);
        diff += dij * dij;
        if (std::abs(i - j) > nb) {
          EXPECT_EQ(b(i, j), 0.0);
        }
      }
    const double anorm = testing::fro_norm(g.a);
    EXPECT_LE(std::sqrt(diff) / (static_cast<double>(n) * eps * anorm), 50.0);
    EXPECT_LE(testing::scaled_orthogonality(q), 50.0);
  }
}

}  // namespace
}  // namespace tseig
