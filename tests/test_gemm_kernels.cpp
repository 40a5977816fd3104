// Tests for the runtime-dispatched SIMD microkernel engine (blas/kernels/):
// registry/dispatch behaviour, the bitwise cross-tier consistency contract
// of registry.hpp (every ragged tile shape included), agreement with the
// canonical chunked order at every size, NaN/Inf propagation, the Level-3
// worker-budget rules, pack-buffer high-water decay, and an exhaustive
// gemm/syr2k sweep against the naive references.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using testing::max_abs_diff;
using testing::random_matrix;
using testing::random_symmetric;
using testing::ref_gemm;

namespace kern = blas::kernels;

/// Restores automatic tier selection when a test that called select_kernel
/// exits (including through an assertion failure).
struct KernelGuard {
  ~KernelGuard() { kern::select_kernel(nullptr); }
};

bool bitwise_equal(const double* a, const double* b, idx n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(double)) == 0;
}

// ---- Registry / dispatch ----

TEST(KernelRegistry, ScalarTierAlwaysAvailableAndLast) {
  const auto tiers = kern::available_kernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back()->name, "scalar");
  for (const kern::Kernel* k : tiers) {
    ASSERT_NE(k, nullptr);
    EXPECT_NE(k->micro, nullptr);
    EXPECT_NE(k->pack_a_notrans, nullptr);
    EXPECT_NE(k->pack_a_trans, nullptr);
    EXPECT_NE(k->pack_b_notrans, nullptr);
    EXPECT_NE(k->pack_b_trans, nullptr);
    EXPECT_GT(k->mr, 0);
    EXPECT_GT(k->nr, 0);
  }
}

TEST(KernelRegistry, FindKernelResolvesNamesAndAliases) {
  const auto tiers = kern::available_kernels();
  EXPECT_EQ(kern::find_kernel("scalar"), tiers.back());
  // "native"/"auto"/"best" all alias the best available tier.
  EXPECT_EQ(kern::find_kernel("native"), tiers.front());
  EXPECT_EQ(kern::find_kernel("auto"), tiers.front());
  EXPECT_EQ(kern::find_kernel("best"), tiers.front());
  EXPECT_EQ(kern::find_kernel("no-such-tier"), nullptr);
  for (const kern::Kernel* k : tiers) EXPECT_EQ(kern::find_kernel(k->name), k);
}

TEST(KernelRegistry, ActiveKernelIsAvailableAndHonorsEnvOverride) {
  const auto tiers = kern::available_kernels();
  const kern::Kernel& active = kern::active_kernel();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), &active), tiers.end());
  EXPECT_STREQ(kern::active_kernel_name(), active.name);
  // CI runs this suite under TSEIG_KERNEL=scalar and =native; when the
  // variable names a resolvable tier the dispatcher must have honored it.
  if (const char* req = std::getenv("TSEIG_KERNEL")) {
    if (const kern::Kernel* want = kern::find_kernel(req)) {
      EXPECT_EQ(&active, want) << "TSEIG_KERNEL=" << req;
    }
  }
}

TEST(KernelRegistry, WideTiersCarriedWithoutNativeBuildOnCapableHosts) {
#if defined(__x86_64__) || defined(_M_X64)
  // The whole point of per-TU ISA flags: a binary built with ANY global
  // flags still carries the AVX2/AVX-512 tiers and dispatch finds them on
  // capable hosts.  The AVX2 tier's k-step is a VEX vfmadd, which is its own
  // cpuid bit: a host with AVX2 but no FMA must not be offered the tier.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_NE(kern::find_kernel("avx2"), nullptr);
  } else {
    EXPECT_EQ(kern::find_kernel("avx2"), nullptr);
  }
  if (__builtin_cpu_supports("avx512f")) {
    EXPECT_NE(kern::find_kernel("avx512"), nullptr);
  }
#else
  GTEST_SKIP() << "x86-only dispatch check";
#endif
}

// ---- Bitwise cross-tier consistency ----

/// The scalar tier's portable body `micro_edge` (std::fma k-steps) as a tier
/// of its own, with the scalar TU's 8x4 tile and packers.  On x86 hosts with
/// FMA kernel_scalar() runs its xmm body instead, so without this the body
/// of pre-FMA hosts and of NEON's ragged tiles would not run here.
namespace edge {
constexpr idx MR = 8;
constexpr idx NR = 4;
#include "blas/kernels/pack_micro.inl"
}  // namespace edge

const kern::Kernel kEdgeTier{"scalar-edge",        edge::MR,
                             edge::NR,             edge::micro_edge,
                             edge::pack_a_notrans, edge::pack_a_trans,
                             edge::pack_b_notrans, edge::pack_b_trans};

/// Every available tier plus kEdgeTier: the bodies the cross-tier checks pin.
std::vector<const kern::Kernel*> tiers_under_test() {
  std::vector<const kern::Kernel*> tiers = kern::available_kernels();
  tiers.push_back(&kEdgeTier);
  return tiers;
}

class CrossTierShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(CrossTierShapes, GemmBitwiseIdenticalAcrossTiers) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7919 + n * 131 + k);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);

  KernelGuard guard;
  kern::select_kernel(kern::find_kernel("scalar"));
  Matrix cref = c0;
  blas::gemm(op::none, op::none, m, n, k, 1.25, a.data(), a.ld(), b.data(),
             b.ld(), -0.5, cref.data(), cref.ld());

  for (const kern::Kernel* tier : tiers_under_test()) {
    kern::select_kernel(tier);
    Matrix c = c0;
    blas::gemm(op::none, op::none, m, n, k, 1.25, a.data(), a.ld(), b.data(),
               b.ld(), -0.5, c.data(), c.ld());
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), m * n))
        << "tier " << tier->name << " diverges from scalar (max diff "
        << max_abs_diff(c, cref) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossTierShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(8, 8, 8),       // one tile
        std::make_tuple<idx, idx, idx>(17, 19, 23),    // small, ragged
        std::make_tuple<idx, idx, idx>(48, 48, 48),    // full tiles
        std::make_tuple<idx, idx, idx>(61, 37, 53),    // all tails
        std::make_tuple<idx, idx, idx>(150, 90, 300),  // crosses KC
        std::make_tuple<idx, idx, idx>(130, 40, 70))); // crosses MC

TEST(CrossTier, Syr2kBitwiseIdenticalAcrossTiers) {
  const idx n = 120, k = 70;
  Rng rng(2024);
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix c0 = random_matrix(n, n, rng);

  KernelGuard guard;
  kern::select_kernel(kern::find_kernel("scalar"));
  Matrix cref = c0;
  blas::syr2k(uplo::lower, op::none, n, k, 0.75, a.data(), a.ld(), b.data(),
              b.ld(), 1.0, cref.data(), cref.ld());

  for (const kern::Kernel* tier : tiers_under_test()) {
    kern::select_kernel(tier);
    Matrix c = c0;
    blas::syr2k(uplo::lower, op::none, n, k, 0.75, a.data(), a.ld(), b.data(),
                b.ld(), 1.0, c.data(), c.ld());
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), n * n))
        << "tier " << tier->name;
  }
}

TEST(CrossTier, SyevBitwiseIdenticalAcrossTiers) {
  // End-to-end: the whole eigensolver on both methods (reduction, D&C, back-
  // transform -- every Level-3 call inside) must be bit-reproducible across
  // dispatch tiers.  This is what makes TSEIG_KERNEL=scalar a debugging
  // oracle for SIMD-tier bugs.
  const idx n = 96;
  Rng rng(7);
  const Matrix a = random_symmetric(n, rng);
  KernelGuard guard;
  for (const solver::method algo :
       {solver::method::one_stage, solver::method::two_stage}) {
    SCOPED_TRACE(solver::method_name(algo));
    solver::SyevOptions opts;
    opts.algo = algo;
    opts.num_workers = 1;  // serial: isolates tier effects from scheduling

    kern::select_kernel(kern::find_kernel("scalar"));
    const solver::SyevResult ref = solver::syev(n, a.data(), a.ld(), opts);
    ASSERT_EQ(static_cast<idx>(ref.eigenvalues.size()), n);

    for (const kern::Kernel* tier : tiers_under_test()) {
      kern::select_kernel(tier);
      const solver::SyevResult res = solver::syev(n, a.data(), a.ld(), opts);
      ASSERT_EQ(res.eigenvalues.size(), ref.eigenvalues.size());
      EXPECT_TRUE(
          bitwise_equal(res.eigenvalues.data(), ref.eigenvalues.data(), n))
          << "eigenvalues differ under tier " << tier->name;
      EXPECT_TRUE(bitwise_equal(res.z.data(), ref.z.data(), n * n))
          << "eigenvectors differ under tier " << tier->name;
    }
  }
}

TEST(CrossTier, EdgeTilesEveryShape) {
  // Every ragged micro-tile shape of every tier (m up to 33 and n up to 17
  // cover all mr < MR and nr < NR of the 16x8 and 8x4 tiles), through all
  // four packers, with k = 300 crossing KC.  SIMD tiers run ragged tiles
  // through their full-tile body into a stack tile, so the checks are: the
  // scalar tier's bits, and no write outside the live m x n block of C
  // (16 sentinel rows below it, one sentinel column after it).  Padded
  // lanes of a finite product hold +-0.0, so a stray write of one would
  // leave a sentinel unchanged; the poisoned pass puts +Inf in row 0 of
  // op(A) and column 0 of op(B), which makes the padded lanes 0 * Inf = NaN
  // and the live ones +-Inf, so a stray write shows.  Last, a signed-zero
  // case pins the -0.0 prefill of the stack tile.
  constexpr double kSentinel = -77.25;
  constexpr idx kPadRows = 16;
  const double inf = std::numeric_limits<double>::infinity();
  const kern::Kernel* scalar = kern::find_kernel("scalar");
  KernelGuard guard;
  for (const idx k : {static_cast<idx>(1), static_cast<idx>(7),
                      static_cast<idx>(300)}) {
    for (idx m = 1; m <= 33; ++m) {
      for (idx n = 1; n <= 17; ++n) {
        for (const bool poison : {false, true}) {
          Rng rng(k * 10007 + m * 101 + n);
          const op ta = (m + n) % 2 == 0 ? op::none : op::trans;
          const op tb = (m / 2 + n) % 2 == 0 ? op::none : op::trans;
          Matrix a = ta == op::none ? random_matrix(m, k, rng)
                                    : random_matrix(k, m, rng);
          Matrix b = tb == op::none ? random_matrix(k, n, rng)
                                    : random_matrix(n, k, rng);
          if (poison) {
            (ta == op::none ? a(0, k - 1) : a(k - 1, 0)) = inf;
            (tb == op::none ? b(k - 1, 0) : b(0, k - 1)) = inf;
          }
          const idx ldc = m + kPadRows;
          std::vector<double> c0(static_cast<size_t>(ldc) * (n + 1),
                                 kSentinel);
          for (idx j = 0; j < n; ++j)
            for (idx i = 0; i < m; ++i)
              c0[static_cast<size_t>(i + j * ldc)] = rng.uniform(-1.0, 1.0);
          const auto run = [&](const kern::Kernel* tier) {
            kern::select_kernel(tier);
            std::vector<double> c = c0;
            blas::gemm(ta, tb, m, n, k, -1.25, a.data(), a.ld(), b.data(),
                       b.ld(), 0.5, c.data(), ldc);
            return c;
          };
          const std::vector<double> cref = run(scalar);
          for (const kern::Kernel* tier : tiers_under_test()) {
            const std::vector<double> c = run(tier);
            std::string where = tier->name;
            where += " m=" + std::to_string(m);
            where += " n=" + std::to_string(n);
            where += " k=" + std::to_string(k);
            where += poison ? " poisoned" : "";
            ASSERT_TRUE(bitwise_equal(c.data(), cref.data(),
                                      static_cast<idx>(c.size())))
                << where << " diverges from scalar";
            for (idx j = 0; j <= n; ++j) {
              for (idx i = 0; i < ldc; ++i) {
                if (i >= m || j == n) {
                  ASSERT_EQ(c[static_cast<size_t>(i + j * ldc)], kSentinel)
                      << where << ": wrote outside C at (" << i << "," << j
                      << ")";
                }
              }
            }
          }
        }
      }
    }
  }
  // Signed zero: C = -0.0, A = 0, alpha = -1 makes every update alpha *
  // (+0.0) = -0.0, and -0.0 + -0.0 stays -0.0.  A ragged tile staged
  // through a +0.0-filled stack tile would turn the update into +0.0.
  for (const kern::Kernel* tier : tiers_under_test()) {
    kern::select_kernel(tier);
    for (idx m = 1; m <= 33; ++m) {
      for (idx n = 1; n <= 17; ++n) {
        const idx k = 7;
        Rng rng(m * 31 + n);
        const Matrix a(m, k);  // all +0.0
        const Matrix b = random_matrix(k, n, rng);
        Matrix c(m, n);
        c.fill(-0.0);
        blas::gemm(op::none, op::none, m, n, k, -1.0, a.data(), a.ld(),
                   b.data(), b.ld(), 1.0, c.data(), c.ld());
        for (idx j = 0; j < n; ++j)
          for (idx i = 0; i < m; ++i)
            ASSERT_TRUE(c(i, j) == 0.0 && std::signbit(c(i, j)))
                << tier->name << " m=" << m << " n=" << n << ": C(" << i
                << "," << j << ") = " << c(i, j) << ", want -0.0";
      }
    }
  }
}

TEST(CrossTier, EveryTierFusesEachKStep) {
  // With a = (1, 1 + 2^-30) and b = (-1, 1 - 2^-30) the exact dot product
  // is -2^-60.  A fused second step keeps it; rounding the product
  // 1 - 2^-60 to 1 first gives 0.  The pair sits at every (i, j) of a
  // ragged 37 x 11 C, so each tier's full tiles and edge tiles are pinned.
  const idx m = 37, n = 11, k = 2;
  const double eps = std::ldexp(1.0, -30);
  Matrix a(m, k), b(k, n);
  for (idx i = 0; i < m; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 1.0 + eps;
  }
  for (idx j = 0; j < n; ++j) {
    b(0, j) = -1.0;
    b(1, j) = 1.0 - eps;
  }
  KernelGuard guard;
  for (const kern::Kernel* tier : tiers_under_test()) {
    kern::select_kernel(tier);
    Matrix c(m, n);
    blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c.data(), c.ld());
    for (idx j = 0; j < n; ++j)
      for (idx i = 0; i < m; ++i)
        ASSERT_EQ(c(i, j), -std::ldexp(1.0, -60))
            << tier->name << " C(" << i << "," << j << ")";
  }
}

// ---- Bitwise agreement with the canonical order at every size ----

/// The canonical accumulation order gemm must reproduce exactly:
/// within each KC chunk every k-step is one fused multiply-add in k-order,
/// and each chunk lands on C as one `c += alpha * acc` (separate multiply
/// and add; this file builds with -ffp-contract=off).
void chunked_ref_gemm(idx m, idx n, idx k, double alpha, const Matrix& a,
                      const Matrix& b, double beta, Matrix& c) {
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < m; ++i) c(i, j) = beta == 0.0 ? 0.0 : beta * c(i, j);
  for (idx pc = 0; pc < k; pc += kern::kKC) {
    const idx kc = std::min(kern::kKC, k - pc);
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        double acc = 0.0;
        for (idx p = 0; p < kc; ++p)
          acc = std::fma(a(i, pc + p), b(pc + p, j), acc);
        c(i, j) += alpha * acc;
      }
    }
  }
}

class CrossPathShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(CrossPathShapes, GemmMatchesCanonicalChunkedOrderBitwise) {
  // Sizes around the m*n*k = 16384 threshold of a since-deleted small-size
  // path, plus KC crossings; every one must agree with the SAME canonical
  // order bitwise, so results never depend on the problem's size class.
  const auto [m, n, k] = GetParam();
  Rng rng(m + 3 * n + 7 * k);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);
  for (const double beta : {0.0, 1.0, 2.0}) {
    Matrix c = c0;
    blas::gemm(op::none, op::none, m, n, k, 1.5, a.data(), a.ld(), b.data(),
               b.ld(), beta, c.data(), c.ld());
    Matrix cref = c0;
    chunked_ref_gemm(m, n, k, 1.5, a, b, beta, cref);
    EXPECT_TRUE(bitwise_equal(c.data(), cref.data(), m * n))
        << "m=" << m << " n=" << n << " k=" << k << " beta=" << beta
        << " (max diff " << max_abs_diff(c, cref) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossPathShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(24, 24, 24),   // 13824 <= 16384
        std::make_tuple<idx, idx, idx>(26, 26, 26),   // 17576 >  16384
        std::make_tuple<idx, idx, idx>(16, 16, 64),   // 16384 exactly
        std::make_tuple<idx, idx, idx>(16, 16, 65),   // one past it
        std::make_tuple<idx, idx, idx>(8, 8, 300),    // one tile, crosses KC
        std::make_tuple<idx, idx, idx>(33, 17, 520),  // ragged, crosses KC
        std::make_tuple<idx, idx, idx>(140, 20, 48)));

// ---- NaN/Inf propagation (the old small-path zero-skip bug) ----

TEST(GemmSpecialValues, ZeroTimesNaNAndInfPropagates) {
  // A since-deleted small-size path once skipped k-steps where B(p,j) == 0,
  // silently turning 0 * NaN and 0 * Inf into "no contribution".  IEEE
  // says NaN.  8x8x8 is the size class that path used to serve.
  const idx m = 8, n = 8, k = 8;
  Matrix b(k, n);  // all zeros
  for (const double poison :
       {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Matrix a(m, k);
    a.fill(1.0);
    a(3, 4) = poison;  // row 3 of A meets every column of B
    Matrix c(m, n);
    c.fill(0.5);
    blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 1.0, c.data(), c.ld());
    for (idx j = 0; j < n; ++j) {
      for (idx i = 0; i < m; ++i) {
        if (i == 3) {
          EXPECT_TRUE(std::isnan(c(i, j)))
              << "poison " << poison << " swallowed at (" << i << "," << j
              << ")";
        } else {
          EXPECT_EQ(c(i, j), 0.5 + 0.0);
        }
      }
    }
  }
}

TEST(GemmSpecialValues, SmallAndBlockedPathsAgreeOnNaNPlacement) {
  // Same operands with a NaN at two sizes (once on either side of the old
  // small-path threshold): identical NaN footprint.
  const idx m = 26;  // 26^3 > 16384; 12^3 < 16384
  Rng rng(5);
  Matrix a = random_matrix(m, m, rng);
  Matrix b = random_matrix(m, m, rng);
  a(7, 2) = std::nan("");
  for (const idx sz : {static_cast<idx>(12), m}) {
    Matrix c(sz, sz);
    blas::gemm(op::none, op::none, sz, sz, sz, 1.0, a.data(), a.ld(),
               b.data(), b.ld(), 0.0, c.data(), c.ld());
    for (idx j = 0; j < sz; ++j)
      for (idx i = 0; i < sz; ++i)
        EXPECT_EQ(std::isnan(c(i, j)), i == 7)
            << "sz=" << sz << " (" << i << "," << j << ")";
  }
}

// ---- Worker budgeting ----

TEST(KernelWorkers, NestedGemmRunsSerialAndBitwiseEqual) {
  const idx m = 96, n = 64, k = 80;  // many micro-tiles per dimension
  Rng rng(11);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c_outer(m, n);
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c_outer.data(), c_outer.ld());

  Matrix c_inner(m, n);
  int inner_budget = -1;
  const auto before = rt::ThreadPool::instance().stats();
  parallel_for(2, 0, 2, 1, [&](idx i) {
    if (i != 0) return;
    // Inside a pool region the Level-3 budget must collapse to 1: a pool
    // task growing the pool again is how nested oversubscription starts.
    inner_budget = blas::kernel_workers();
    blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c_inner.data(), c_inner.ld());
  });
  const auto after = rt::ThreadPool::instance().stats();

  EXPECT_EQ(inner_budget, 1);
  // Exactly the two outer bodies ran on the pool; the nested gemm forked
  // nothing.
  EXPECT_EQ(after.jobs_executed - before.jobs_executed, 2u);
  EXPECT_TRUE(bitwise_equal(c_inner.data(), c_outer.data(), m * n));
}

TEST(KernelWorkers, ScopedCapPinsGemmToCallerThread) {
  const idx m = 160, n = 96, k = 64;
  Rng rng(13);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);

  const blas::ScopedKernelWorkers cap(1);
  EXPECT_EQ(blas::kernel_workers(), 1);
  const auto before = rt::ThreadPool::instance().stats();
  blas::gemm(op::none, op::none, m, n, k, 1.0, a.data(), a.ld(), b.data(),
             b.ld(), 0.0, c.data(), c.ld());
  const auto after = rt::ThreadPool::instance().stats();
  // No fork_join at all: the row-block loop ran on the calling thread.
  EXPECT_EQ(after.jobs_executed, before.jobs_executed);
}

TEST(KernelWorkers, ScopedCapRestoresOnScopeExit) {
  const int base = blas::kernel_workers();
  {
    const blas::ScopedKernelWorkers cap(1);
    EXPECT_EQ(blas::kernel_workers(), 1);
    {
      const blas::ScopedKernelWorkers inner(3);
      EXPECT_EQ(blas::kernel_workers(), 3);
      {
        // Non-positive clears the cap for the scope.
        const blas::ScopedKernelWorkers cleared(0);
        EXPECT_EQ(blas::kernel_workers(), base);
      }
      EXPECT_EQ(blas::kernel_workers(), 3);
    }
    EXPECT_EQ(blas::kernel_workers(), 1);
  }
  EXPECT_EQ(blas::kernel_workers(), base);
}

// ---- Pack-buffer high-water decay ----

TEST(PackBuffers, CapacityDecaysAfterLargeToSmallTransition) {
  // Serial so every pack happens in this thread's buffers.
  const blas::ScopedKernelWorkers cap(1);
  Rng rng(17);

  // One big gemm grows the packing buffers to its working set...
  {
    const idx n = 768;
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    Matrix c(n, n);
    blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), a.ld(), b.data(),
               b.ld(), 0.0, c.data(), c.ld());
  }
  const auto grown = blas::pack_buffer_stats();
  ASSERT_GT(grown.b_elements, 100000);  // kc * n packed panel

  // ...then sustained small traffic (a tile algorithm's nb-sized gemms)
  // must decay them: holding the big high-water mark for the rest of the
  // process is the bug this guards against.
  const idx nb = 64;
  const Matrix a = random_matrix(nb, nb, rng);
  const Matrix b = random_matrix(nb, nb, rng);
  Matrix c(nb, nb);
  for (int call = 0; call < 200; ++call) {
    blas::gemm(op::none, op::none, nb, nb, nb, 1.0, a.data(), a.ld(),
               b.data(), b.ld(), 0.0, c.data(), c.ld());
  }
  const auto decayed = blas::pack_buffer_stats();
  EXPECT_LT(decayed.a_elements, grown.a_elements);
  EXPECT_LT(decayed.b_elements, grown.b_elements);
  // Down to the small working set (not just somewhat smaller): the probe
  // window's shrink target is the recent high-water mark itself.
  EXPECT_LE(decayed.a_elements, 2 * nb * nb);
  EXPECT_LE(decayed.b_elements, 2 * nb * nb);
}

// ---- Exhaustive sweep vs naive references ----

class GemmSweepShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx, idx>> {};

TEST_P(GemmSweepShapes, AllTransposesLeadingDimsAndBetas) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 37 + n * 5 + k);
  constexpr double kSentinel = -77.25;
  for (op ta : {op::none, op::trans}) {
    for (op tb : {op::none, op::trans}) {
      // Operands in hand-padded buffers: logical rows + padding rows filled
      // with a sentinel, so non-unit leading dimensions are actually
      // exercised (Matrix always has ld == rows).
      const idx ar = ta == op::none ? m : k, ac = ta == op::none ? k : m;
      const idx br = tb == op::none ? k : n, bc = tb == op::none ? n : k;
      const idx lda = ar + 3, ldb = br + 5, ldc = m + 7;
      std::vector<double> a(static_cast<size_t>(lda) * ac, kSentinel);
      std::vector<double> b(static_cast<size_t>(ldb) * bc, kSentinel);
      for (idx j = 0; j < ac; ++j)
        for (idx i = 0; i < ar; ++i)
          a[static_cast<size_t>(i + j * lda)] = rng.uniform(-1.0, 1.0);
      for (idx j = 0; j < bc; ++j)
        for (idx i = 0; i < br; ++i)
          b[static_cast<size_t>(i + j * ldb)] = rng.uniform(-1.0, 1.0);
      for (const double beta : {0.0, 1.0, 2.0}) {
        std::vector<double> c(static_cast<size_t>(ldc) * n, kSentinel);
        for (idx j = 0; j < n; ++j)
          for (idx i = 0; i < m; ++i)
            c[static_cast<size_t>(i + j * ldc)] =
                beta == 0.0 ? std::nan("") : rng.uniform(-1.0, 1.0);
        std::vector<double> cref = c;
        blas::gemm(ta, tb, m, n, k, 1.3, a.data(), lda, b.data(), ldb, beta,
                   c.data(), ldc);
        ref_gemm(ta, tb, m, n, k, 1.3, a.data(), lda, b.data(), ldb, beta,
                 cref.data(), ldc);
        const std::string where = std::string("ta=") +
                                  static_cast<char>(ta) +
                                  " tb=" + static_cast<char>(tb) +
                                  " beta=" + std::to_string(beta);
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < m; ++i) {
            const double got = c[static_cast<size_t>(i + j * ldc)];
            const double want = cref[static_cast<size_t>(i + j * ldc)];
            ASSERT_FALSE(std::isnan(got))
                << where << ": beta==0 failed to overwrite (" << i << ","
                << j << ")";
            ASSERT_NEAR(got, want, 1e-11 * (k + 1))
                << where << " at (" << i << "," << j << ")";
          }
          // Padding rows of C stay untouched.
          for (idx i = m; i < ldc; ++i)
            ASSERT_EQ(c[static_cast<size_t>(i + j * ldc)], kSentinel)
                << where << ": wrote past row " << m << " in column " << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweepShapes,
    ::testing::Values(
        std::make_tuple<idx, idx, idx>(5, 7, 9),
        std::make_tuple<idx, idx, idx>(17, 19, 23),    // MR/NR tails, small
        std::make_tuple<idx, idx, idx>(33, 9, 40),     // blocked, tails
        std::make_tuple<idx, idx, idx>(64, 64, 64),
        std::make_tuple<idx, idx, idx>(129, 65, 257)));  // KC/MC crossing

class Syr2kSweepShapes
    : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(Syr2kSweepShapes, AllTrianglesTransposesAndBetas) {
  const auto [n, k] = GetParam();
  Rng rng(n * 101 + k);
  for (uplo ul : {uplo::lower, uplo::upper}) {
    for (op tr : {op::none, op::trans}) {
      const Matrix a = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      const Matrix b = tr == op::none ? random_matrix(n, k, rng)
                                      : random_matrix(k, n, rng);
      for (const double beta : {0.0, 1.0, 2.0}) {
        Matrix c(n, n);
        if (beta == 0.0) {
          c.fill(std::nan(""));
        } else {
          c = random_matrix(n, n, rng);
        }
        // Dense reference: alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C.
        Matrix cref = c;
        const op t2 = tr == op::none ? op::trans : op::none;
        ref_gemm(tr, t2, n, n, k, 0.8, a.data(), a.ld(), b.data(), b.ld(),
                 beta, cref.data(), cref.ld());
        ref_gemm(tr, t2, n, n, k, 0.8, b.data(), b.ld(), a.data(), a.ld(),
                 1.0, cref.data(), cref.ld());
        blas::syr2k(ul, tr, n, k, 0.8, a.data(), a.ld(), b.data(), b.ld(),
                    beta, c.data(), c.ld());
        const std::string where = std::string("ul=") +
                                  static_cast<char>(ul) +
                                  " tr=" + static_cast<char>(tr) +
                                  " beta=" + std::to_string(beta);
        for (idx j = 0; j < n; ++j) {
          for (idx i = 0; i < n; ++i) {
            const bool stored = ul == uplo::lower ? i >= j : i <= j;
            if (stored) {
              ASSERT_FALSE(std::isnan(c(i, j)) && beta == 0.0)
                  << where << ": beta==0 failed to overwrite (" << i << ","
                  << j << ")";
              ASSERT_NEAR(c(i, j), cref(i, j), 1e-11 * (k + 1))
                  << where << " at (" << i << "," << j << ")";
            } else if (beta == 0.0) {
              // The opposite triangle must never be touched.
              ASSERT_TRUE(std::isnan(c(i, j)))
                  << where << ": wrote outside triangle at (" << i << ","
                  << j << ")";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Syr2kSweepShapes,
                         ::testing::Values(std::make_tuple<idx, idx>(1, 1),
                                           std::make_tuple<idx, idx>(7, 5),
                                           std::make_tuple<idx, idx>(33, 17),
                                           std::make_tuple<idx, idx>(96, 41),
                                           std::make_tuple<idx, idx>(120,
                                                                     200)));

}  // namespace
}  // namespace tseig
