// Scalar (portable baseline) microkernel tier: 8x4 register tile.
//
// Compiled with any wider ISA explicitly DISABLED (see src/CMakeLists.txt:
// -mno-avx... -mno-fma) so that on a -march=native build
// "scalar" still means the portable baseline and cross-tier A/B numbers are
// honest.  This tier doubles as the determinism oracle: TSEIG_KERNEL=scalar
// must reproduce every other tier bitwise (registry.hpp contract).
//
// Every k-step is one fused multiply-add.  Under -mno-fma std::fma is a
// libm call, over ten times slower than an unfused loop, so on an x86
// host with FMA the factory picks `micro_fma` instead: the same arithmetic
// on 128-bit registers.  Only its k-loop (`fma_tile`, explicit __m128d
// intrinsics) is compiled for FMA by a function attribute; the landing stays
// in this TU's baseline code, so the compiler has no scalar loop it could
// widen to ymm (scripts/check_isa_leak.sh).  Elsewhere the body is
// `micro_edge`.
#include <algorithm>
#include <cmath>

#include "blas/kernels/registry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 4;

#include "blas/kernels/pack_micro.inl"

#if defined(__x86_64__) || defined(__i386__)
/// micro_edge's k-steps on xmm pairs: acc[j][h] holds rows 2h..2h+1 of
/// column j.  Only explicit 128-bit intrinsics run under the FMA target
/// attribute; it writes the accumulators to `tile` and the caller lands them.
__attribute__((target("fma"))) void fma_tile(idx kc, const double* ap,
                                             const double* bp, double* tile) {
  __m128d acc[NR][MR / 2];
  for (idx j = 0; j < NR; ++j)
    for (idx h = 0; h < MR / 2; ++h) acc[j][h] = _mm_setzero_pd();
  for (idx p = 0; p < kc; ++p) {
    const double* a = ap + p * MR;
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const __m128d bj = _mm_set1_pd(b[j]);
      for (idx h = 0; h < MR / 2; ++h)
        acc[j][h] = _mm_fmadd_pd(_mm_loadu_pd(a + 2 * h), bj, acc[j][h]);
    }
  }
  for (idx j = 0; j < NR; ++j)
    for (idx h = 0; h < MR / 2; ++h)
      _mm_store_pd(tile + j * MR + 2 * h, acc[j][h]);
}

/// micro_edge with the fused steps in fma_tile; same separate landing.
void micro_fma(idx kc, double alpha, const double* ap, const double* bp,
               double* c, idx ldc, idx mr, idx nr) {
  alignas(16) double tile[MR * NR];
  fma_tile(kc, ap, bp, tile);
  land_tile(alpha, tile, c, ldc, mr, nr);
}
#endif

microkernel_fn pick_micro() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("fma")) return micro_fma;
#endif
  return micro_edge;
}

}  // namespace

const Kernel* kernel_scalar() {
  static const microkernel_fn micro = pick_micro();
  static const Kernel k{"scalar", MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans,
                        pack_b_trans};
  return &k;
}

}  // namespace tseig::blas::kernels
