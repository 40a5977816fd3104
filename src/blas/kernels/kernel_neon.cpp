// NEON (AArch64) microkernel tier: 8x4 C tile in sixteen 128-bit
// accumulators.
//
// NEON is baseline on AArch64, so this TU needs no per-file flag; it builds
// with -ffp-contract=off like the whole library.  Each k-step is one vfmaq
// per accumulator, the fused step every tier takes (registry.hpp contract); the
// landing on C multiplies and adds separately.  On non-ARM targets the
// factory compiles to a nullptr stub.
#include <algorithm>
#include <cmath>

#include "blas/kernels/registry.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 4;

#include "blas/kernels/pack_micro.inl"

void micro_full(idx kc, double alpha, const double* ap, const double* bp,
                double* c, idx ldc) {
  // acc[j][h]: column j of the tile, rows 2h..2h+1.
  float64x2_t acc[NR][4];
  for (idx j = 0; j < NR; ++j)
    for (int h = 0; h < 4; ++h) acc[j][h] = vdupq_n_f64(0.0);
  for (idx p = 0; p < kc; ++p) {
    const double* a = ap + p * MR;
    float64x2_t av[4];
    for (int h = 0; h < 4; ++h) av[h] = vld1q_f64(a + 2 * h);
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const float64x2_t bj = vdupq_n_f64(b[j]);
      for (int h = 0; h < 4; ++h)
        acc[j][h] = vfmaq_f64(acc[j][h], av[h], bj);
    }
  }
  const float64x2_t va = vdupq_n_f64(alpha);
  for (idx j = 0; j < NR; ++j) {
    double* cj = c + j * ldc;
    for (int h = 0; h < 4; ++h) {
      const float64x2_t cv = vld1q_f64(cj + 2 * h);
      vst1q_f64(cj + 2 * h, vaddq_f64(cv, vmulq_f64(va, acc[j][h])));
    }
  }
}

void micro(idx kc, double alpha, const double* ap, const double* bp, double* c,
           idx ldc, idx mr, idx nr) {
  if (mr == MR && nr == NR) {
    micro_full(kc, alpha, ap, bp, c, ldc);
    return;
  }
  micro_edge(kc, alpha, ap, bp, c, ldc, mr, nr);
}

}  // namespace

const Kernel* kernel_neon() {
  static const Kernel k{"neon",         MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans,
                        pack_b_trans};
  return &k;
}

}  // namespace tseig::blas::kernels

#else  // !AArch64 NEON

namespace tseig::blas::kernels {
const Kernel* kernel_neon() { return nullptr; }
}  // namespace tseig::blas::kernels

#endif
