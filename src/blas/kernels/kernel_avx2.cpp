// AVX2 microkernel tier: 8x4 C tile held in eight ymm accumulators.
//
// This TU is compiled with per-file -mavx2 -mfma (and -mno-avx512f so a
// -march=native build cannot widen it — the tier must be exactly what its
// name claims).  __AVX2__ and __FMA__ are therefore defined here exactly
// when the compiler could honour the flags; otherwise the factory returns
// nullptr and the registry skips the tier, as it does on a host without
// FMA.  Each k-step is one vfmadd per accumulator, the fused step every
// tier takes (registry.hpp contract).
#include <algorithm>
#include <cmath>

#include "blas/kernels/registry.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 4;

#include "blas/kernels/pack_micro.inl"

/// Full 8x4 tile: per column j, two 4-wide accumulators over the packed
/// panels.  8 accumulator registers + 2 A streams + broadcast leave headroom
/// in the 16-register ymm file.
void micro_full(idx kc, double alpha, const double* ap, const double* bp,
                double* c, idx ldc) {
  __m256d acc0[NR], acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = _mm256_setzero_pd();
    acc1[j] = _mm256_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(ap + p * MR);
    const __m256d a1 = _mm256_loadu_pd(ap + p * MR + 4);
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const __m256d bj = _mm256_set1_pd(b[j]);
      acc0[j] = _mm256_fmadd_pd(a0, bj, acc0[j]);
      acc1[j] = _mm256_fmadd_pd(a1, bj, acc1[j]);
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  for (idx j = 0; j < NR; ++j) {
    double* cj = c + j * ldc;
    _mm256_storeu_pd(
        cj, _mm256_add_pd(_mm256_loadu_pd(cj), _mm256_mul_pd(va, acc0[j])));
    _mm256_storeu_pd(cj + 4, _mm256_add_pd(_mm256_loadu_pd(cj + 4),
                                           _mm256_mul_pd(va, acc1[j])));
  }
}

constexpr microkernel_fn micro = micro_simd<micro_full>;

}  // namespace

const Kernel* kernel_avx2() {
  static const Kernel k{"avx2",         MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans,
                        pack_b_trans};
  return &k;
}

}  // namespace tseig::blas::kernels

#else  // !(__AVX2__ && __FMA__)

namespace tseig::blas::kernels {
const Kernel* kernel_avx2() { return nullptr; }
}  // namespace tseig::blas::kernels

#endif
