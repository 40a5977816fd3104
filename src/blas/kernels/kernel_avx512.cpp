// AVX-512 microkernel tier: 16x8 C tile in sixteen zmm accumulators.
//
// Compiled with per-file -mavx512f; the factory compiles to a nullptr stub
// when the flag was unavailable.  The wide 16x8 tile amortizes the packed-A
// loads across eight broadcast columns; 16 accumulators + 2 A streams +
// broadcast + alpha stay well inside the 32-register zmm file.  Each
// k-step is one vfmadd per accumulator, the fused step every tier takes
// (registry.hpp contract); the landing on C multiplies and adds separately.
#include <algorithm>
#include <cmath>

#include "blas/kernels/registry.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 16;
constexpr idx NR = 8;

#include "blas/kernels/pack_micro.inl"

void micro_full(idx kc, double alpha, const double* ap, const double* bp,
                double* c, idx ldc) {
  __m512d acc0[NR], acc1[NR];
  for (idx j = 0; j < NR; ++j) {
    acc0[j] = _mm512_setzero_pd();
    acc1[j] = _mm512_setzero_pd();
  }
  for (idx p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(ap + p * MR);
    const __m512d a1 = _mm512_loadu_pd(ap + p * MR + 8);
    const double* b = bp + p * NR;
    for (idx j = 0; j < NR; ++j) {
      const __m512d bj = _mm512_set1_pd(b[j]);
      acc0[j] = _mm512_fmadd_pd(a0, bj, acc0[j]);
      acc1[j] = _mm512_fmadd_pd(a1, bj, acc1[j]);
    }
  }
  const __m512d va = _mm512_set1_pd(alpha);
  for (idx j = 0; j < NR; ++j) {
    double* cj = c + j * ldc;
    _mm512_storeu_pd(
        cj, _mm512_add_pd(_mm512_loadu_pd(cj), _mm512_mul_pd(va, acc0[j])));
    _mm512_storeu_pd(cj + 8, _mm512_add_pd(_mm512_loadu_pd(cj + 8),
                                           _mm512_mul_pd(va, acc1[j])));
  }
}

constexpr microkernel_fn micro = micro_simd<micro_full>;

}  // namespace

const Kernel* kernel_avx512() {
  static const Kernel k{"avx512",       MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans,
                        pack_b_trans};
  return &k;
}

}  // namespace tseig::blas::kernels

#else  // !__AVX512F__

namespace tseig::blas::kernels {
const Kernel* kernel_avx512() { return nullptr; }
}  // namespace tseig::blas::kernels

#endif
