// Fixture: in a kernel tier the explicit fused k-step is the contract, so
// the intrinsic and std::fma calls stay quiet; a contraction pragma and a
// fast-math attribute still fire, because they would let the compiler fuse
// or reorder the landing on C differently in each tier.
#include <cmath>
#include <immintrin.h>

#pragma STDC FP_CONTRACT ON

__m512d ok_step(__m512d a, __m512d b, __m512d acc) {
  return _mm512_fmadd_pd(a, b, acc);  // no finding: the fused k-step
}

double ok_scalar_step(double a, double b, double acc) {
  return std::fma(a, b, acc);  // no finding
}

__attribute__((optimize("fast-math"))) double bad_land(double c, double x) {
  return c + 2.0 * x;  // the attribute above is the finding
}
