// Fixture: tseig-kernel-fp-contract must fire on the fma() call and the
// contraction/reassociation pragmas -- this file sits (virtually) at a src/
// path outside src/blas/kernels/, where every product must round before it
// is added.
#include <cmath>

#pragma STDC FP_CONTRACT ON

double bad_fma(double a, double b, double c) {
  return std::fma(a, b, c);  // finding: fused rounding step
}

double bad_reassoc(const double* x, int n) {
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (int i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double ok_mul_add(double a, double b, double c) {
  // Separate multiply and add round twice; this is the contract. No finding.
  return a * b + c;
}

double suppressed(double a, double b, double c) {
  return std::fma(a, b, c);  // NOLINT
}
