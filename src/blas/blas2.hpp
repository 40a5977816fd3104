// Level-2 BLAS kernels (matrix-vector operations).
//
// These are the memory-bound kernels whose limited rate (the paper's `beta`)
// motivates the two-stage algorithm: one-stage tridiagonalization performs
// 4 SYMV-equivalents per column (Table 2) and is bound by them.
#pragma once

#include "common/types.hpp"

namespace tseig::blas {

/// y <- alpha op(A) x + beta y where A is m-by-n, ld >= m.  For op::trans
/// each column's dot product is summed in the lane order of
/// common/lanes.hpp, at every stride.
void gemv(op trans, idx m, idx n, double alpha, const double* a, idx lda,
          const double* x, idx incx, double beta, double* y, idx incy);

/// y <- alpha A x + beta y for symmetric A (n-by-n) referencing only the
/// `ul` triangle.  y[i] takes the A x terms of columns 0..i in order, then
/// alpha times the A^T x sum of column i in the lane order of
/// common/lanes.hpp; each stored element is read once.
void symv(uplo ul, idx n, double alpha, const double* a, idx lda,
          const double* x, idx incx, double beta, double* y, idx incy);

/// A <- alpha x y^T + A, A m-by-n.
void ger(idx m, idx n, double alpha, const double* x, idx incx,
         const double* y, idx incy, double* a, idx lda);

/// A <- alpha (x y^T + y x^T) + A for symmetric A updating only triangle ul.
void syr2(uplo ul, idx n, double alpha, const double* x, idx incx,
          const double* y, idx incy, double* a, idx lda);

/// A <- alpha x x^T + A for symmetric A updating only triangle ul.
void syr(uplo ul, idx n, double alpha, const double* x, idx incx, double* a,
         idx lda);

/// x <- op(A) x for triangular A (n-by-n), triangle ul, unit flag d.
void trmv(uplo ul, op trans, diag d, idx n, const double* a, idx lda,
          double* x, idx incx);

/// Solves op(A) x = b in place for triangular A.
void trsv(uplo ul, op trans, diag d, idx n, const double* a, idx lda,
          double* x, idx incx);

}  // namespace tseig::blas
