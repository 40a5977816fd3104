// Level-1 BLAS kernels (vector-vector operations).
//
// All kernels follow the reference BLAS semantics for double precision with
// explicit strides, so higher-level code written against LAPACK conventions
// ports directly.  Strides must be positive (the library never needs the
// negative-increment forms).
#pragma once

#include "common/types.hpp"

namespace tseig::blas {

/// dot <- x^T y, summed in the fixed lane order of common/lanes.hpp at
/// every stride: the result does not depend on alignment or build.
double dot(idx n, const double* x, idx incx, const double* y, idx incy);

/// Euclidean norm ||x||_2, computed with scaling to avoid overflow/underflow.
double nrm2(idx n, const double* x, idx incx);

/// Sum of absolute values.
double asum(idx n, const double* x, idx incx);

/// y <- alpha x + y.
void axpy(idx n, double alpha, const double* x, idx incx, double* y, idx incy);

/// x <- alpha x.
void scal(idx n, double alpha, double* x, idx incx);

/// y <- x.
void copy(idx n, const double* x, idx incx, double* y, idx incy);

/// x <-> y.
void swap(idx n, double* x, idx incx, double* y, idx incy);

/// Index of the element with the largest absolute value (0-based); -1 if n<=0.
idx iamax(idx n, const double* x, idx incx);

/// Plane rotation: applies [c s; -s c] to the vector pair (x, y).
void rot(idx n, double* x, idx incx, double* y, idx incy, double c, double s);

}  // namespace tseig::blas
