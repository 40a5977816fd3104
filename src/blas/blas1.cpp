#include "blas/blas1.hpp"

#include <cmath>

#include "common/flops.hpp"
#include "common/lanes.hpp"

namespace tseig::blas {

double dot(idx n, const double* x, idx incx, const double* y, idx incy) {
  count_flops(2 * n);
  count_bytes(byte_count::kElem * 2 * n);
  if (incx == 1 && incy == 1) return lane_dot(n, x, y);
  double s[kLanes] = {};
  for (idx i = 0; i < n; ++i) s[i % kLanes] += x[i * incx] * y[i * incy];
  return lane_total(s);
}

double nrm2(idx n, const double* x, idx incx) {
  count_flops(2 * n);
  if (n <= 0) return 0.0;
  if (n == 1) return std::fabs(x[0]);
  // LAPACK-style scaled sum of squares: ||x|| = scale * sqrt(ssq).
  double scale = 0.0;
  double ssq = 1.0;
  for (idx i = 0; i < n; ++i) {
    const double ax = std::fabs(x[i * incx]);
    if (ax != 0.0) {
      if (scale < ax) {
        const double r = scale / ax;
        ssq = 1.0 + ssq * r * r;
        scale = ax;
      } else {
        const double r = ax / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

double asum(idx n, const double* x, idx incx) {
  count_flops(n);
  double acc = 0.0;
  for (idx i = 0; i < n; ++i) acc += std::fabs(x[i * incx]);
  return acc;
}

void axpy(idx n, double alpha, const double* x, idx incx, double* y, idx incy) {
  if (alpha == 0.0) return;
  count_flops(2 * n);
  count_bytes(byte_count::kElem * 3 * n);
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] += alpha * x[i * incx];
  }
}

void scal(idx n, double alpha, double* x, idx incx) {
  count_flops(n);
  count_bytes(byte_count::kElem * 2 * n);
  if (incx == 1) {
    for (idx i = 0; i < n; ++i) x[i] *= alpha;
  } else {
    for (idx i = 0; i < n; ++i) x[i * incx] *= alpha;
  }
}

void copy(idx n, const double* x, idx incx, double* y, idx incy) {
  count_bytes(byte_count::kElem * 2 * n);
  if (incx == 1 && incy == 1) {
    for (idx i = 0; i < n; ++i) y[i] = x[i];
  } else {
    for (idx i = 0; i < n; ++i) y[i * incy] = x[i * incx];
  }
}

void swap(idx n, double* x, idx incx, double* y, idx incy) {
  for (idx i = 0; i < n; ++i) {
    const double t = x[i * incx];
    x[i * incx] = y[i * incy];
    y[i * incy] = t;
  }
}

idx iamax(idx n, const double* x, idx incx) {
  if (n <= 0) return -1;
  idx best = 0;
  double best_abs = std::fabs(x[0]);
  for (idx i = 1; i < n; ++i) {
    const double ax = std::fabs(x[i * incx]);
    if (ax > best_abs) {
      best_abs = ax;
      best = i;
    }
  }
  return best;
}

void rot(idx n, double* x, idx incx, double* y, idx incy, double c, double s) {
  count_flops(6 * n);
  count_bytes(byte_count::kElem * 4 * n);
  for (idx i = 0; i < n; ++i) {
    const double xi = x[i * incx];
    const double yi = y[i * incy];
    x[i * incx] = c * xi + s * yi;
    y[i * incy] = c * yi - s * xi;
  }
}

}  // namespace tseig::blas
