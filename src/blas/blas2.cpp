#include "blas/blas2.hpp"

#include "common/flops.hpp"

namespace tseig::blas {
namespace {

/// y <- beta y, storing zeros for beta == 0 as reference BLAS does: y is
/// often reused scratch, and 0 * NaN left by a failed solve would poison
/// every later one.
void scale_y(idx len, double beta, double* y, idx incy) {
  if (beta == 1.0) return;
  for (idx i = 0; i < len; ++i)
    y[i * incy] = beta == 0.0 ? 0.0 : beta * y[i * incy];
}

}  // namespace

void gemv(op trans, idx m, idx n, double alpha, const double* a, idx lda,
          const double* x, idx incx, double beta, double* y, idx incy) {
  const idx ylen = trans == op::none ? m : n;
  scale_y(ylen, beta, y, incy);
  if (alpha == 0.0 || m == 0 || n == 0) return;
  count_flops(flop_count::gemv(m, n));
  count_bytes(byte_count::gemv(m, n));
  if (trans == op::none) {
    if (incy == 1) {
      // y += alpha * A x, four columns per pass over y: one y traffic per
      // four A streams, which keeps the kernel at memory bandwidth.
      double* __restrict__ yr = y;
      idx j = 0;
      for (; j + 4 <= n; j += 4) {
        const double t0 = alpha * x[j * incx];
        const double t1 = alpha * x[(j + 1) * incx];
        const double t2 = alpha * x[(j + 2) * incx];
        const double t3 = alpha * x[(j + 3) * incx];
        const double* __restrict__ c0 = a + j * lda;
        const double* __restrict__ c1 = a + (j + 1) * lda;
        const double* __restrict__ c2 = a + (j + 2) * lda;
        const double* __restrict__ c3 = a + (j + 3) * lda;
        for (idx i = 0; i < m; ++i)
          yr[i] += t0 * c0[i] + t1 * c1[i] + t2 * c2[i] + t3 * c3[i];
      }
      for (; j < n; ++j) {
        const double t = alpha * x[j * incx];
        const double* __restrict__ col = a + j * lda;
        for (idx i = 0; i < m; ++i) yr[i] += t * col[i];
      }
      return;
    }
    for (idx j = 0; j < n; ++j) {
      const double t = alpha * x[j * incx];
      if (t == 0.0) continue;
      const double* col = a + j * lda;
      for (idx i = 0; i < m; ++i) y[i * incy] += t * col[i];
    }
  } else {
    // y += alpha * A^T x: dot products down columns (stride-1 over A),
    // four columns at a time so four independent streams hide latency.
    if (incx == 1) {
      const double* __restrict__ xr = x;
      idx j = 0;
      for (; j + 4 <= n; j += 4) {
        const double* __restrict__ c0 = a + j * lda;
        const double* __restrict__ c1 = a + (j + 1) * lda;
        const double* __restrict__ c2 = a + (j + 2) * lda;
        const double* __restrict__ c3 = a + (j + 3) * lda;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (idx i = 0; i < m; ++i) {
          const double xi = xr[i];
          a0 += c0[i] * xi;
          a1 += c1[i] * xi;
          a2 += c2[i] * xi;
          a3 += c3[i] * xi;
        }
        y[j * incy] += alpha * a0;
        y[(j + 1) * incy] += alpha * a1;
        y[(j + 2) * incy] += alpha * a2;
        y[(j + 3) * incy] += alpha * a3;
      }
      for (; j < n; ++j) {
        const double* __restrict__ col = a + j * lda;
        double acc = 0.0;
        for (idx i = 0; i < m; ++i) acc += col[i] * xr[i];
        y[j * incy] += alpha * acc;
      }
      return;
    }
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      double acc = 0.0;
      for (idx i = 0; i < m; ++i) acc += col[i] * x[i * incx];
      y[j * incy] += alpha * acc;
    }
  }
}

void symv(uplo ul, idx n, double alpha, const double* a, idx lda,
          const double* x, idx incx, double beta, double* y, idx incy) {
  scale_y(n, beta, y, incy);
  if (alpha == 0.0 || n == 0) return;
  count_flops(flop_count::symv(n));
  count_bytes(byte_count::symv(n));
  if (ul == uplo::lower) {
    // One pass per column: the strictly-lower part of column j contributes to
    // y below j (as A) and to y[j] (as A^T), touching each stored element
    // exactly once -- the same access pattern LAPACK's DSYMV uses.
    if (incx == 1 && incy == 1) {
      // Unit-stride fast path, column-blocked: NB columns share one pass
      // over y, so each stored element is loaded once and feeds both the
      // axpy (A x) and the dot (A^T x) contribution.  This is what makes
      // SYMV run at roughly twice the GEMV rate when memory-bound -- the
      // effect behind the paper's Table 2 (TRD's 4x SYMV beats BRD's GEMVs).
      constexpr idx NB = 8;
      const double* __restrict__ xr = x;
      double* __restrict__ yr = y;
      for (idx j0 = 0; j0 < n; j0 += NB) {
        const idx jb = std::min(NB, n - j0);
        double acc[NB] = {};
        double xs[NB] = {};
        for (idx j = 0; j < jb; ++j) xs[j] = alpha * xr[j0 + j];
        // Triangular head of the block.
        for (idx j = 0; j < jb; ++j) {
          const double* __restrict__ col = a + (j0 + j) * lda;
          yr[j0 + j] += xs[j] * col[j0 + j];
          for (idx i = j0 + j + 1; i < j0 + jb; ++i) {
            yr[i] += xs[j] * col[i];
            acc[j] += col[i] * xr[i];
          }
        }
        // Rectangular body: one fused pass for all jb columns.
        if (jb == NB) {
          for (idx i = j0 + NB; i < n; ++i) {
            const double xi = xr[i];
            double yi = yr[i];
            for (idx j = 0; j < NB; ++j) {
              const double v = a[(j0 + j) * lda + i];
              yi += xs[j] * v;
              acc[j] += v * xi;
            }
            yr[i] = yi;
          }
        } else {
          for (idx j = 0; j < jb; ++j) {
            const double* __restrict__ col = a + (j0 + j) * lda;
            for (idx i = j0 + jb; i < n; ++i) {
              yr[i] += xs[j] * col[i];
              acc[j] += col[i] * xr[i];
            }
          }
        }
        for (idx j = 0; j < jb; ++j) yr[j0 + j] += alpha * acc[j];
      }
      return;
    }
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      const double xj = alpha * x[j * incx];
      double acc = 0.0;
      y[j * incy] += xj * col[j];
      for (idx i = j + 1; i < n; ++i) {
        y[i * incy] += xj * col[i];
        acc += col[i] * x[i * incx];
      }
      y[j * incy] += alpha * acc;
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      const double xj = alpha * x[j * incx];
      double acc = 0.0;
      for (idx i = 0; i < j; ++i) {
        y[i * incy] += xj * col[i];
        acc += col[i] * x[i * incx];
      }
      y[j * incy] += xj * col[j] + alpha * acc;
    }
  }
}

void ger(idx m, idx n, double alpha, const double* x, idx incx,
         const double* y, idx incy, double* a, idx lda) {
  if (alpha == 0.0) return;
  count_flops(flop_count::ger(m, n));
  count_bytes(byte_count::ger(m, n));
  for (idx j = 0; j < n; ++j) {
    const double t = alpha * y[j * incy];
    if (t == 0.0) continue;
    double* col = a + j * lda;
    if (incx == 1) {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i];
    } else {
      for (idx i = 0; i < m; ++i) col[i] += t * x[i * incx];
    }
  }
}

void syr2(uplo ul, idx n, double alpha, const double* x, idx incx,
          const double* y, idx incy, double* a, idx lda) {
  if (alpha == 0.0) return;
  count_flops(flop_count::syr2(n));
  count_bytes(byte_count::syr2(n));
  if (ul == uplo::lower) {
    for (idx j = 0; j < n; ++j) {
      const double tx = alpha * x[j * incx];
      const double ty = alpha * y[j * incy];
      double* col = a + j * lda;
      for (idx i = j; i < n; ++i) {
        col[i] += x[i * incx] * ty + y[i * incy] * tx;
      }
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const double tx = alpha * x[j * incx];
      const double ty = alpha * y[j * incy];
      double* col = a + j * lda;
      for (idx i = 0; i <= j; ++i) {
        col[i] += x[i * incx] * ty + y[i * incy] * tx;
      }
    }
  }
}

void syr(uplo ul, idx n, double alpha, const double* x, idx incx, double* a,
         idx lda) {
  if (alpha == 0.0) return;
  count_flops(n * n);
  count_bytes(byte_count::kElem * (n * (n + 1) + n));
  if (ul == uplo::lower) {
    for (idx j = 0; j < n; ++j) {
      const double t = alpha * x[j * incx];
      double* col = a + j * lda;
      for (idx i = j; i < n; ++i) col[i] += x[i * incx] * t;
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const double t = alpha * x[j * incx];
      double* col = a + j * lda;
      for (idx i = 0; i <= j; ++i) col[i] += x[i * incx] * t;
    }
  }
}

void trmv(uplo ul, op trans, diag d, idx n, const double* a, idx lda,
          double* x, idx incx) {
  count_flops(n * n);
  count_bytes(byte_count::kElem * (n * (n + 1) / 2 + 2 * n));
  const bool unit = d == diag::unit;
  if (trans == op::none) {
    if (ul == uplo::upper) {
      // x_i depends on x_{i..n-1}; walk forward so reads are unclobbered.
      for (idx i = 0; i < n; ++i) {
        double acc = unit ? x[i * incx] : a[i + i * lda] * x[i * incx];
        for (idx j = i + 1; j < n; ++j) acc += a[i + j * lda] * x[j * incx];
        x[i * incx] = acc;
      }
    } else {
      for (idx i = n - 1; i >= 0; --i) {
        double acc = unit ? x[i * incx] : a[i + i * lda] * x[i * incx];
        for (idx j = 0; j < i; ++j) acc += a[i + j * lda] * x[j * incx];
        x[i * incx] = acc;
      }
    }
  } else {
    if (ul == uplo::upper) {
      for (idx i = n - 1; i >= 0; --i) {
        double acc = unit ? x[i * incx] : a[i + i * lda] * x[i * incx];
        for (idx j = 0; j < i; ++j) acc += a[j + i * lda] * x[j * incx];
        x[i * incx] = acc;
      }
    } else {
      for (idx i = 0; i < n; ++i) {
        double acc = unit ? x[i * incx] : a[i + i * lda] * x[i * incx];
        for (idx j = i + 1; j < n; ++j) acc += a[j + i * lda] * x[j * incx];
        x[i * incx] = acc;
      }
    }
  }
}

void trsv(uplo ul, op trans, diag d, idx n, const double* a, idx lda,
          double* x, idx incx) {
  count_flops(n * n);
  count_bytes(byte_count::kElem * (n * (n + 1) / 2 + 2 * n));
  const bool unit = d == diag::unit;
  if (trans == op::none) {
    if (ul == uplo::lower) {
      for (idx i = 0; i < n; ++i) {
        double acc = x[i * incx];
        for (idx j = 0; j < i; ++j) acc -= a[i + j * lda] * x[j * incx];
        x[i * incx] = unit ? acc : acc / a[i + i * lda];
      }
    } else {
      for (idx i = n - 1; i >= 0; --i) {
        double acc = x[i * incx];
        for (idx j = i + 1; j < n; ++j) acc -= a[i + j * lda] * x[j * incx];
        x[i * incx] = unit ? acc : acc / a[i + i * lda];
      }
    }
  } else {
    if (ul == uplo::lower) {
      for (idx i = n - 1; i >= 0; --i) {
        double acc = x[i * incx];
        for (idx j = i + 1; j < n; ++j) acc -= a[j + i * lda] * x[j * incx];
        x[i * incx] = unit ? acc : acc / a[i + i * lda];
      }
    } else {
      for (idx i = 0; i < n; ++i) {
        double acc = x[i * incx];
        for (idx j = 0; j < i; ++j) acc -= a[j + i * lda] * x[j * incx];
        x[i * incx] = unit ? acc : acc / a[i + i * lda];
      }
    }
  }
}

}  // namespace tseig::blas
