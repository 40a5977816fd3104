#include "blas/blas2.hpp"

#include <algorithm>

#include "common/flops.hpp"
#include "common/lanes.hpp"

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
    // y += alpha * A^T x: one dot product per column in lane order
    // (common/lanes.hpp), kLaneGroup columns at a time so that each x chunk
    // feeds that many independent accumulators.
    if (incx == 1) {
      constexpr idx G = kLaneGroup;
      idx j = 0;
      for (; j + G <= n; j += G) {
        const double* c = a + j * lda;
        LaneVec acc[G] = {};
        idx i = 0;
        for (; i + kLanes <= m; i += kLanes) {
          LaneVec xv;
          lane_load(xv, x + i);
          for (idx g = 0; g < G; ++g) {
            LaneVec cv;
            lane_load(cv, c + g * lda + i);
            lane_madd(acc[g], cv, xv);
          }
        }
        for (idx g = 0; g < G; ++g) {
          double sum[kLanes];
          lane_store(sum, acc[g]);
          for (idx k = i; k < m; ++k) sum[k - i] += c[g * lda + k] * x[k];
          y[(j + g) * incy] += alpha * lane_total(sum);
        }
      }
      for (; j < n; ++j) y[j * incy] += alpha * lane_dot(m, a + j * lda, x);
      return;
    }
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      double s[kLanes] = {};
      for (idx i = 0; i < m; ++i) s[i % kLanes] += col[i] * x[i * incx];
      y[j * incy] += alpha * lane_total(s);
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
    // exactly once -- the same access pattern LAPACK's DSYMV uses.  Column
    // j's A^T x sum runs over rows j+1 .. n-1 in lane order
    // (common/lanes.hpp), row i in lane i % kLanes.
    if (incx == 1 && incy == 1) {
      // Unit-stride fast path, column-blocked: NB columns share one pass
      // over y, so each stored element is loaded once and feeds both the
      // axpy (A x) and the dot (A^T x) contribution.  This is what makes
      // SYMV run at roughly twice the GEMV rate when memory-bound -- the
      // effect behind the paper's Table 2 (TRD's 4x SYMV beats BRD's GEMVs).
      constexpr idx NB = kLanes;
      for (idx j0 = 0; j0 < n; j0 += NB) {
        const idx jb = std::min(NB, n - j0);
        double xs[NB] = {};
        for (idx j = 0; j < jb; ++j) xs[j] = alpha * x[j0 + j];
        // acc[j][i % kLanes] sums column j0+j's terms from row i: its
        // lanes rotated by a fixed amount, which lane_total does not see.
        // A row chunk starting at a multiple of kLanes is then one vector
        // for every column of the block.
        double acc[NB][kLanes] = {};
        // Triangular head of the block.
        for (idx j = 0; j < jb; ++j) {
          const double* col = a + (j0 + j) * lda;
          y[j0 + j] += xs[j] * col[j0 + j];
          for (idx i = j0 + j + 1; i < j0 + jb; ++i) {
            y[i] += xs[j] * col[i];
            acc[j][i - j0] += col[i] * x[i];
          }
        }
        // Rectangular body: whole row chunks in fused passes over
        // kLaneGroup columns each, in column order, so every y[i] still
        // takes its terms in column order (a partial block ends at row n
        // and has no body).
        if (jb == NB) {
          const idx chunks_end = n - (n - j0 - NB) % kLanes;
          for (idx g0 = 0; g0 < NB; g0 += kLaneGroup) {
            LaneVec av[kLaneGroup];
            for (idx g = 0; g < kLaneGroup; ++g) lane_load(av[g], acc[g0 + g]);
            for (idx i = j0 + NB; i < chunks_end; i += kLanes) {
              LaneVec xv, yv;
              lane_load(xv, x + i);
              lane_load(yv, y + i);
              for (idx g = 0; g < kLaneGroup; ++g) {
                LaneVec cv;
                lane_load(cv, a + (j0 + g0 + g) * lda + i);
                lane_madd(yv, xs[g0 + g], cv);
                lane_madd(av[g], cv, xv);
              }
              lane_store(y + i, yv);
            }
            for (idx g = 0; g < kLaneGroup; ++g) lane_store(acc[g0 + g], av[g]);
          }
          for (idx i = chunks_end; i < n; ++i) {
            const double xi = x[i];
            double yi = y[i];
            for (idx j = 0; j < NB; ++j) {
              const double v = a[(j0 + j) * lda + i];
              yi += xs[j] * v;
              acc[j][i % kLanes] += v * xi;
            }
            y[i] = yi;
          }
        }
        for (idx j = 0; j < jb; ++j) y[j0 + j] += alpha * lane_total(acc[j]);
      }
      return;
    }
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      const double xj = alpha * x[j * incx];
      double sum[kLanes] = {};
      y[j * incy] += xj * col[j];
      for (idx i = j + 1; i < n; ++i) {
        y[i * incy] += xj * col[i];
        sum[i % kLanes] += col[i] * x[i * incx];
      }
      y[j * incy] += alpha * lane_total(sum);
    }
  } else {
    for (idx j = 0; j < n; ++j) {
      const double* col = a + j * lda;
      const double xj = alpha * x[j * incx];
      double sum[kLanes] = {};
      for (idx i = 0; i < j; ++i) {
        y[i * incy] += xj * col[i];
        sum[i % kLanes] += col[i] * x[i * incx];
      }
      y[j * incy] += xj * col[j] + alpha * lane_total(sum);
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
