#include "lapack/householder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "common/parallel.hpp"
#include "lapack/aux.hpp"
#include "obs/telemetry.hpp"

namespace tseig::lapack {
namespace {

/// Per-thread scratch of larfb and apply_block_reflectors, one buffer per
/// use: block reflectors are applied back-to-back on the same threads, so
/// a thread_local buffer keeps the update phase free of allocations.
enum class scratch_use { driver_w, triangle, product };

double* scratch(scratch_use use, idx count) {
  thread_local std::array<std::vector<double>, 3> bufs;
  std::vector<double>& buf = bufs[static_cast<size_t>(use)];
  if (static_cast<idx>(buf.size()) < count)
    buf.resize(static_cast<size_t>(count));
  return buf.data();
}

/// Widest column block of apply_block_reflectors, and the widest slice
/// (columns on the left, rows on the right) larfb works on.
constexpr idx kMaxColBlock = 256;

}  // namespace

double larfg(idx n, double& alpha, double* x, idx incx) {
  if (n <= 1) return 0.0;
  double xnorm = blas::nrm2(n - 1, x, incx);
  if (xnorm == 0.0) return 0.0;

  double beta = -std::copysign(lapy2(alpha, xnorm), alpha);
  const double safmin =
      std::numeric_limits<double>::min() /
      std::numeric_limits<double>::epsilon();
  int rescaled = 0;
  double scale = 1.0;
  // Guard against underflow in 1/(alpha - beta) exactly as xLARFG does.
  while (std::fabs(beta) < safmin && rescaled < 20) {
    const double rsafmn = 1.0 / safmin;
    blas::scal(n - 1, rsafmn, x, incx);
    beta *= rsafmn;
    alpha *= rsafmn;
    scale *= safmin;
    ++rescaled;
    xnorm = blas::nrm2(n - 1, x, incx);
    beta = -std::copysign(lapy2(alpha, xnorm), alpha);
  }
  const double tau = (beta - alpha) / beta;
  blas::scal(n - 1, 1.0 / (alpha - beta), x, incx);
  alpha = beta * scale;
  return tau;
}

void larf(side sd, idx m, idx n, const double* v, idx incv, double tau,
          double* c, idx ldc, double* work) {
  if (tau == 0.0) return;
  if (sd == side::left) {
    // work = C^T v ; C -= tau v work^T
    blas::gemv(op::trans, m, n, 1.0, c, ldc, v, incv, 0.0, work, 1);
    blas::ger(m, n, -tau, v, incv, work, 1, c, ldc);
  } else {
    // work = C v ; C -= tau work v^T
    blas::gemv(op::none, m, n, 1.0, c, ldc, v, incv, 0.0, work, 1);
    blas::ger(m, n, -tau, work, 1, v, incv, c, ldc);
  }
}

void larft(idx m, idx k, const double* v, idx ldv, const double* tau,
           double* t, idx ldt) {
  for (idx i = 0; i < k; ++i) {
    if (tau[i] == 0.0) {
      for (idx j = 0; j <= i; ++j) t[j + i * ldt] = 0.0;
      continue;
    }
    // t(0:i, i) = -tau_i * V(:, 0:i)^T V(:, i); the explicit-diagonal storage
    // makes this a single GEMV over the full panel height.
    if (i > 0) {
      blas::gemv(op::trans, m, i, -tau[i], v, ldv, v + i * ldv, 1, 0.0,
                 t + i * ldt, 1);
      blas::trmv(uplo::upper, op::none, diag::non_unit, i, t, ldt,
                 t + i * ldt, 1);
    }
    t[i + i * ldt] = tau[i];
  }
}

void larfb(side sd, op trans, idx m, idx n, idx k, const double* v, idx ldv,
           const double* t, idx ldt, double* c, idx ldc, double* work) {
  if (m == 0 || n == 0 || k == 0) return;
  // T's upper triangle with zeros below: callers may leave stale values
  // under the diagonal (LAPACK's contract), and the GEMM reads all of T.
  double* tu = scratch(scratch_use::triangle, k * k);
  for (idx j = 0; j < k; ++j) {
    for (idx i = 0; i <= j; ++i) tu[i + j * k] = t[i + j * ldt];
    std::fill(tu + j * k + j + 1, tu + (j + 1) * k, 0.0);
  }
  // C is taken in slices of at most kMaxColBlock columns (left) or rows
  // (right), so W2 is at most k x kMaxColBlock whatever the call's width.
  if (sd == side::left) {
    // W (k-by-nc) = V^T C ; W2 = op(T) W ; C -= V W2.
    double* w2 = scratch(scratch_use::product, k * std::min(n, kMaxColBlock));
    for (idx c0 = 0; c0 < n; c0 += kMaxColBlock) {
      const idx nc = std::min(kMaxColBlock, n - c0);
      double* cs = c + c0 * ldc;
      blas::gemm(op::trans, op::none, k, nc, m, 1.0, v, ldv, cs, ldc, 0.0,
                 work, k);
      blas::gemm(trans, op::none, k, nc, k, 1.0, tu, k, work, k, 0.0, w2, k);
      blas::gemm(op::none, op::none, m, nc, k, -1.0, v, ldv, w2, k, 1.0, cs,
                 ldc);
    }
  } else {
    // W (mc-by-k) = C V ; W2 = W op(T) ; C -= W2 V^T.
    double* w2 = scratch(scratch_use::product, std::min(m, kMaxColBlock) * k);
    for (idx r0 = 0; r0 < m; r0 += kMaxColBlock) {
      const idx mc = std::min(kMaxColBlock, m - r0);
      double* cs = c + r0;
      blas::gemm(op::none, op::none, mc, k, n, 1.0, cs, ldc, v, ldv, 0.0,
                 work, mc);
      blas::gemm(op::none, trans, mc, k, k, 1.0, work, mc, tu, k, 0.0, w2,
                 mc);
      blas::gemm(op::none, op::trans, mc, n, k, -1.0, w2, mc, v, ldv, 1.0, cs,
                 ldc);
    }
  }
}

void apply_block_reflectors(op trans, const std::vector<BlockReflector>& list,
                            double* c, idx ldc, idx ncols, int workers,
                            const char* span_label) {
  if (list.empty() || ncols <= 0) return;
  workers = std::max(1, workers);
  idx kmax = 0;
  for (const BlockReflector& h : list) kmax = std::max(kmax, h.k);
  // A narrow C still gets one block per worker, in multiples of 8 columns;
  // a column's arithmetic does not depend on its block (see larfb).
  const idx per_worker = (ncols + workers - 1) / workers;
  const idx width = std::min(kMaxColBlock, (per_worker + 7) / 8 * 8);
  const idx nblocks = (ncols + width - 1) / width;
  std::atomic<idx> next{0};
  const int bodies = static_cast<int>(std::min<idx>(workers, nblocks));
  run_self_scheduled(bodies, [&](int) {
    for (idx b = next++; b < nblocks; b = next++) {
      obs::Span span(span_label);
      const idx c0 = b * width;
      const idx nc = std::min(width, ncols - c0);
      double* work = scratch(scratch_use::driver_w, kmax * nc);
      for (const BlockReflector& h : list)
        larfb(side::left, trans, h.m, nc, h.k, h.v, h.ldv, h.t, h.ldt,
              c + h.r0 + c0 * ldc, ldc, work);
    }
  });
}

void geqr2(idx m, idx n, double* a, idx lda, double* tau, double* work) {
  const idx k = std::min(m, n);
  for (idx i = 0; i < k; ++i) {
    double* col = a + i + i * lda;
    tau[i] = larfg(m - i, *col, col + 1, 1);
    if (i + 1 < n && tau[i] != 0.0) {
      // Apply H_i to the trailing columns with the implicit-unit convention.
      const double aii = *col;
      *col = 1.0;
      larf(side::left, m - i, n - i - 1, col, 1, tau[i],
           a + i + (i + 1) * lda, lda, work);
      *col = aii;
    }
  }
}

void geqrf(idx m, idx n, double* a, idx lda, double* tau, idx nb) {
  const idx k = std::min(m, n);
  if (nb <= 1 || k <= nb) {
    std::vector<double> work(static_cast<size_t>(std::max<idx>(m, n)));
    geqr2(m, n, a, lda, tau, work.data());
    return;
  }
  std::vector<double> work(static_cast<size_t>(std::max<idx>(m, n)));
  std::vector<double> t(static_cast<size_t>(nb) * nb);
  std::vector<double> v(static_cast<size_t>(m) * nb);
  std::vector<double> wblk(static_cast<size_t>(nb) * n);
  for (idx i = 0; i < k; i += nb) {
    const idx ib = std::min(nb, k - i);
    geqr2(m - i, ib, a + i + i * lda, lda, tau + i, work.data());
    if (i + ib < n) {
      extract_v(m - i, ib, a + i + i * lda, lda, v.data(), m - i);
      larft(m - i, ib, v.data(), m - i, tau + i, t.data(), nb);
      larfb(side::left, op::trans, m - i, n - i - ib, ib, v.data(), m - i,
            t.data(), nb, a + i + (i + ib) * lda, lda, wblk.data());
    }
  }
}

namespace {

/// geqrt3's recursion; `work` holds 2 * (n/2) * (n - n/2) doubles.
void geqrt3_rec(idx m, idx n, double* a, idx lda, double* r, idx ldr,
                double* t, idx ldt, double* work) {
  if (n <= 16) {
    std::vector<double> tau(static_cast<size_t>(n));
    std::vector<double> w(static_cast<size_t>(n));
    geqr2(m, n, a, lda, tau.data(), w.data());
    for (idx c = 0; c < n; ++c) {
      for (idx i = 0; i <= c; ++i) r[i + c * ldr] = a[i + c * lda];
      for (idx i = 0; i < c; ++i) a[i + c * lda] = 0.0;
      a[c + c * lda] = 1.0;
    }
    larft(m, n, a, lda, tau.data(), t, ldt);
    return;
  }
  const idx n1 = n / 2;
  const idx n2 = n - n1;
  geqrt3_rec(m, n1, a, lda, r, ldr, t, ldt, work);
  // A2 <- Q1^T A2; its top n1 rows are R12.
  double* a2 = a + n1 * lda;
  double* w1 = work;
  double* w2 = work + n1 * n2;
  larfb(side::left, op::trans, m, n2, n1, a, lda, t, ldt, a2, lda, w1);
  for (idx c = 0; c < n2; ++c)
    for (idx i = 0; i < n1; ++i) {
      r[i + (n1 + c) * ldr] = a2[i + c * lda];
      a2[i + c * lda] = 0.0;
    }
  double* t22 = t + n1 + n1 * ldt;
  geqrt3_rec(m - n1, n2, a2 + n1, lda, r + n1 + n1 * ldr, ldr, t22, ldt,
             work);
  // T12 = -T11 (V1^T V2) T22, V2 living in rows n1.. of A2.
  blas::gemm(op::trans, op::none, n1, n2, m - n1, 1.0, a + n1, lda, a2 + n1,
             lda, 0.0, w1, n1);
  blas::gemm(op::none, op::none, n1, n2, n1, 1.0, t, ldt, w1, n1, 0.0, w2,
             n1);
  blas::gemm(op::none, op::none, n1, n2, n2, -1.0, w2, n1, t22, ldt, 0.0,
             t + n1 * ldt, ldt);
}

}  // namespace

void geqrt3(idx m, idx n, double* a, idx lda, double* r, idx ldr, double* t,
            idx ldt) {
  require(m >= n && n >= 0, "geqrt3: needs m >= n");
  if (n == 0) return;
  std::vector<double> work(static_cast<size_t>(2 * (n / 2) * (n - n / 2)));
  geqrt3_rec(m, n, a, lda, r, ldr, t, ldt, work.data());
}

void org2r(idx m, idx n, idx k, double* a, idx lda, const double* tau) {
  std::vector<double> work(static_cast<size_t>(n));
  // Columns k..n-1 start as identity columns.
  for (idx j = k; j < n; ++j) {
    for (idx i = 0; i < m; ++i) a[i + j * lda] = 0.0;
    if (j < m) a[j + j * lda] = 1.0;
  }
  for (idx i = k - 1; i >= 0; --i) {
    double* col = a + i + i * lda;
    if (i + 1 < n) {
      const double aii = *col;
      *col = 1.0;
      larf(side::left, m - i, n - i - 1, col, 1, tau[i],
           a + i + (i + 1) * lda, lda, work.data());
      *col = aii;
    }
    // Column i of Q = H_i e_i = e_i - tau_i v_i.
    blas::scal(m - i - 1, -tau[i], col + 1, 1);
    *col = 1.0 - tau[i];
    for (idx j = 0; j < i; ++j) a[j + i * lda] = 0.0;
  }
}

void extract_v(idx m, idx k, const double* a, idx lda, double* v, idx ldv) {
  for (idx j = 0; j < k; ++j) {
    double* col = v + j * ldv;
    for (idx i = 0; i < j && i < m; ++i) col[i] = 0.0;
    if (j < m) col[j] = 1.0;
    for (idx i = j + 1; i < m; ++i) col[i] = a[i + j * lda];
  }
}

}  // namespace tseig::lapack
