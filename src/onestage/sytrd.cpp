#include "onestage/sytrd.hpp"

#include <algorithm>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "common/matrix.hpp"
#include "lapack/householder.hpp"
#include "obs/telemetry.hpp"

namespace tseig::onestage {
namespace {

/// Panel reduction (LAPACK xLATRD, uplo='L'): reduces the first `nb` columns
/// of the n-by-n trailing matrix A and accumulates the rank-2nb update
/// factor W (n-by-nb) so the caller can apply a single SYR2K.
void latrd(idx n, idx nb, double* a, idx lda, double* e, double* tau,
           double* w, idx ldw) {
  std::vector<double> scratch(static_cast<size_t>(nb));
  for (idx i = 0; i < nb; ++i) {
    const idx rest = n - i - 1;  // length below the diagonal of column i
    if (i > 0) {
      // a(i:n, i) -= A(i:n, 0:i) w(i, 0:i)^T + W(i:n, 0:i) a(i, 0:i)^T.
      blas::gemv(op::none, n - i, i, -1.0, a + i, lda, w + i, ldw, 1.0,
                 a + i + i * lda, 1);
      blas::gemv(op::none, n - i, i, -1.0, w + i, ldw, a + i, lda, 1.0,
                 a + i + i * lda, 1);
    }
    if (rest <= 0) continue;
    // Generate H_i annihilating a(i+2:n, i).
    double* col = a + (i + 1) + i * lda;
    tau[i] = lapack::larfg(rest, *col, col + 1, 1);
    e[i] = *col;
    *col = 1.0;

    // w(i+1:n, i) = tau_i * (A22 v - W A^T v - A W^T v ... ) per xLATRD.
    double* wi = w + (i + 1) + i * ldw;
    blas::symv(uplo::lower, rest, tau[i], a + (i + 1) + (i + 1) * lda, lda,
               col, 1, 0.0, wi, 1);
    if (i > 0) {
      // scratch = W(i+1:n, 0:i)^T v
      blas::gemv(op::trans, rest, i, 1.0, w + (i + 1), ldw, col, 1, 0.0,
                 scratch.data(), 1);
      // w_i -= tau * A(i+1:n, 0:i) scratch
      blas::gemv(op::none, rest, i, -tau[i], a + (i + 1), lda, scratch.data(),
                 1, 1.0, wi, 1);
      // scratch = A(i+1:n, 0:i)^T v
      blas::gemv(op::trans, rest, i, 1.0, a + (i + 1), lda, col, 1, 0.0,
                 scratch.data(), 1);
      // w_i -= tau * W(i+1:n, 0:i) scratch
      blas::gemv(op::none, rest, i, -tau[i], w + (i + 1), ldw, scratch.data(),
                 1, 1.0, wi, 1);
    }
    // w_i -= (tau/2) (w_i^T v) v.
    const double alpha = -0.5 * tau[i] * blas::dot(rest, wi, 1, col, 1);
    blas::axpy(rest, alpha, col, 1, wi, 1);
  }
}

}  // namespace

void sytd2(idx n, double* a, idx lda, double* d, double* e, double* tau) {
  std::vector<double> w(static_cast<size_t>(n));
  for (idx i = 0; i < n - 1; ++i) {
    const idx rest = n - i - 1;
    double* col = a + (i + 1) + i * lda;
    tau[i] = lapack::larfg(rest, *col, col + 1, 1);
    e[i] = *col;
    if (tau[i] != 0.0) {
      *col = 1.0;
      // w = tau * A22 v ; w -= (tau/2)(w^T v) v ; A22 -= v w^T + w v^T.
      blas::symv(uplo::lower, rest, tau[i], a + (i + 1) + (i + 1) * lda, lda,
                 col, 1, 0.0, w.data(), 1);
      const double alpha = -0.5 * tau[i] * blas::dot(rest, w.data(), 1, col, 1);
      blas::axpy(rest, alpha, col, 1, w.data(), 1);
      blas::syr2(uplo::lower, rest, -1.0, col, 1, w.data(), 1,
                 a + (i + 1) + (i + 1) * lda, lda);
      *col = e[i];
    }
    d[i] = a[i + i * lda];
  }
  if (n > 0) d[n - 1] = a[(n - 1) + (n - 1) * lda];
}

void sytrd(idx n, double* a, idx lda, double* d, double* e, double* tau,
           idx nb) {
  require(n >= 0, "sytrd: negative n");
  if (n <= 2 || nb <= 1 || nb >= n) {
    if (n >= 1) {
      sytd2(n, a, lda, d, e, tau);
    }
    return;
  }
  std::vector<double> w(static_cast<size_t>(n) * nb);
  idx j = 0;
  // Keep at least 2nb columns for the unblocked finish (mirrors xSYTRD's
  // crossover handling and avoids degenerate panels).
  while (n - j > 2 * nb) {
    // One span per panel + trailing update (arg = panel index): the
    // one-stage timeline's unit of progress.
    obs::Span span("sytrd_panel", static_cast<std::int32_t>(j / nb));
    latrd(n - j, nb, a + j + j * lda, lda, e + j, tau + j, w.data(), n - j);
    // Trailing update A22 -= V W^T + W V^T, V = A(j+nb : n, j : j+nb) the
    // panel reflectors; latrd left their unit elements stored explicitly.
    const idx rest = n - j - nb;
    blas::syr2k(uplo::lower, op::none, rest, nb, -1.0, a + (j + nb) + j * lda,
                lda, w.data() + nb, n - j, 1.0,
                a + (j + nb) + (j + nb) * lda, lda);
    // Restore the subdiagonal entries overwritten with the implicit 1s.
    for (idx i = 0; i < nb; ++i) {
      a[(j + i + 1) + (j + i) * lda] = e[j + i];
      d[j + i] = a[(j + i) + (j + i) * lda];
    }
    j += nb;
  }
  // Unblocked finish on the remaining block.
  obs::Span span("sytd2_finish");
  sytd2(n - j, a + j + j * lda, lda, d + j, e + j, tau + j);
}

void ormtr(op trans, idx n, idx ncols, const double* a, idx lda,
           const double* tau, double* c, idx ldc, idx nb) {
  if (n <= 1 || ncols == 0) return;
  const idx k = n - 1;  // number of reflectors
  nb = std::max<idx>(1, std::min(nb, k));
  const idx nblocks = (k + nb - 1) / nb;
  // Block b holds reflectors b*nb .. b*nb+ib-1, acting on rows b*nb+1 .. n-1;
  // its V (explicit storage) and T are formed up front.  Q = H_0 ... H_{k-1}:
  // C <- Q C applies the blocks last-to-first, C <- Q^T C first-to-last.
  std::vector<Matrix> v(static_cast<size_t>(nblocks));
  std::vector<Matrix> t(static_cast<size_t>(nblocks));
  std::vector<lapack::BlockReflector> list(static_cast<size_t>(nblocks));
  for (idx b = 0; b < nblocks; ++b) {
    const idx jbeg = b * nb;
    const idx ib = std::min(nb, k - jbeg);
    const idx m = n - jbeg - 1;
    Matrix& vb = v[static_cast<size_t>(b)];
    Matrix& tb = t[static_cast<size_t>(b)];
    vb.reshape(m, ib);
    tb.reshape(ib, ib);
    lapack::extract_v(m, ib, a + (jbeg + 1) + jbeg * lda, lda, vb.data(), m);
    lapack::larft(m, ib, vb.data(), m, tau + jbeg, tb.data(), ib);
    list[static_cast<size_t>(trans == op::none ? nblocks - 1 - b : b)] = {
        jbeg + 1, m, ib, vb.data(), m, tb.data(), ib};
  }
  lapack::apply_block_reflectors(trans, list, c, ldc, ncols,
                                 blas::kernel_workers(), "ormtr_cols");
}

}  // namespace tseig::onestage
