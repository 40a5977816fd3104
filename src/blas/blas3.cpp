#include "blas/blas3.hpp"

#include <algorithm>
#include <vector>

#include "blas/kernels/registry.hpp"
#include "common/flops.hpp"
#include "common/parallel.hpp"

// Like the whole library, this TU is compiled with -ffp-contract=off (see
// src/CMakeLists.txt).  Every Level-3 flop runs in the active tier's
// microkernel, at every size and on every ragged edge: this file only packs,
// blocks and scales C, so the registry.hpp rounding contract covers all of
// gemm/symm/syrk/syr2k.

namespace tseig::blas {
namespace {

using kernels::kKC;
using kernels::kMC;
using kernels::kNC;

/// Thread-local Level-3 worker budget (see blas3.hpp).  0 = unset.
thread_local int t_kernel_workers = 0;

/// Packs an mc-by-kc block of the left operand into MR-row micro-panels for
/// the active tier, padding the ragged edge with zeros.  `ea(i, p)` reads
/// logical element (ic + i, pc + p) of op(A).  Accessor fallback for
/// symm/syrk/syr2k operands; raw gemm operands use the tier's contiguous
/// packers instead.
template <class EA>
void pack_a_generic(idx mr_tile, idx mc, idx kc, EA&& ea, double* buf) {
  for (idx i0 = 0; i0 < mc; i0 += mr_tile) {
    const idx mr = std::min(mr_tile, mc - i0);
    for (idx p = 0; p < kc; ++p) {
      for (idx i = 0; i < mr; ++i) buf[p * mr_tile + i] = ea(i0 + i, p);
      for (idx i = mr; i < mr_tile; ++i) buf[p * mr_tile + i] = 0.0;
    }
    buf += kc * mr_tile;
  }
}

/// Packs a kc-by-nc block of the right operand into NR-column micro-panels.
template <class EB>
void pack_b_generic(idx nr_tile, idx kc, idx nc, EB&& eb, double* buf) {
  for (idx j0 = 0; j0 < nc; j0 += nr_tile) {
    const idx nr = std::min(nr_tile, nc - j0);
    for (idx p = 0; p < kc; ++p) {
      for (idx j = 0; j < nr; ++j) buf[p * nr_tile + j] = eb(p, j0 + j);
      for (idx j = nr; j < nr_tile; ++j) buf[p * nr_tile + j] = 0.0;
    }
    buf += kc * nr_tile;
  }
}

/// Scales C by beta (handling beta == 0 so that uninitialised C never leaks
/// NaNs into the result, as reference BLAS specifies).
void scale_c(idx m, idx n, double beta, double* c, idx ldc) {
  if (beta == 1.0) return;
  for (idx j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    if (beta == 0.0) {
      std::fill(cj, cj + m, 0.0);
    } else {
      for (idx i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

/// Per-thread packing buffer, reused across calls (tile algorithms issue
/// many nb-sized GEMMs; a heap allocation per call would dominate them) but
/// released on shrink: one huge gemm must not pin KC*NC doubles per worker
/// for the rest of the process.  Every kProbeWindow calls the high-water
/// mark of that window is compared against the held capacity; holding more
/// than twice the recent demand triggers a reallocation down to it.
class PackBuffer {
public:
  double* get(idx count) {
    if (static_cast<idx>(buf_.size()) < count)
      buf_.resize(static_cast<size_t>(count));
    window_max_ = std::max(window_max_, count);
    if (++calls_ >= kProbeWindow) {
      if (static_cast<idx>(buf_.capacity()) > 2 * window_max_) {
        buf_.resize(static_cast<size_t>(window_max_));
        buf_.shrink_to_fit();
      }
      calls_ = 0;
      window_max_ = 0;
    }
    return buf_.data();
  }

  idx capacity() const { return static_cast<idx>(buf_.capacity()); }

private:
  static constexpr int kProbeWindow = 64;
  std::vector<double> buf_;
  idx window_max_ = 0;
  int calls_ = 0;
};

PackBuffer& pack_store_a() {
  thread_local PackBuffer buf;
  return buf;
}
PackBuffer& pack_store_b() {
  thread_local PackBuffer buf;
  return buf;
}

/// Cache-blocked driver: C += alpha * A B with operands delivered through
/// block packers packa(ic, pc, mc, kc, buf) / packb(pc, jc, kc, nc, buf).
/// C must already be scaled by beta.  All flops run in the active tier's
/// microkernel; row-block parallelism is capped by kernel_workers().
template <class PA, class PB>
void gemm_blocked(idx m, idx n, idx k, double alpha, PA&& packa, PB&& packb,
                  double* c, idx ldc) {
  const kernels::Kernel& kern = kernels::active_kernel();
  const idx mr_tile = kern.mr;
  const idx nr_tile = kern.nr;
  const idx kc_max = std::min(kKC, k);
  const idx nc_max = std::min(kNC, n);
  double* bbuf = pack_store_b().get(
      kc_max * ((nc_max + nr_tile - 1) / nr_tile) * nr_tile);
  for (idx jc = 0; jc < n; jc += kNC) {
    const idx nc = std::min(kNC, n - jc);
    for (idx pc = 0; pc < k; pc += kKC) {
      const idx kc = std::min(kKC, k - pc);
      packb(pc, jc, kc, nc, bbuf);
      // Packers report the traffic they generate (source read + packed
      // write) on top of the entry points' nominal operand formulas -- the
      // blocked path's real extra bandwidth cost, visible in the roofline.
      count_bytes(byte_count::copy(kc, nc));
      const idx nic = (m + kMC - 1) / kMC;
      const auto row_block = [&](idx bi) {
        const idx ic = bi * kMC;
        const idx mc = std::min(kMC, m - ic);
        double* abuf = pack_store_a().get(
            ((mc + mr_tile - 1) / mr_tile) * mr_tile * kc);
        packa(ic, pc, mc, kc, abuf);
        count_bytes(byte_count::copy(mc, kc));
        for (idx j0 = 0; j0 < nc; j0 += nr_tile) {
          const idx nr = std::min(nr_tile, nc - j0);
          const double* bp = bbuf + (j0 / nr_tile) * (kc * nr_tile);
          for (idx i0 = 0; i0 < mc; i0 += mr_tile) {
            const idx mr = std::min(mr_tile, mc - i0);
            const double* ap = abuf + (i0 / mr_tile) * (kc * mr_tile);
            kern.micro(kc, alpha, ap, bp,
                       c + (ic + i0) + (jc + j0) * ldc, ldc, mr, nr);
          }
        }
      };
      // One row block (every call with m <= MC) skips the std::function
      // wrapper of parallel_for: it costs as much as a whole tiny GEMM.
      if (nic == 1) {
        row_block(0);
      } else {
        parallel_for(kernel_workers(), 0, nic, 1, row_block);
      }
    }
  }
}

/// Accessor-based core shared by symm/syrk/syr2k: C += alpha * EA * EB
/// where the operands are exposed element-wise.  C must already be scaled by
/// beta.
template <class EA, class EB>
void gemm_core(idx m, idx n, idx k, double alpha, EA&& ea, EB&& eb, double* c,
               idx ldc) {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  const kernels::Kernel& kern = kernels::active_kernel();
  gemm_blocked(
      m, n, k, alpha,
      [&](idx ic, idx pc, idx mc, idx kc, double* buf) {
        pack_a_generic(kern.mr, mc, kc,
                       [&](idx i, idx p) { return ea(ic + i, pc + p); }, buf);
      },
      [&](idx pc, idx jc, idx kc, idx nc, double* buf) {
        pack_b_generic(kern.nr, kc, nc,
                       [&](idx p, idx j) { return eb(pc + p, jc + j); }, buf);
      },
      c, ldc);
}

}  // namespace

int kernel_workers() {
  if (t_kernel_workers > 0) return t_kernel_workers;
  if (rt::ThreadPool::in_parallel_region()) return 1;
  return default_num_threads();
}

ScopedKernelWorkers::ScopedKernelWorkers(int num_workers)
    : saved_(t_kernel_workers) {
  t_kernel_workers = num_workers > 0 ? num_workers : 0;
}

ScopedKernelWorkers::~ScopedKernelWorkers() { t_kernel_workers = saved_; }

PackBufferStats pack_buffer_stats() {
  return {pack_store_a().capacity(), pack_store_b().capacity()};
}

void gemm(op transa, op transb, idx m, idx n, idx k, double alpha,
          const double* a, idx lda, const double* b, idx ldb, double beta,
          double* c, idx ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  count_flops(flop_count::gemm(m, n, k));
  count_bytes(byte_count::gemm(m, n, k));
  // Blocked engine with the active tier's contiguous packers per transpose
  // combination (several times faster than the element-accessor fallback;
  // tile algorithms hit GEMM at nb-sized operands where packing is not
  // amortized by the O(n^3) compute, so this matters for stage-1 rate).
  const kernels::Kernel& kern = kernels::active_kernel();
  auto packa = [&kern, a, lda, transa](idx ic, idx pc, idx mc, idx kc,
                                       double* buf) {
    if (transa == op::none) {
      kern.pack_a_notrans(mc, kc, a + ic + pc * lda, lda, buf);
    } else {
      kern.pack_a_trans(mc, kc, a + pc + ic * lda, lda, buf);
    }
  };
  auto packb = [&kern, b, ldb, transb](idx pc, idx jc, idx kc, idx nc,
                                       double* buf) {
    if (transb == op::none) {
      kern.pack_b_notrans(kc, nc, b + pc + jc * ldb, ldb, buf);
    } else {
      kern.pack_b_trans(kc, nc, b + jc + pc * ldb, ldb, buf);
    }
  };
  gemm_blocked(m, n, k, alpha, packa, packb, c, ldc);
}

void symm(side sd, uplo ul, idx m, idx n, double alpha, const double* a,
          idx lda, const double* b, idx ldb, double beta, double* c, idx ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || alpha == 0.0) return;
  // Symmetric accessor: reads (i, j) from whichever triangle is stored.
  auto sym = [=](idx i, idx j) {
    const bool swap_ij = (ul == uplo::lower) ? (i < j) : (i > j);
    return swap_ij ? a[j + i * lda] : a[i + j * lda];
  };
  count_flops(2 * m * n * (sd == side::left ? m : n));
  {
    const idx t = sd == side::left ? m : n;
    count_bytes(byte_count::kElem * (t * (t + 1) / 2 + 3 * m * n));
  }
  if (sd == side::left) {
    gemm_core(m, n, m, alpha, sym,
              [=](idx p, idx j) { return b[p + j * ldb]; }, c, ldc);
  } else {
    gemm_core(m, n, n, alpha, [=](idx i, idx p) { return b[i + p * ldb]; },
              sym, c, ldc);
  }
}

void syrk(uplo ul, op trans, idx n, idx k, double alpha, const double* a,
          idx lda, double beta, double* c, idx ldc) {
  if (n == 0) return;
  count_flops(flop_count::syrk(n, k));
  count_bytes(byte_count::syrk(n, k));
  auto ea = [=](idx i, idx p) {
    return trans == op::none ? a[i + p * lda] : a[p + i * lda];
  };
  // Block the triangle: off-diagonal block panels go through the fast core;
  // diagonal blocks are formed into a dense scratch tile and the relevant
  // triangle copied back.
  constexpr idx NB = 96;
  std::vector<double> tile(static_cast<size_t>(NB) * NB);
  for (idx j0 = 0; j0 < n; j0 += NB) {
    const idx nb = std::min(NB, n - j0);
    // Diagonal block.
    std::fill(tile.begin(), tile.end(), 0.0);
    gemm_core(nb, nb, k, alpha, [&](idx i, idx p) { return ea(j0 + i, p); },
              [&](idx p, idx j) { return ea(j0 + j, p); }, tile.data(), NB);
    for (idx j = 0; j < nb; ++j) {
      const idx ibeg = (ul == uplo::lower) ? j : 0;
      const idx iend = (ul == uplo::lower) ? nb : j + 1;
      for (idx i = ibeg; i < iend; ++i) {
        double& cij = c[(j0 + i) + (j0 + j) * ldc];
        cij = (beta == 0.0 ? 0.0 : beta * cij) + tile[i + j * NB];
      }
    }
    // Off-diagonal panel.
    const idx i0 = (ul == uplo::lower) ? j0 + nb : 0;
    const idx mm = (ul == uplo::lower) ? n - (j0 + nb) : j0;
    if (mm > 0) {
      scale_c(mm, nb, beta, c + i0 + j0 * ldc, ldc);
      gemm_core(mm, nb, k, alpha, [&](idx i, idx p) { return ea(i0 + i, p); },
                [&](idx p, idx j) { return ea(j0 + j, p); },
                c + i0 + j0 * ldc, ldc);
    }
  }
}

void syr2k(uplo ul, op trans, idx n, idx k, double alpha, const double* a,
           idx lda, const double* b, idx ldb, double beta, double* c,
           idx ldc) {
  if (n == 0) return;
  count_flops(flop_count::syr2k(n, k));
  count_bytes(byte_count::syr2k(n, k));
  auto ea = [=](idx i, idx p) {
    return trans == op::none ? a[i + p * lda] : a[p + i * lda];
  };
  auto eb = [=](idx i, idx p) {
    return trans == op::none ? b[i + p * ldb] : b[p + i * ldb];
  };
  constexpr idx NB = 96;
  std::vector<double> tile(static_cast<size_t>(NB) * NB);
  for (idx j0 = 0; j0 < n; j0 += NB) {
    const idx nb = std::min(NB, n - j0);
    std::fill(tile.begin(), tile.end(), 0.0);
    gemm_core(nb, nb, k, alpha, [&](idx i, idx p) { return ea(j0 + i, p); },
              [&](idx p, idx j) { return eb(j0 + j, p); }, tile.data(), NB);
    gemm_core(nb, nb, k, alpha, [&](idx i, idx p) { return eb(j0 + i, p); },
              [&](idx p, idx j) { return ea(j0 + j, p); }, tile.data(), NB);
    for (idx j = 0; j < nb; ++j) {
      const idx ibeg = (ul == uplo::lower) ? j : 0;
      const idx iend = (ul == uplo::lower) ? nb : j + 1;
      for (idx i = ibeg; i < iend; ++i) {
        double& cij = c[(j0 + i) + (j0 + j) * ldc];
        cij = (beta == 0.0 ? 0.0 : beta * cij) + tile[i + j * NB];
      }
    }
    const idx i0 = (ul == uplo::lower) ? j0 + nb : 0;
    const idx mm = (ul == uplo::lower) ? n - (j0 + nb) : j0;
    if (mm > 0) {
      scale_c(mm, nb, beta, c + i0 + j0 * ldc, ldc);
      gemm_core(mm, nb, k, alpha, [&](idx i, idx p) { return ea(i0 + i, p); },
                [&](idx p, idx j) { return eb(j0 + j, p); },
                c + i0 + j0 * ldc, ldc);
      gemm_core(mm, nb, k, alpha, [&](idx i, idx p) { return eb(i0 + i, p); },
                [&](idx p, idx j) { return ea(j0 + j, p); },
                c + i0 + j0 * ldc, ldc);
    }
  }
}

// trsm is a deliberately simple column sweep: potrf and sygv call it on small
// or one-off triangles, a lower-order cost next to their GEMMs.  (larfb needs
// no triangular kernel: it multiplies by T as a GEMM.)

void trsm(side sd, uplo ul, op trans, diag d, idx m, idx n, double alpha,
          const double* a, idx lda, double* b, idx ldb) {
  count_flops(flop_count::trsm(sd, m, n));
  count_bytes(byte_count::trsm(sd, m, n));
  const bool unit = d == diag::unit;
  if (alpha != 1.0) scale_c(m, n, alpha, b, ldb);
  if (sd == side::left) {
    // Forward/back substitution per column of B.
    for (idx j = 0; j < n; ++j) {
      double* bj = b + j * ldb;
      const bool forward = (ul == uplo::lower) == (trans == op::none);
      for (idx ii = 0; ii < m; ++ii) {
        const idx i = forward ? ii : m - 1 - ii;
        double acc = bj[i];
        if (trans == op::none) {
          const idx pbeg = ul == uplo::lower ? 0 : i + 1;
          const idx pend = ul == uplo::lower ? i : m;
          for (idx p = pbeg; p < pend; ++p) acc -= a[i + p * lda] * bj[p];
        } else {
          const idx pbeg = ul == uplo::lower ? i + 1 : 0;
          const idx pend = ul == uplo::lower ? m : i;
          for (idx p = pbeg; p < pend; ++p) acc -= a[p + i * lda] * bj[p];
        }
        bj[i] = unit ? acc : acc / a[i + i * lda];
      }
    }
  } else {
    // X op(A) = B: solve column-by-column of X.
    const bool forward = (ul == uplo::lower) != (trans == op::none);
    for (idx jj = 0; jj < n; ++jj) {
      const idx j = forward ? jj : n - 1 - jj;
      // Subtract contributions of already-solved columns.
      if (trans == op::none) {
        const idx pbeg = ul == uplo::lower ? j + 1 : 0;
        const idx pend = ul == uplo::lower ? n : j;
        for (idx p = pbeg; p < pend; ++p) {
          const double t = a[p + j * lda];
          if (t != 0.0)
            for (idx i = 0; i < m; ++i) b[i + j * ldb] -= t * b[i + p * ldb];
        }
      } else {
        const idx pbeg = ul == uplo::lower ? 0 : j + 1;
        const idx pend = ul == uplo::lower ? j : n;
        for (idx p = pbeg; p < pend; ++p) {
          const double t = a[j + p * lda];
          if (t != 0.0)
            for (idx i = 0; i < m; ++i) b[i + j * ldb] -= t * b[i + p * ldb];
        }
      }
      if (!unit) {
        const double dj = a[j + j * lda];
        for (idx i = 0; i < m; ++i) b[i + j * ldb] /= dj;
      }
    }
  }
}

}  // namespace tseig::blas
