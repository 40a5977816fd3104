#include "twostage/sb2st.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "common/lanes.hpp"
#include "common/parallel.hpp"
#include "lapack/householder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::twostage {

BandMatrix::BandMatrix(idx n, idx bandwidth) : n_(n), bw_(bandwidth) {
  require(n >= 0 && bandwidth >= 0, "BandMatrix: bad dimensions");
  ab_.assign(static_cast<size_t>((bw_ + 1) * n_), 0.0);
}

Matrix BandMatrix::to_dense() const {
  Matrix a(n_, n_);
  for (idx j = 0; j < n_; ++j) {
    const idx iend = std::min(n_, j + bw_ + 1);
    for (idx i = j; i < iend; ++i) {
      a(i, j) = at(i, j);
      a(j, i) = at(i, j);
    }
  }
  return a;
}

V2Factor::V2Factor(idx n, idx nb) : n_(n), nb_(nb) {
  require(n >= 0 && nb >= 1, "V2Factor: bad dimensions");
  sweep_offset_.assign(static_cast<size_t>(nsweeps()) + 1, 0);
  idx total = 0;
  for (idx s = 0; s < nsweeps(); ++s) {
    sweep_offset_[static_cast<size_t>(s)] = total;
    total += nblocks(s);
  }
  sweep_offset_[static_cast<size_t>(nsweeps())] = total;
  v_.assign(static_cast<size_t>(total * nb_), 0.0);
  tau_.assign(static_cast<size_t>(total), 0.0);
}

namespace {

/// Working band accessor: lower band with 2*nb sub-diagonals of headroom for
/// the bulges.  Element (i, j), i >= j, lives at wb[(i-j) + j*ldwb].
struct WorkBand {
  double* wb;
  idx ldwb;
  double& at(idx i, idx j) const { return wb[(i - j) + j * ldwb]; }
  /// Pointer to the column segment starting at (i, j), contiguous in i.
  double* col(idx i, idx j) const { return wb + (i - j) + j * ldwb; }
};

/// Symmetric two-sided rank-2 reflector update on the cache-resident block
/// S = B(r1 : r1+len-1, r1 : r1+len-1):  S <- H S H, H = I - tau v v^T.
/// This is the trailing part of both hbceu (type 1) and hblru (type 3).
/// Its sums run in lane order (common/lanes.hpp).  The whole update counts
/// xLARFY's 4 len^2 + 4 len flops once: symv and syr2 2 len^2 each, the dot
/// and axpy of the correction 2 len each.
void sym_two_sided(const WorkBand& b, idx r1, idx len, const double* v,
                   double tau, double* w) {
  if (tau == 0.0 || len <= 0) return;
  count_flops(4 * len * len + 4 * len);
  count_bytes(byte_count::larfy(len));
  // w = tau * S v using one pass over the stored lower triangle: column j
  // adds its strictly-lower part to w below j and its transpose sum over
  // rows j+1 .. len-1 to w[j].
  for (idx k = 0; k < len; ++k) w[k] = 0.0;
  for (idx j = 0; j < len; ++j) {
    const double* cj = b.col(r1 + j, r1 + j);
    w[j] += cj[0] * v[j];
    const double vj = v[j];
    LaneVec acc = {};
    idx i = j + 1;
    for (; i + kLanes <= len; i += kLanes) {
      LaneVec c, wv, vv;
      lane_load(c, cj + (i - j));
      lane_load(wv, w + i);
      lane_load(vv, v + i);
      lane_madd(wv, vj, c);
      lane_madd(acc, c, vv);
      lane_store(w + i, wv);
    }
    double sum[kLanes];
    lane_store(sum, acc);
    for (idx l = 0; i < len; ++i, ++l) {
      w[i] += cj[i - j] * vj;
      sum[l] += cj[i - j] * v[i];
    }
    w[j] += lane_total(sum);
  }
  for (idx k = 0; k < len; ++k) w[k] *= tau;
  // w <- w - (tau/2)(w^T v) v ; then S -= v w^T + w v^T.
  const double alpha = -0.5 * tau * lane_dot(len, w, v);
  for (idx k = 0; k < len; ++k) w[k] += alpha * v[k];
  for (idx j = 0; j < len; ++j) {
    double* __restrict__ cj = b.col(r1 + j, r1 + j);
    const double wj = w[j];
    const double vj = v[j];
    for (idx i = j; i < len; ++i) {
      cj[i - j] -= v[i] * wj + w[i] * vj;
    }
  }
}

/// Left application of the reflector (v over rows r1..r1+len-1) to one band
/// column j < r1 on exactly those rows: cj <- (I - tau v v^T) cj.
void apply_left_col(const WorkBand& b, idx r1, idx len, idx j,
                    const double* v, double tau) {
  double* __restrict__ cj = b.col(r1, j);
  const double acc = tau * lane_dot(len, v, cj);
  for (idx i = 0; i < len; ++i) cj[i] -= acc * v[i];
}

/// Type 1 (xHBCEU): start sweep s -- generate the reflector annihilating the
/// band column s below its sub-diagonal and update the symmetric block it
/// touches.
void hbceu(const WorkBand& b, idx n, idx nb, idx s, double* v, double& tau,
           double* w) {
  const idx r1 = s + 1;
  const idx len = std::min(nb, n - r1);
  // Column s, rows r1..r1+len-1 is contiguous in band storage.
  double* x = b.col(r1, s);
  v[0] = 1.0;
  double alpha = x[0];
  tau = lapack::larfg(len, alpha, x + 1, 1);
  for (idx i = 1; i < len; ++i) {
    v[i] = x[i];
    x[i] = 0.0;  // annihilated entries
  }
  x[0] = alpha;
  sym_two_sided(b, r1, len, v, tau, w);
}

/// Deferred right application of reflector vp (rows r1..r1+lenU-1) to the
/// rows below its block: G = B(J1:J1+lenB, r1:r1+lenU) <- G (I - taup vp
/// vp^T).  lenB = min(nb, n-J1) reaches every stored row of those columns.
void apply_right(const WorkBand& b, idx n, idx nb, idx r1, idx lenU,
                 const double* vp, double taup, double* w) {
  const idx J1 = r1 + lenU;
  const idx lenB = std::min(nb, n - J1);
  if (taup == 0.0 || lenB <= 0) return;
  count_flops(4 * lenB * lenU);
  count_bytes(byte_count::larf(lenU, lenB));
  double* __restrict__ wr = w;
  for (idx i = 0; i < lenB; ++i) wr[i] = 0.0;
  for (idx j = 0; j < lenU; ++j) {
    const double* __restrict__ cj = b.col(J1, r1 + j);
    const double vj = vp[j];
    if (vj == 0.0) continue;
    for (idx i = 0; i < lenB; ++i) wr[i] += cj[i] * vj;
  }
  for (idx j = 0; j < lenU; ++j) {
    double* __restrict__ cj = b.col(J1, r1 + j);
    const double tv = taup * vp[j];
    if (tv == 0.0) continue;
    for (idx i = 0; i < lenB; ++i) cj[i] -= wr[i] * tv;
  }
}

/// Type 2 + type 3 (xHBREL then xHBLRU): one chase hop of sweep s.
///  - apply the previous reflector (vp over rows r1..r1+lenU-1) from the
///    right to the rows below its block, materializing the bulge;
///  - annihilate the bulge's first column r1 with a new reflector (vn)
///    pivoting on row K1 = r1 + nb, where the bulge block starts;
///  - apply vn from the left to the delayed bulge columns r1+1 .. K1-1;
///  - apply vn two-sidedly to the symmetric block B(K1:K2, K1:K2).
void hbrel_hblru(const WorkBand& b, idx n, idx nb, idx r1, idx lenU,
                 const double* vp, double taup, double* vn, double& taun,
                 double* w) {
  // --- hbrel: deferred right application, creating the bulge. ---
  apply_right(b, n, nb, r1, lenU, vp, taup, w);
  const idx K1 = r1 + nb;
  const idx lenN = std::min(nb, n - K1);
  // --- new reflector from the chased column's fill (pivot in band). ---
  double* x = b.col(K1, r1);
  vn[0] = 1.0;
  double alpha = x[0];
  taun = lapack::larfg(lenN, alpha, x + 1, 1);
  for (idx i = 1; i < lenN; ++i) {
    vn[i] = x[i];
    x[i] = 0.0;
  }
  x[0] = alpha;
  // --- left application to the delayed columns r1+1 .. K1-1. ---
  if (taun != 0.0) {
    count_flops(4 * lenN * (nb - 1));
    count_bytes(byte_count::larf(lenN, nb - 1));
    for (idx j = r1 + 1; j < K1; ++j)
      apply_left_col(b, K1, lenN, j, vn, taun);
  }
  // --- hblru trailing part: two-sided update of the symmetric block. ---
  sym_two_sided(b, K1, lenN, vn, taun, w);
}

/// Finished hops of one sweep, on its own cache line: the owners of the
/// next sweep's hops and the next owner of this sweep poll it while the
/// current owner stores to it.
struct alignas(64) SweepProgress {
  std::atomic<idx> hops{0};
};

/// Returns once at least `target` hops are published.  Spins first, since
/// the hop waited for is normally only a hop away, then yields so that a
/// descheduled producer can get the core back.
void wait_for_hops(const std::atomic<idx>& hops, idx target) {
  constexpr int kSpins = 256;
  for (int k = 0; hops.load(std::memory_order_acquire) < target;) {
    if (k < kSpins)
      ++k;
    else
      std::this_thread::yield();
  }
}

/// The bulge chase: reduces the working band (bandwidth nb, bulge headroom
/// already allocated in wb) to tridiagonal form in place, recording every
/// reflector.
///
/// Owned-range schedule: body c of p owns hops [c L_s / p, (c+1) L_s / p)
/// of every sweep s (L_s = nblocks(s)) and runs its ranges sweep by sweep,
/// so a band window stays in one core's cache across sweeps.  Before hop u
/// of sweep s a body waits until sweep s-1 has finished hops 0..u+1 -- the
/// lattice dependences (s,u) <- (s-1,u), (s-1,u+1) of the paper's Section
/// 5.2 -- and before the first hop u0 of its range until sweep s has
/// finished hops 0..u0-1, the previous owner's: (s,u) <- (s,u-1).  Every
/// hop does the same arithmetic whichever body runs it, so the result is
/// bitwise identical at every width.
V2Factor chase(const WorkBand& wb, idx n, idx nb, int width) {
  V2Factor v2(n, nb);
  if (nb <= 1 || n < 3) return v2;  // already tridiagonal

  const idx nsweeps = v2.nsweeps();
  // Owners wait on each other, so all p of them must be live at once:
  // fork_join keeps its bodies live, but a call inside a pool region runs
  // body 0 alone (run_self_scheduled), so it takes every hop itself.
  // Sweep 0 is the longest, so more owners than its hops would idle.
  const idx p = rt::ThreadPool::in_parallel_region()
                    ? 1
                    : std::min<idx>(width, v2.nblocks(0));
  std::vector<SweepProgress> progress(static_cast<size_t>(nsweeps));
  auto body = [&](int c) {
    std::vector<double> w(static_cast<size_t>(nb));
    for (idx s = 0; s < nsweeps; ++s) {
      const idx nbl = v2.nblocks(s);
      const idx u0 = c * nbl / p;
      const idx u1 = (c + 1) * nbl / p;
      if (u0 == u1) continue;
      obs::Span span("chase", static_cast<std::int32_t>(s));
      std::atomic<idx>& done = progress[static_cast<size_t>(s)].hops;
      wait_for_hops(done, u0);
      for (idx u = u0; u < u1; ++u) {
        if (s > 0)
          wait_for_hops(progress[static_cast<size_t>(s - 1)].hops,
                        std::min(v2.nblocks(s - 1), u + 2));
        if (u == 0) {
          hbceu(wb, n, nb, s, v2.v(s, 0), v2.tau(s, 0), w.data());
        } else {
          hbrel_hblru(wb, n, nb, v2.start(s, u - 1), v2.len(s, u - 1),
                      v2.v(s, u - 1), v2.tau(s, u - 1), v2.v(s, u),
                      v2.tau(s, u), w.data());
        }
        done.store(u + 1, std::memory_order_release);
      }
    }
  };
  // Each wait is for hops earlier in the serial (sweep, hop) order, so the
  // earliest unfinished hop can always run: its owner has finished all of
  // its own earlier hops, and everything the hop waits for is earlier
  // still.  With one owner the waits never fire.
  run_self_scheduled(static_cast<int>(p), body);
  return v2;
}

}  // namespace

Sb2stResult sb2st(const BandMatrix& band, const Sb2stOptions& opts) {
  const idx n = band.n();
  const idx nb = band.bandwidth();
  Sb2stResult result;
  result.d.assign(static_cast<size_t>(n), 0.0);
  result.e.assign(static_cast<size_t>(std::max<idx>(n, 1)), 0.0);
  result.v2 = V2Factor(n, std::max<idx>(nb, 1));
  if (n == 0) return result;

  const int num_workers = rt::resolve_num_workers(opts.num_workers);
  const int width = opts.stage2_workers > 0
                        ? std::min(opts.stage2_workers, num_workers)
                        : num_workers;

  // Copy the band into working storage with bulge headroom (2nb+1 rows).
  const idx ldwb = 2 * std::max<idx>(nb, 1) + 1;
  std::vector<double> wstore(static_cast<size_t>(ldwb * n), 0.0);
  WorkBand wb{wstore.data(), ldwb};
  for (idx j = 0; j < n; ++j) {
    const idx iend = std::min(n, j + nb + 1);
    for (idx i = j; i < iend; ++i) wb.at(i, j) = band.at(i, j);
  }

  result.v2 = chase(wb, n, std::max<idx>(nb, 1), width);
  for (idx i = 0; i < n; ++i) result.d[static_cast<size_t>(i)] = wb.at(i, i);
  for (idx i = 0; i + 1 < n; ++i)
    result.e[static_cast<size_t>(i)] = wb.at(i + 1, i);
  return result;
}

}  // namespace tseig::twostage
