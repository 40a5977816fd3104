#include "twostage/sb2st.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "blas/blas1.hpp"
#include "common/flops.hpp"
#include "lapack/householder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::twostage {

V2Factor::V2Factor(idx n, idx nb, idx d) : n_(n), nb_(nb), d_(d) {
  require(n >= 0 && nb >= 1 && d >= 1 && d <= nb,
          "V2Factor: bad dimensions");
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
void sym_two_sided(const WorkBand& b, idx r1, idx len, const double* v_in,
                   double tau, double* w_in) {
  if (tau == 0.0 || len <= 0) return;
  count_flops(4 * len * len + 4 * len);
  const double* __restrict__ v = v_in;
  double* __restrict__ w = w_in;
  // w = tau * S v using one pass over the stored lower triangle.
  for (idx k = 0; k < len; ++k) w[k] = 0.0;
  for (idx j = 0; j < len; ++j) {
    const double* __restrict__ cj = b.col(r1 + j, r1 + j);
    w[j] += cj[0] * v[j];
    const double vj = v[j];
    double acc = 0.0;
    for (idx i = j + 1; i < len; ++i) {
      w[i] += cj[i - j] * vj;
      acc += cj[i - j] * v[i];
    }
    w[j] += acc;
  }
  for (idx k = 0; k < len; ++k) w[k] *= tau;
  // w <- w - (tau/2)(w^T v) v ; then S -= v w^T + w v^T.
  const double alpha = -0.5 * tau * blas::dot(len, w, 1, v, 1);
  blas::axpy(len, alpha, v, 1, w, 1);
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
  double acc = 0.0;
  for (idx i = 0; i < len; ++i) acc += v[i] * cj[i];
  acc *= tau;
  for (idx i = 0; i < len; ++i) cj[i] -= acc * v[i];
}

/// Type 1 (xHBCEU): start sweep s -- generate the reflector annihilating the
/// band column s below its d-th sub-diagonal (d = 1 for the tridiagonal
/// chase, d > 1 for an intermediate successive-reduction level) and update
/// the symmetric block it touches.  For d > 1 the reflector rows also hold
/// in-band entries of the d-1 not-yet-reduced columns s+1..s+d-1, which see
/// the reflector from the left (their transposed images via symmetry).
void hbceu(const WorkBand& b, idx n, idx nb, idx d, idx s, double* v,
           double& tau, double* w) {
  const idx r1 = s + d;
  const idx len = std::min(nb - d + 1, n - r1);
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
  if (tau != 0.0) {
    count_flops(4 * len * (d - 1));
    for (idx j = s + 1; j < r1; ++j) apply_left_col(b, r1, len, j, v, tau);
  }
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
///  - annihilate column r1's out-of-band fill with a new reflector (vn)
///    pivoting on the last in-band row K1 = r1 + nb;
///  - apply vn from the left to the delayed columns r1+1 .. K1-1 (the bulge
///    remainder plus, for d > 1, the d-1 in-band columns between the two
///    reflector spans);
///  - apply vn two-sidedly to the symmetric block B(K1:K2, K1:K2).
/// For d = 1 the new span starts exactly where the bulge block does
/// (K1 == r1 + lenU) and this is the classic kernel pair.
void hbrel_hblru(const WorkBand& b, idx n, idx nb, idx d, idx r1, idx lenU,
                 const double* vp, double taup, double* vn, double& taun,
                 double* w) {
  // --- hbrel: deferred right application, creating the bulge. ---
  apply_right(b, n, nb, r1, lenU, vp, taup, w);
  const idx K1 = r1 + nb;
  const idx lenN = std::min(nb - d + 1, n - K1);
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
    for (idx j = r1 + 1; j < K1; ++j)
      apply_left_col(b, K1, lenN, j, vn, taun);
  }
  // --- hblru trailing part: two-sided update of the symmetric block. ---
  sym_two_sided(b, K1, lenN, vn, taun, w);
}

/// Finished hops of one sweep, on its own cache line: the body running
/// sweep s+1 polls it while the body running sweep s stores to it.
struct alignas(64) SweepProgress {
  std::atomic<idx> hops{0};
};

/// Returns once at least `target` hops are published.  Spins first, since
/// the sweep ahead is normally only a hop away, then yields so that a
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

/// One chase level: reduces the working band (bandwidth nb, bulge headroom
/// already allocated in wb) to bandwidth d in place, recording every
/// reflector.  d only changes the geometry of each sweep's starting
/// reflector, so all levels of a successive reduction share the kernels and
/// this pipeline.
///
/// Up to `width` bodies each take the next sweep from a shared counter and
/// run its hops in order.  Hop u of sweep s starts once sweep s-1 has
/// finished hops 0..u+1: the lattice dependences (s,u) <- (s-1,u), (s-1,u+1)
/// of the paper's Section 5.2, checked per hop; (s,u) <- (s,u-1) is program
/// order.  Every hop does the same arithmetic whichever body runs it, so the
/// result is bitwise identical at every width.
V2Factor chase_level(const WorkBand& wb, idx n, idx nb, idx d, int width) {
  V2Factor v2(n, std::max<idx>(nb, 1), std::min(d, std::max<idx>(nb, 1)));
  if (nb <= d || n < d + 2) return v2;  // nothing below the target band

  const idx nsweeps = v2.nsweeps();
  std::vector<SweepProgress> progress(static_cast<size_t>(nsweeps));
  std::atomic<idx> next{0};
  auto body = [&] {
    std::vector<double> w(static_cast<size_t>(nb));
    for (idx s = next++; s < nsweeps; s = next++) {
      obs::Span span("chase", static_cast<std::int32_t>(s));
      const idx nbl = v2.nblocks(s);
      std::atomic<idx>& done = progress[static_cast<size_t>(s)].hops;
      for (idx u = 0; u < nbl; ++u) {
        if (s > 0)
          wait_for_hops(progress[static_cast<size_t>(s - 1)].hops,
                        std::min(v2.nblocks(s - 1), u + 2));
        if (u == 0) {
          hbceu(wb, n, nb, d, s, v2.v(s, 0), v2.tau(s, 0), w.data());
        } else {
          hbrel_hblru(wb, n, nb, d, v2.start(s, u - 1), v2.len(s, u - 1),
                      v2.v(s, u - 1), v2.tau(s, u - 1), v2.v(s, u),
                      v2.tau(s, u), w.data());
        }
        if (u + 1 < nbl) done.store(u + 1, std::memory_order_release);
      }
      // Sweep tail: the final reflector can leave rows below its block (at
      // most d-1; none for d == 1) with no next hop to right-apply it --
      // finish the application here, before the last hop is published.
      apply_right(wb, n, nb, v2.start(s, nbl - 1), v2.len(s, nbl - 1),
                  v2.v(s, nbl - 1), v2.tau(s, nbl - 1), w.data());
      done.store(nbl, std::memory_order_release);
    }
  };
  // A body only waits on the sweep before its own, which a body that is
  // already running took earlier; fork_join keeps every body live at once,
  // so each wait ends.  One body runs the sweeps in order and never waits.
  const int bodies = static_cast<int>(std::min<idx>(width, nsweeps));
  if (bodies <= 1 || rt::ThreadPool::in_parallel_region())
    body();
  else
    rt::ThreadPool::instance().fork_join(bodies, [&](int) { body(); });
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

  // Successive band reduction (nb -> nb/2 -> 1) when the intermediate level
  // actually shrinks the band; otherwise one direct nb -> 1 chase.
  const idx d1 = nb / 2;
  const bool successive = opts.successive && d1 >= 2 && n >= 3;

  if (successive) {
    // Level A: nb -> d1.
    result.pre_levels.push_back(chase_level(wb, n, nb, d1, width));

    // Repack the narrowed band into working storage sized for level B's
    // bulges (2*d1+1 rows); the wider level-A store is released here.
    const idx ldwb2 = 2 * d1 + 1;
    std::vector<double> wstore2(static_cast<size_t>(ldwb2 * n), 0.0);
    WorkBand wb2{wstore2.data(), ldwb2};
    for (idx j = 0; j < n; ++j) {
      const idx iend = std::min(n, j + d1 + 1);
      for (idx i = j; i < iend; ++i) wb2.at(i, j) = wb.at(i, j);
    }
    std::vector<double>().swap(wstore);

    // Level B: d1 -> 1.
    result.v2 = chase_level(wb2, n, d1, 1, width);
    for (idx i = 0; i < n; ++i)
      result.d[static_cast<size_t>(i)] = wb2.at(i, i);
    for (idx i = 0; i + 1 < n; ++i)
      result.e[static_cast<size_t>(i)] = wb2.at(i + 1, i);
    return result;
  }

  result.v2 = chase_level(wb, n, std::max<idx>(nb, 1), 1, width);
  for (idx i = 0; i < n; ++i) result.d[static_cast<size_t>(i)] = wb.at(i, i);
  for (idx i = 0; i + 1 < n; ++i)
    result.e[static_cast<size_t>(i)] = wb.at(i + 1, i);
  return result;
}

}  // namespace tseig::twostage
