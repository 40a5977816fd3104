#include "solver/syev.hpp"

#include <algorithm>
#include <cmath>

#include "blas/blas3.hpp"
#include "common/flops.hpp"
#include "common/scaling.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "onestage/sytrd.hpp"
#include "solver/syev_small.hpp"
#include "tridiag/bisect.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig::solver {
namespace {

/// Automatic tile/band width (opts.nb == 0): the Section 7.1 compromise.
/// Stage 1 wants large tiles (Level-3 efficiency grows until ~nb = 64..128
/// on current cores); stage 2 pays 6 n^2 nb memory-bound flops and needs the
/// working set (a 2nb x 2nb window) inside L2.  Scaling nb ~ n/16 between
/// those bounds tracks the measured optimum of bench_fig5_tilesize.
idx auto_nb(idx n) {
  const idx nb = n / 16;
  return std::clamp<idx>(nb - nb % 8, 32, 96);
}

/// LAPACK dsyev's safe range for max|a_ij|: sqrt(safmin / eps) and its
/// reciprocal.  Outside it the pipeline scales the matrix first.
constexpr double kRmin = 0x1p-485;
constexpr double kRmax = 0x1p485;

/// Number of eigenvector columns implied by the fraction option (syev()
/// has already checked 0 < fraction <= 1).
idx subset_size(idx n, const SyevOptions& opts) {
  if (opts.job == jobz::values_only) return 0;
  return std::max<idx>(
      1, static_cast<idx>(std::llround(opts.fraction * static_cast<double>(n))));
}

/// Subset eigen-solution of the tridiagonal (d, e): bisection eigenvalues
/// honoring the range selection, then inverse iteration when vectors are
/// requested.  Returns the eigenvalues; fills z (n-by-w.size()).
std::vector<double> tridiag_subset(idx n, const double* d, const double* e,
                                   const SyevOptions& opts, idx m_default,
                                   Matrix& z) {
  std::vector<double> w;
  {
    obs::Span span("stebz");
    switch (opts.sel) {
      case range::by_index:
        require(0 <= opts.il && opts.il <= opts.iu && opts.iu < n,
                "syev: bad index range");
        w = tridiag::stebz_index(n, d, e, opts.il, opts.iu);
        break;
      case range::by_value:
        require(opts.vl < opts.vu, "syev: bad value range");
        w = tridiag::stebz_value(n, d, e, opts.vl, opts.vu);
        break;
      case range::all:
        w = tridiag::stebz_index(n, d, e, 0, m_default - 1);
        break;
    }
  }
  if (opts.job == jobz::vectors && !w.empty()) {
    obs::Span span("stein");
    z.reshape(n, static_cast<idx>(w.size()));
    tridiag::stein(n, d, e, w, z.data(), z.ld());
  }
  return w;
}

/// Phase timing helper: runs fn under the named telemetry phase,
/// accumulating seconds and flops into the PhaseBreakdown fields and handing
/// telemetry one phase record with the same two clock reads and the same
/// cost delta, so tseig_prof's per-phase report and PhaseBreakdown agree
/// exactly.  The delta covers the pool bodies fn forks (fork_join credits
/// their flops and bytes to this thread) -- the roofline analyzer's input.
template <class F>
void timed(obs::Phase phase, const char* label, double& seconds,
           std::uint64_t& flops, F&& fn) {
  const obs::PhaseScope scope_phase(phase);
  const double t0 = obs::now_seconds();
  FlopScope scope;
  ByteScope bytes;
  fn();
  const double t1 = obs::now_seconds();
  obs::PhaseCost cost;
  cost.flops = scope.count();
  cost.bytes = bytes.count();
  seconds += t1 - t0;
  flops += cost.flops;
  obs::record_phase(label, phase, t0, t1, cost);
}

/// Closed-form lane driver for n <= 3: one kernel call replaces every
/// pipeline phase, then the same range/fraction selection semantics as
/// tridiag_subset are applied to the full (ascending) spectrum.  The whole
/// lane is accounted under the solve phase (reduction and update are
/// genuinely zero work here).
SyevResult solve_small_n(idx n, const double* a, idx lda,
                         const SyevOptions& opts) {
  SyevResult res;
  timed(obs::Phase::small_n, "small_n", res.phases.solve_seconds,
        res.phases.solve_flops,
        [&] { res = small::solve_lane(n, a, lda, opts); });
  return res;
}

/// Tridiagonal solve and back-transformation shared by both drivers: the
/// eigenvalues of T = (d, e) under the range/fraction selection and, with
/// vectors, T's eigenvectors mapped back to A's basis by
/// back_transform(z) -- ormtr for the one-stage reduction, Q2 then Q1 for
/// the two-stage one.  d and e are overwritten.
template <class BackTransform>
void solve_tridiagonal(idx n, std::vector<double>& d, std::vector<double>& e,
                       const SyevOptions& opts, SyevResult& res,
                       BackTransform&& back_transform) {
  const idx m = subset_size(n, opts);
  if (opts.job == jobz::values_only && opts.sel == range::all &&
      opts.solver != eig_solver::bisect) {
    timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
          res.phases.solve_flops,
          [&] { lapack::sterf(n, d.data(), e.data()); });
    res.eigenvalues = d;
    return;
  }
  if (opts.sel != range::all || opts.solver == eig_solver::bisect) {
    // Subset path (MRRR role): bisection + inverse iteration.
    timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
          res.phases.solve_flops, [&] {
      res.eigenvalues =
          tridiag_subset(n, d.data(), e.data(), opts,
                         opts.job == jobz::values_only ? n : m, res.z);
    });
  } else {
    // Full spectrum of T with vectors: QL/QR or divide and conquer.
    Matrix evec(n, n);
    timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
          res.phases.solve_flops, [&] {
      if (opts.solver == eig_solver::qr) {
        lapack::laset(n, n, 0.0, 1.0, evec.data(), evec.ld());
        lapack::steqr(n, d.data(), e.data(), evec.data(), evec.ld(), n);
      } else {
        tridiag::StedcOptions sopts;
        sopts.crossover = opts.dc_crossover;
        sopts.num_workers = opts.num_workers;
        tridiag::stedc(n, d.data(), e.data(), evec.data(), evec.ld(), sopts);
      }
    });
    // SyevResult invariant: eigenvalues match z's m columns on every path.
    res.eigenvalues.assign(d.begin(), d.begin() + m);
    res.z.reshape(n, m);
    lapack::lacpy(n, m, evec.data(), evec.ld(), res.z.data(), res.z.ld());
  }
  if (res.z.cols() > 0) {
    timed(obs::Phase::update, "update", res.phases.update_seconds,
          res.phases.update_flops, [&] { back_transform(res.z); });
  }
}

SyevResult solve_one_stage(idx n, const double* a, idx lda,
                           const SyevOptions& opts) {
  SyevResult res;
  Matrix work(n, n);
  lapack::lacpy(n, n, a, lda, work.data(), work.ld());
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n)),
      tau(static_cast<size_t>(n));

  timed(obs::Phase::sytrd, "sytrd", res.phases.reduction_seconds,
        res.phases.reduction_flops, [&] {
    onestage::sytrd(n, work.data(), work.ld(), d.data(), e.data(), tau.data(),
                    opts.nb);
  });

  if (opts.job == jobz::vectors && opts.sel == range::all &&
      opts.solver == eig_solver::qr) {
    // EV: Q built explicitly (Table 1's "Gen Q"), rotations accumulate in it.
    const idx m = subset_size(n, opts);
    Matrix q(n, n);
    timed(obs::Phase::update, "gen_q", res.phases.update_seconds,
          res.phases.update_flops, [&] {
      lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
      onestage::ormtr(op::none, n, n, work.data(), work.ld(), tau.data(),
                      q.data(), q.ld(), opts.nb);
    });
    timed(obs::Phase::solve, "solve", res.phases.solve_seconds,
          res.phases.solve_flops, [&] {
      lapack::steqr(n, d.data(), e.data(), q.data(), q.ld(), n);
    });
    res.eigenvalues.assign(d.begin(), d.begin() + m);
    res.z.reshape(n, m);
    lapack::lacpy(n, m, q.data(), q.ld(), res.z.data(), res.z.ld());
    return res;
  }

  solve_tridiagonal(n, d, e, opts, res, [&](Matrix& z) {
    onestage::ormtr(op::none, n, z.cols(), work.data(), work.ld(), tau.data(),
                    z.data(), z.ld(), opts.nb);
  });
  return res;
}

SyevResult solve_two_stage(idx n, const double* a, idx lda,
                           const SyevOptions& opts) {
  SyevResult res;
  const idx nb = opts.nb;  // resolve_options: 1 <= nb <= max(1, n - 1)

  twostage::Sy2sbResult s1;
  timed(obs::Phase::stage1, "stage1", res.phases.stage1_seconds,
        res.phases.reduction_flops, [&] {
    twostage::Sy2sbOptions o1;
    o1.num_workers = opts.num_workers;
    o1.lookahead = opts.lookahead;
    s1 = twostage::sy2sb(n, a, lda, nb, o1);
  });

  twostage::Sb2stResult s2;
  timed(obs::Phase::stage2, "stage2", res.phases.stage2_seconds,
        res.phases.reduction_flops, [&] {
    twostage::Sb2stOptions o2;
    o2.num_workers = opts.num_workers;
    o2.stage2_workers = opts.stage2_workers;
    s2 = twostage::sb2st(s1.band, o2);
  });
  res.phases.reduction_seconds =
      res.phases.stage1_seconds + res.phases.stage2_seconds;

  // Back-transformation Z = Q1 Q2 E (Eq. 3): the 4 n^3 f phase that the
  // diamond-blocked Q2 and tiled Q1 keep compute-bound.
  solve_tridiagonal(n, s2.d, s2.e, opts, res, [&](Matrix& z) {
    twostage::apply_q2(op::none, s2.v2, z.data(), z.ld(), z.cols(), opts.ell,
                       opts.num_workers);
    twostage::apply_q1(op::none, s1.q1, z.data(), z.ld(), z.cols(),
                       opts.num_workers);
  });
  return res;
}

}  // namespace

const char* method_name(method m) {
  switch (m) {
    case method::one_stage:
      return "one_stage";
    case method::two_stage:
      return "two_stage";
    case method::automatic:
      break;
  }
  return "automatic";
}

SyevOptions resolve_options(idx n, const SyevOptions& opts) {
  SyevOptions o = opts;
  if (o.algo == method::automatic)
    o.algo = n <= kOneStageMaxN ? method::one_stage : method::two_stage;
  if (o.nb <= 0) o.nb = auto_nb(n);
  // Clamp once so a user-supplied nb > n never reaches the kernels (sytrd
  // used to clamp locally while the ormtr calls received the raw value).
  // The two-stage band can never exceed n - 1 (a max(2, n-1) clamp once let
  // nb = 2 through for n <= 2, feeding sy2sb a band wider than the matrix);
  // n == 1 degenerates to the 1x1 "band" nb = 1 that sy2sb accepts.
  o.nb = std::min(o.nb, o.algo == method::two_stage ? std::max<idx>(1, n - 1)
                                                    : n);
  // Worker count: 0 or negative selects the library default
  // (TSEIG_NUM_THREADS / hardware concurrency); everything downstream
  // receives a concrete count and executes on the shared pool.  A solve that
  // is itself running inside a parallel region (a whole-problem task of
  // syev_batch, or any user task) gets exactly one worker: every inner
  // fork-join loop would serialize anyway, and resolving to the hardware
  // default there would make the recorded options and any
  // worker-count-driven planning lie about the actual execution.
  o.num_workers = rt::ThreadPool::in_parallel_region()
                      ? 1
                      : rt::resolve_num_workers(o.num_workers);
  if (o.stage2_workers > o.num_workers) o.stage2_workers = o.num_workers;
  return o;
}

const char* run_method(idx n, const SyevOptions& opts) {
  return small::lane_eligible(n, opts)
             ? "small_n"
             : method_name(resolve_options(n, opts).algo);
}

SyevResult syev(idx n, const double* a, idx lda, const SyevOptions& opts) {
  require(n >= 1, "syev: empty matrix");
  require(opts.fraction > 0.0 && opts.fraction <= 1.0,
          "syev: fraction must be in (0, 1]");
  SyevOptions o = resolve_options(n, opts);
  // Level-3 kernels issued on this thread (panel factorizations, anything
  // outside a pool loop) inherit the solve's budget instead of the global
  // default: a 2-worker solve must not fan a gemm out over every core.
  const blas::ScopedKernelWorkers kernel_budget(o.num_workers);

  // Every method and solver rejects NaN/Inf in the referenced triangle.
  // Near underflow or overflow the pipeline runs on a copy scaled by a
  // power of two (exact), as LAPACK dsyev does, and scales the eigenvalues
  // back; in-range input is used as is.  The closed-form lane scales every
  // input itself.
  const double amax = small::require_finite(n, a, lda);
  const bool lane = small::lane_eligible(n, o);
  Scaling sc;
  Matrix scaled;
  if (!lane && amax > 0.0 && (amax < kRmin || amax > kRmax)) {
    sc = make_scaling(amax);
    scaled.reshape(n, n);
    for (idx j = 0; j < n; ++j)
      for (idx i = j; i < n; ++i) scaled(i, j) = a[i + j * lda] * sc.scale;
    a = scaled.data();
    lda = scaled.ld();
    o.vl *= sc.scale;
    o.vu *= sc.scale;
  }

  // Nested solves (whole-problem batch tasks) must not clobber the outer
  // scheduler's run metadata.
  if (obs::enabled() && !rt::ThreadPool::in_parallel_region())
    obs::set_run_meta({"syev", n, o.nb, o.num_workers, run_method(n, o)});

  SyevResult res = lane ? solve_small_n(n, a, lda, o)
                   : o.algo == method::one_stage
                       ? solve_one_stage(n, a, lda, o)
                       : solve_two_stage(n, a, lda, o);
  for (double& w : res.eigenvalues) w *= sc.unscale;
  return res;
}

}  // namespace tseig::solver
