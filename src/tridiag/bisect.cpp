#include "tridiag/bisect.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/scaling.hpp"

namespace tseig::tridiag {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kSafmin = std::numeric_limits<double>::min();

/// Work (recurrence steps) a worker must receive before a loop forks onto
/// the pool; below it the fork costs more than it saves.
constexpr double kMinStepsPerWorker = 1 << 17;

/// Base seed of the inverse-iteration starting vectors; vector j uses
/// kSteinSeed + j, so it does not depend on which worker computes it.
constexpr std::uint64_t kSteinSeed = 0xC0FFEE;

/// Range of max(|d|, |e|) inside which the routines run on (d, e) as given:
/// e^2 can neither overflow nor lose the couplings that matter to underflow,
/// and the absolute DBL_MIN terms of the pads and the pivot floor stay
/// negligible.  Outside it they run on a copy scaled by a power of two.
constexpr double kSafeMin = 0x1p-500;
constexpr double kSafeMax = 0x1p500;

/// A copy of the tridiagonal (d, e) in the safe range: scaled by a power of
/// two into [0.5, 1) when max(|d|, |e|) lies outside [kSafeMin, kSafeMax],
/// unscaled otherwise.  Both are exact, so an eigenvalue of the copy times
/// sc.unscale is an eigenvalue of (d, e).
struct SafeTridiag {
  SafeTridiag(idx n, const double* d0, const double* e0)
      : d(d0, d0 + n), e(e0, e0 + std::max<idx>(n - 1, 0)) {
    double amax = 0.0;
    for (double v : d) amax = std::max(amax, std::fabs(v));
    for (double v : e) amax = std::max(amax, std::fabs(v));
    if (amax == 0.0 || (amax >= kSafeMin && amax <= kSafeMax)) return;
    sc = make_scaling(amax);
    for (double& v : d) v *= sc.scale;
    for (double& v : e) v *= sc.scale;
  }
  std::vector<double> d, e;
  Scaling sc;
};

/// Gershgorin interval [gl, gu] of the tridiagonal.
void gershgorin(idx n, const double* d, const double* e, double& gl,
                double& gu) {
  gl = d[0];
  gu = d[0];
  for (idx i = 0; i < n; ++i) {
    const double r = (i > 0 ? std::fabs(e[i - 1]) : 0.0) +
                     (i + 1 < n ? std::fabs(e[i]) : 0.0);
    gl = std::min(gl, d[i] - r);
    gu = std::max(gu, d[i] + r);
  }
  const double pad = kEps * std::max(std::fabs(gl), std::fabs(gu)) + kSafmin;
  gl -= 2.0 * pad;
  gu += 2.0 * pad;
}

/// Squared off-diagonals e[i]^2, i < n - 1.
std::vector<double> squares(idx n, const double* e) {
  std::vector<double> e2(static_cast<size_t>(std::max<idx>(n - 1, 0)));
  for (idx i = 0; i + 1 < n; ++i) e2[static_cast<size_t>(i)] = e[i] * e[i];
  return e2;
}

/// xSTEBZ's pivot floor max(DBL_MIN, max e^2 * DBL_MIN), evaluated as
/// DBL_MIN * max(1, max e^2).  Both give the same value, but the products
/// e^2 * DBL_MIN are subnormal whenever |e| < 1 and cost a microcode assist
/// each.
double pivmin_of(const std::vector<double>& e2) {
  double m = 1.0;
  for (double v : e2) m = std::max(m, v);
  return kSafmin * m;
}

/// Sturm count on precomputed squares e2 and pivot floor pivmin.
idx count_below(idx n, const double* d, const double* e2, double pivmin,
                double x) {
  idx count = 0;
  double q = d[0] - x;
  if (std::fabs(q) < pivmin) q = -pivmin;
  if (q < 0.0) ++count;
  for (idx i = 1; i < n; ++i) {
    q = d[i] - x - e2[i - 1] / q;
    if (std::fabs(q) < pivmin) q = -pivmin;
    if (q < 0.0) ++count;
  }
  return count;
}

/// Indices bisected together.  Their Sturm recurrences are independent
/// divide chains, so one pass over (d, e^2) runs at divide throughput
/// instead of waiting on each divide in turn.
constexpr int kLanes = 8;

/// count_below at kLanes shifts in one pass over (d, e2).  Each lane runs
/// count_below's operations in the same order; there is no multiply, so FMA
/// contraction cannot change the rounding, and each count equals
/// count_below's under every compiler flag.
void count_below_lanes(idx n, const double* d, const double* e2,
                       double pivmin, const double* x, idx* count) {
  double q[kLanes] = {};
  for (int l = 0; l < kLanes; ++l) {
    q[l] = d[0] - x[l];
    q[l] = std::fabs(q[l]) < pivmin ? -pivmin : q[l];
    count[l] = q[l] < 0.0;
  }
  for (idx i = 1; i < n; ++i) {
    const double di = d[i];
    const double ei = e2[i - 1];
    for (int l = 0; l < kLanes; ++l) {
      q[l] = di - x[l] - ei / q[l];
      q[l] = std::fabs(q[l]) < pivmin ? -pivmin : q[l];
      count[l] += q[l] < 0.0;
    }
  }
}

/// Bisects the eigenvalues with 0-based indices target[0..kLanes) from
/// [lo0, hi0] until each is pinned to machine accuracy, writing the interval
/// midpoints to w.  Every lane keeps its own interval, stops on its own
/// tests and makes at most 128 steps, so its value is the one a lone
/// bisection of that index returns.
void bisect_lanes(idx n, const double* d, const double* e2, double pivmin,
                  const idx* target, double lo0, double hi0, double* w) {
  double lo[kLanes], hi[kLanes], mid[kLanes];
  bool active[kLanes];
  idx count[kLanes] = {};
  for (int l = 0; l < kLanes; ++l) {
    lo[l] = lo0;
    hi[l] = hi0;
    mid[l] = lo0;
    active[l] = true;
  }
  for (int it = 0; it < 128; ++it) {
    bool any = false;
    for (int l = 0; l < kLanes; ++l) {
      if (!active[l]) continue;
      const double m = 0.5 * (lo[l] + hi[l]);
      if (m == lo[l] || m == hi[l] ||
          hi[l] - lo[l] <= 2.0 * kEps * std::max(std::fabs(lo[l]),
                                                 std::fabs(hi[l])) +
                               kSafmin) {
        active[l] = false;
        continue;
      }
      mid[l] = m;
      any = true;
    }
    if (!any) break;
    // A stopped lane recounts its last shift; the count is ignored.
    count_below_lanes(n, d, e2, pivmin, mid, count);
    for (int l = 0; l < kLanes; ++l) {
      if (!active[l]) continue;
      if (count[l] <= target[l]) {
        lo[l] = mid[l];
      } else {
        hi[l] = mid[l];
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) w[l] = 0.5 * (lo[l] + hi[l]);
}

/// Workers for `items` independent items of about `steps` recurrence steps
/// each: the caller's Level-3 kernel budget, reduced so that every worker
/// gets at least kMinStepsPerWorker.
int workers_for(idx items, double steps) {
  const double total = static_cast<double>(items) * steps;
  const auto useful = static_cast<idx>(total / kMinStepsPerWorker);
  return static_cast<int>(
      std::max<idx>(1, std::min<idx>(useful, blas::kernel_workers())));
}

}  // namespace

idx sturm_count(idx n, const double* d, const double* e, double x) {
  const SafeTridiag t(n, d, e);
  const std::vector<double> e2 = squares(n, t.e.data());
  return count_below(n, t.d.data(), e2.data(), pivmin_of(e2),
                     x * t.sc.scale);
}

std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                idx il, idx iu) {
  require(0 <= il && il <= iu && iu < n, "stebz_index: bad index range");
  // 1x1: the eigenvalue is d[0] exactly, as in LAPACK dstebz (bisection
  // would stop within its pivot floor of it: -pivmin/2 for d = {0}).
  if (n == 1) return {d[0]};
  const SafeTridiag t(n, d, e);
  double gl, gu;
  gershgorin(n, t.d.data(), t.e.data(), gl, gu);
  const std::vector<double> e2 = squares(n, t.e.data());
  const double pivmin = pivmin_of(e2);
  const double unscale = t.sc.unscale;
  const idx m = iu - il + 1;
  const idx groups = (m + kLanes - 1) / kLanes;
  std::vector<double> w(static_cast<size_t>(m));
  // An item is a group of kLanes consecutive indices, bisected together
  // from the Gershgorin interval; the last group repeats its last index in
  // the unused lanes.  Lanes share no bracket, so an eigenvalue is the same
  // whichever group and worker compute it.
  std::atomic<idx> next{0};
  const idx workers =
      std::min<idx>(groups, workers_for(m, 64.0 * static_cast<double>(n)));
  run_self_scheduled(static_cast<int>(workers), [&](int) {
    idx target[kLanes] = {};
    double wg[kLanes] = {};
    for (idx g = next++; g < groups; g = next++) {
      const idx j0 = g * kLanes;
      const idx width = std::min<idx>(kLanes, m - j0);
      for (idx l = 0; l < kLanes; ++l)
        target[l] = il + j0 + std::min(l, width - 1);
      bisect_lanes(n, t.d.data(), e2.data(), pivmin, target, gl, gu, wg);
      for (idx l = 0; l < width; ++l)
        w[static_cast<size_t>(j0 + l)] = wg[l] * unscale;
    }
  });
  return w;
}

std::vector<double> stebz_value(idx n, const double* d, const double* e,
                                double vl, double vu) {
  require(vl < vu, "stebz_value: bad interval");
  if (n == 1) {
    if (vl < d[0] && d[0] <= vu) return {d[0]};
    return {};
  }
  const idx il = sturm_count(n, d, e, vl);        // eigenvalues <= vl excluded
  const idx iu = sturm_count(n, d, e, vu);        // eigenvalues <= vu counted
  if (iu <= il) return {};
  return stebz_index(n, d, e, il, iu - 1);
}

namespace {

/// Solves (T - lambda I) x = b with partial pivoting (xGTSV-style); b is
/// overwritten with x.  d/e define T; scratch arrays provided by caller.
void tridiag_solve(idx n, const double* d, const double* e, double lambda,
                   double pivmin, double* dl, double* dd, double* du,
                   double* du2, double* b) {
  for (idx i = 0; i < n; ++i) dd[i] = d[i] - lambda;
  for (idx i = 0; i + 1 < n; ++i) {
    dl[i] = e[i];
    du[i] = e[i];
  }
  for (idx i = 0; i + 2 < n; ++i) du2[i] = 0.0;

  for (idx i = 0; i + 1 < n; ++i) {
    if (std::fabs(dd[i]) >= std::fabs(dl[i])) {
      if (std::fabs(dd[i]) < pivmin) dd[i] = std::copysign(pivmin, dd[i]);
      const double m = dl[i] / dd[i];
      dd[i + 1] -= m * du[i];
      b[i + 1] -= m * b[i];
    } else {
      const double m = dd[i] / dl[i];
      const double t_dd1 = dd[i + 1];
      const double t_du1 = (i + 2 < n) ? du[i + 1] : 0.0;
      dd[i] = dl[i];
      const double old_du = du[i];
      du[i] = t_dd1;
      if (i + 2 < n) {
        du2[i] = t_du1;
        du[i + 1] = -m * t_du1;
      }
      dd[i + 1] = old_du - m * t_dd1;
      std::swap(b[i], b[i + 1]);
      b[i + 1] -= m * b[i];
    }
  }
  if (std::fabs(dd[n - 1]) < pivmin)
    dd[n - 1] = std::copysign(pivmin, dd[n - 1] == 0.0 ? 1.0 : dd[n - 1]);
  b[n - 1] /= dd[n - 1];
  if (n >= 2) {
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / dd[n - 2];
    for (idx i = n - 3; i >= 0; --i)
      b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / dd[i];
  }
}

/// Scratch of one inverse-iteration worker.
struct SteinWork {
  explicit SteinWork(idx n)
      : dl(static_cast<size_t>(n)), dd(static_cast<size_t>(n)),
        du(static_cast<size_t>(n)), du2(static_cast<size_t>(n)),
        x(static_cast<size_t>(n)) {}
  std::vector<double> dl, dd, du, du2, x;
};

/// Inverse iteration for the cluster w[j0..j1): each vector is
/// reorthogonalized against the earlier members only, so clusters are
/// independent of each other.
void stein_cluster(idx n, const double* d, const double* e,
                   const std::vector<double>& w, idx j0, idx j1,
                   double pivmin, SteinWork& ws, double* z, idx ldz) {
  std::vector<double>& x = ws.x;
  double prev = 0.0;
  for (idx j = j0; j < j1; ++j) {
    // xSTEIN perturbation: members closer than pertol = 10 eps |lambda| are
    // pushed pertol apart, relative to lambda so it holds at every scale.
    double lambda = w[static_cast<size_t>(j)];
    const double pertol = 10.0 * std::fabs(kEps * lambda);
    if (j > j0 && lambda - prev < pertol) lambda = prev + pertol;
    prev = lambda;

    Rng rng(kSteinSeed + static_cast<std::uint64_t>(j));
    rng.fill_normal(x.data(), n);
    double nrm = blas::nrm2(n, x.data(), 1);
    blas::scal(n, 1.0 / nrm, x.data(), 1);

    for (int iter = 0; iter < 5; ++iter) {
      tridiag_solve(n, d, e, lambda, pivmin, ws.dl.data(), ws.dd.data(),
                    ws.du.data(), ws.du2.data(), x.data());
      // Reorthogonalize within the cluster before normalizing.
      for (idx p = j0; p < j; ++p) {
        const double proj = blas::dot(n, z + p * ldz, 1, x.data(), 1);
        blas::axpy(n, -proj, z + p * ldz, 1, x.data(), 1);
      }
      nrm = blas::nrm2(n, x.data(), 1);
      if (nrm == 0.0) {
        rng.fill_normal(x.data(), n);
        nrm = blas::nrm2(n, x.data(), 1);
      }
      blas::scal(n, 1.0 / nrm, x.data(), 1);
      // Growth of 1/eps-ish indicates convergence of inverse iteration.
      if (nrm > 1.0 / (std::sqrt(kEps) * 100.0) && iter >= 1) break;
    }
    blas::copy(n, x.data(), 1, z + j * ldz, 1);
  }
}

}  // namespace

void stein(idx n, const double* d, const double* e,
           const std::vector<double>& w, double* z, idx ldz) {
  const idx m = static_cast<idx>(w.size());
  if (n == 0 || m == 0) return;
  // Eigenvectors do not change under scaling, so only (d, e) and the
  // shifts are brought into the safe range.
  const SafeTridiag t(n, d, e);
  std::vector<double> shifts(w);
  for (double& v : shifts) v *= t.sc.scale;
  double gl, gu;
  gershgorin(n, t.d.data(), t.e.data(), gl, gu);
  const double tnorm = std::max(std::fabs(gl), std::fabs(gu));
  const double ortol = 1e-3 * std::max(tnorm, kSafmin);
  const double pivmin =
      std::max(pivmin_of(squares(n, t.e.data())), kEps * tnorm * kEps);

  // Clusters are the maximal runs of eigenvalues whose gaps are <= ortol;
  // cluster c is w[starts[c] .. starts[c + 1]).
  std::vector<idx> starts{0};
  for (idx j = 1; j < m; ++j)
    if (shifts[static_cast<size_t>(j)] - shifts[static_cast<size_t>(j - 1)] >
        ortol)
      starts.push_back(j);
  starts.push_back(m);
  const idx nclusters = static_cast<idx>(starts.size()) - 1;

  // Workers take whole clusters in order; a cluster's vectors depend only on
  // the cluster, not on the worker that computes them.
  const idx workers = std::min<idx>(
      nclusters, workers_for(m, 64.0 * static_cast<double>(n)));
  std::atomic<idx> next{0};
  run_self_scheduled(static_cast<int>(workers), [&](int) {
    SteinWork ws(n);
    for (idx c = next++; c < nclusters; c = next++)
      stein_cluster(n, t.d.data(), t.e.data(), shifts,
                    starts[static_cast<size_t>(c)],
                    starts[static_cast<size_t>(c + 1)], pivmin, ws, z, ldz);
  });
}

}  // namespace tseig::tridiag
