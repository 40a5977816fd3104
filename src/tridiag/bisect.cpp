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

/// Bisects [lo, hi] (with counts clo <= target < chi) until the eigenvalue
/// with 0-based index `target` is pinned to machine accuracy.
double bisect_one(idx n, const double* d, const double* e2, double pivmin,
                  idx target, double lo, double hi) {
  for (int it = 0; it < 128; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (hi - lo <= 2.0 * kEps * std::max(std::fabs(lo), std::fabs(hi)) + kSafmin)
      break;
    if (count_below(n, d, e2, pivmin, mid) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
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
  const std::vector<double> e2 = squares(n, e);
  return count_below(n, d, e2.data(), pivmin_of(e2), x);
}

std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                idx il, idx iu) {
  require(0 <= il && il <= iu && iu < n, "stebz_index: bad index range");
  double gl, gu;
  gershgorin(n, d, e, gl, gu);
  const std::vector<double> e2 = squares(n, e);
  const double pivmin = pivmin_of(e2);
  const idx m = iu - il + 1;
  std::vector<double> w(static_cast<size_t>(m));
  // Every index is bisected on its own from the Gershgorin interval, so its
  // eigenvalue is the same whichever worker computes it.
  std::atomic<idx> next{0};
  run_self_scheduled(workers_for(m, 64.0 * static_cast<double>(n)), [&](int) {
    for (idx j = next++; j < m; j = next++)
      w[static_cast<size_t>(j)] =
          bisect_one(n, d, e2.data(), pivmin, il + j, gl, gu);
  });
  return w;
}

std::vector<double> stebz_value(idx n, const double* d, const double* e,
                                double vl, double vu) {
  require(vl < vu, "stebz_value: bad interval");
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
  double gl, gu;
  gershgorin(n, d, e, gl, gu);
  const double tnorm = std::max(std::fabs(gl), std::fabs(gu));
  const double ortol = 1e-3 * std::max(tnorm, kSafmin);
  const double pivmin = std::max(pivmin_of(squares(n, e)), kEps * tnorm * kEps);

  // Clusters are the maximal runs of eigenvalues whose gaps are <= ortol;
  // cluster c is w[starts[c] .. starts[c + 1]).
  std::vector<idx> starts{0};
  for (idx j = 1; j < m; ++j)
    if (w[static_cast<size_t>(j)] - w[static_cast<size_t>(j - 1)] > ortol)
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
      stein_cluster(n, d, e, w, starts[static_cast<size_t>(c)],
                    starts[static_cast<size_t>(c + 1)], pivmin, ws, z, ldz);
  });
}

}  // namespace tseig::tridiag
