#include "solver/syev_small.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/flops.hpp"
#include "common/scaling.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "runtime/env.hpp"

namespace tseig::solver::small {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
/// Quality gate for the analytic n = 3 eigenvectors: residual and pairwise
/// dot products beyond this many ulps of the (rescaled, O(1)) matrix norm
/// mean the cross products cancelled -- a near-degenerate triple -- and the
/// QL fallback takes over.  Well-separated spectra sit around 1 ulp, fully
/// clustered ones around eps/gap, so the gate has orders of magnitude of
/// slack on both sides.
constexpr double kGateUlps = 64.0;

/// Borges-2017 2x2 rotation: returns (c, s) with (c, s) the unit eigenvector
/// of the LARGER eigenvalue.  Branch-free apart from the sign test that
/// selects the cancellation-free expression.
void rot2(double a11, double a21, double a22, double& c, double& s) {
  const double delta = 0.5 * (a11 - a22);
  const double h = std::hypot(delta, a21);
  if (h == 0.0) {
    c = 1.0;
    s = 0.0;
    return;
  }
  if (delta >= 0.0) {
    c = delta + h;
    s = a21;
  } else {
    c = a21;
    s = h - delta;
  }
  const double rho = 1.0 / std::hypot(c, s);
  c *= rho;
  s *= rho;
}

/// n = 2 closed form on pre-scaled entries; w ascending, v columns.
void eig2(double a11, double a21, double a22, double* w, double* v, idx ldv) {
  double c = 1.0, s = 0.0;
  rot2(a11, a21, a22, c, s);
  // Rotated quadratic forms: exact to a few ulps even when the small
  // eigenvalue is at the cancellation limit of mean -/+ hypot.  The vector
  // stores sit between the two forms on purpose: with w[0] and w[1] stored
  // side by side, GCC's SLP vectorizer pairs the forms into one vfmaddsub,
  // which -ffp-contract=off does not prevent, and an FMA build would round
  // n = 2 differently from a generic one (scripts/check_isa_leak.sh).
  w[0] = c * c * a22 + s * (s * a11 - 2.0 * c * a21);
  v[0] = -s;       // column 0: eigenvector of the smaller eigenvalue
  v[1] = c;
  v[ldv + 0] = c;  // column 1: eigenvector of the larger eigenvalue
  v[ldv + 1] = s;
  w[1] = c * c * a11 + s * (s * a22 + 2.0 * c * a21);
}

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;
  double norm2() const { return x * x + y * y + z * z; }
};

Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

/// Entries of the (scaled) symmetric 3x3: diagonal p/q/r, off-diagonal
/// d = a21, e = a32, f = a31.
struct Sym3 {
  double p = 0.0, q = 0.0, r = 0.0, d = 0.0, e = 0.0, f = 0.0;

  Vec3 row(idx i, double shift) const {
    if (i == 0) return {p - shift, d, f};
    if (i == 1) return {d, q - shift, e};
    return {f, e, r - shift};
  }

  Vec3 apply(const Vec3& v) const {
    return {p * v.x + d * v.y + f * v.z, d * v.x + q * v.y + e * v.z,
            f * v.x + e * v.y + r * v.z};
  }

  double norm_bound() const {  // >= max |entry|, O(1) after rescaling
    double m = 0.0;
    for (double t : {p, q, r, d, e, f}) m = std::max(m, std::fabs(t));
    return m;
  }
};

/// Null-space direction of A - lambda I via the best-conditioned cross
/// product of its rows.  Returns false when every cross product vanishes
/// exactly (genuinely degenerate).
bool null_direction(const Sym3& a, double lambda, Vec3& out) {
  const Vec3 r0 = a.row(0, lambda), r1 = a.row(1, lambda),
             r2 = a.row(2, lambda);
  Vec3 best = cross(r0, r1);
  double bn = best.norm2();
  const Vec3 c02 = cross(r0, r2);
  if (c02.norm2() > bn) {
    best = c02;
    bn = best.norm2();
  }
  const Vec3 c12 = cross(r1, r2);
  if (c12.norm2() > bn) {
    best = c12;
    bn = best.norm2();
  }
  if (bn == 0.0) return false;
  const double inv = 1.0 / std::sqrt(bn);
  out = {best.x * inv, best.y * inv, best.z * inv};
  return true;
}

/// Sorts the three (eigenvalue, column) slots ascending by eigenvalue with a
/// stable 3-element network (deterministic for ties).
void sort3(double* w, Vec3* v) {
  auto cswap = [&](int i, int j) {
    if (w[j] < w[i]) {
      std::swap(w[i], w[j]);
      std::swap(v[i], v[j]);
    }
  };
  cswap(0, 1);
  cswap(1, 2);
  cswap(0, 1);
}

/// QL/QR fallback for near-degenerate triples: one Givens rotation in the
/// (1,2) plane tridiagonalizes the 3x3 (annihilating a31), then the
/// library's implicit-shift iteration finishes with guaranteed orthogonality.
/// Deterministic, like everything else in the lane.
void eig3_fallback(const Sym3& a, double* w, double* v, idx ldv) {
  double cg = 1.0, sg = 0.0;
  double t22 = a.q, t32 = a.e, t33 = a.r, t21 = a.d;
  const double rr = std::hypot(a.d, a.f);
  if (rr > 0.0 && a.f != 0.0) {
    cg = a.d / rr;
    sg = a.f / rr;
    t21 = rr;
    // Bottom 2x2 block [[q, e], [e, r]] under the (1,2)-plane rotation.
    t22 = cg * (cg * a.q + sg * a.e) + sg * (cg * a.e + sg * a.r);
    t32 = cg * (cg * a.e + sg * a.r) - sg * (cg * a.q + sg * a.e);
    t33 = cg * (cg * a.r - sg * a.e) - sg * (cg * a.e - sg * a.q);
  }
  double d[3] = {a.p, t22, t33};
  double e[3] = {t21, t32, 0.0};
  // A = G^T T G, so accumulate rotations on top of z = G^T.
  double z[9] = {1.0, 0.0, 0.0, 0.0, cg, sg, 0.0, -sg, cg};
  lapack::steqr(3, d, e, z, 3, 3);
  for (idx j = 0; j < 3; ++j) {
    w[j] = d[j];
    for (idx i = 0; i < 3; ++i) v[i + j * ldv] = z[i + j * 3];
  }
}

/// n = 3 closed form on pre-scaled entries; returns false when the QL
/// fallback produced the result.
bool eig3(const Sym3& a, double* w, double* v, idx ldv) {
  // Exactly diagonal input: sort the diagonal, permute identity columns.
  if (a.d == 0.0 && a.e == 0.0 && a.f == 0.0) {
    double dw[3] = {a.p, a.q, a.r};
    Vec3 dv[3] = {{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
    sort3(dw, dv);
    for (idx j = 0; j < 3; ++j) {
      w[j] = dw[j];
      v[0 + j * ldv] = dv[j].x;
      v[1 + j * ldv] = dv[j].y;
      v[2 + j * ldv] = dv[j].z;
    }
    return true;
  }

  // Shifted characteristic polynomial, solved trigonometrically: shift by
  // the mean eigenvalue m = tr/3, scale by the deviatoric norm p, then the
  // roots of the normalized cubic are 2 cos(phi + 2k pi / 3).
  const double p1 = a.d * a.d + a.e * a.e + a.f * a.f;
  const double m = (a.p + a.q + a.r) / 3.0;
  const double dp = a.p - m, dq = a.q - m, dr = a.r - m;
  const double p2 = dp * dp + dq * dq + dr * dr + 2.0 * p1;
  const double sp = std::sqrt(p2 / 6.0);
  // det(B)/2 for B = (A - mI)/sp, expanded on the shifted entries.
  const double inv = 1.0 / sp;
  const double bp = dp * inv, bq = dq * inv, br = dr * inv;
  const double bd = a.d * inv, be = a.e * inv, bf = a.f * inv;
  const double half_det =
      0.5 * (bp * (bq * br - be * be) - bd * (bd * br - be * bf) +
             bf * (bd * be - bq * bf));
  const double r = std::clamp(half_det, -1.0, 1.0);
  const double phi = std::acos(r) / 3.0;
  // cos(phi + 2pi/3) expanded via the addition formula so the compiler can
  // fuse cos/sin of the same angle into one sincos call: phi is in
  // [0, pi/3], far from the formula's cancellation regimes.
  const double cphi = std::cos(phi);
  const double sphi = std::sin(phi);
  constexpr double kHalfSqrt3 = 0.86602540378443864676;
  double w0 = m + 2.0 * sp * (-0.5 * cphi - kHalfSqrt3 * sphi);  // smallest
  double w2 = m + 2.0 * sp * cphi;                               // largest
  double w1 = 3.0 * m - w0 - w2;                            // middle (exact trace)

  // Eigenvectors for the two extreme (best-separated) eigenvalues from the
  // null spaces of A - lambda I; the middle one completes the right-handed
  // triple.  Cross products lose all accuracy when eigenvalues collide --
  // the quality gate below decides whether that happened.
  Vec3 v0, v2;
  if (!null_direction(a, w0, v0) || !null_direction(a, w2, v2)) {
    eig3_fallback(a, w, v, ldv);
    return false;
  }
  Vec3 vm = cross(v2, v0);
  const double vmn = vm.norm2();
  if (vmn == 0.0) {
    eig3_fallback(a, w, v, ldv);
    return false;
  }
  const double vmi = 1.0 / std::sqrt(vmn);
  vm = {vm.x * vmi, vm.y * vmi, vm.z * vmi};

  // A-posteriori gate: residual ||A v - lambda v||_inf and pairwise
  // orthogonality within kGateUlps ulps of the O(1) matrix norm.  Anything
  // worse means a near-degenerate triple; redo with the QL fallback.
  const double tol = kGateUlps * kEps * std::max(1.0, a.norm_bound());
  const Vec3 vecs[3] = {v0, vm, v2};
  const double ws[3] = {w0, w1, w2};
  for (int i = 0; i < 3; ++i) {
    const Vec3 av = a.apply(vecs[i]);
    const Vec3 res = {av.x - ws[i] * vecs[i].x, av.y - ws[i] * vecs[i].y,
                      av.z - ws[i] * vecs[i].z};
    if (!(std::max({std::fabs(res.x), std::fabs(res.y), std::fabs(res.z)}) <=
          tol)) {
      eig3_fallback(a, w, v, ldv);
      return false;
    }
  }
  if (!(std::fabs(dot(v0, vm)) <= kGateUlps * kEps) ||
      !(std::fabs(dot(v0, v2)) <= kGateUlps * kEps) ||
      !(std::fabs(dot(vm, v2)) <= kGateUlps * kEps)) {
    eig3_fallback(a, w, v, ldv);
    return false;
  }

  double sw[3] = {w0, w1, w2};
  Vec3 sv[3] = {v0, vm, v2};
  sort3(sw, sv);  // the trig roots are ordered already; this is a guarantee
  for (idx j = 0; j < 3; ++j) {
    w[j] = sw[j];
    v[0 + j * ldv] = sv[j].x;
    v[1 + j * ldv] = sv[j].y;
    v[2 + j * ldv] = sv[j].z;
  }
  return true;
}

}  // namespace

bool env_enabled() {
  static const bool on = [] {
    long v = 1;
    rt::parse_env_long("TSEIG_SMALL_N", 0, 1, &v);
    return v != 0;
  }();
  return on;
}

bool lane_eligible(idx n, const SyevOptions& opts) {
  return n <= kMaxN && opts.small_n_closed_form && env_enabled();
}

double require_finite(idx n, const double* a, idx lda) {
  double amax = 0.0;
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i) {
      const double v = a[i + j * lda];
      require(std::isfinite(v),
              "syev: non-finite entry (NaN or Inf) in the matrix");
      amax = std::max(amax, std::fabs(v));
    }
  return amax;
}

bool eigen_small(idx n, const double* a, idx lda, double* w, double* v,
                 idx ldv) {
  require(n >= 1 && n <= kMaxN, "eigen_small: n must be in [1, 3]");
  require(lda >= n && ldv >= n, "eigen_small: leading dimension < n");

  if (n == 1) {
    count_flops(kFlops1);
    w[0] = a[0];
    v[0] = 1.0;
    return true;
  }

  double amax = 0.0;
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < n; ++i)
      amax = std::max(amax, std::fabs(a[i + j * lda]));
  // Scaled into [0.5, 1), quadratic forms can neither overflow (inputs near
  // DBL_MAX) nor flush to zero (inputs near DBL_MIN).
  const Scaling sc = make_scaling(amax);

  if (n == 2) {
    count_flops(kFlops2);
    eig2(a[0] * sc.scale, a[1] * sc.scale, a[lda + 1] * sc.scale, w, v, ldv);
    w[0] *= sc.unscale;
    w[1] *= sc.unscale;
    return true;
  }

  count_flops(kFlops3);
  Sym3 s;
  s.p = a[0] * sc.scale;
  s.d = a[1] * sc.scale;
  s.f = a[2] * sc.scale;
  s.q = a[lda + 1] * sc.scale;
  s.e = a[lda + 2] * sc.scale;
  s.r = a[2 * lda + 2] * sc.scale;
  const bool closed = eig3(s, w, v, ldv);
  for (idx j = 0; j < 3; ++j) w[j] *= sc.unscale;
  return closed;
}

SyevResult solve_lane(idx n, const double* a, idx lda,
                      const SyevOptions& opts) {
  require(n >= 1 && n <= kMaxN, "syev: lane called with n > 3");
  require(opts.fraction > 0.0 && opts.fraction <= 1.0,
          "syev: fraction must be in (0, 1]");
  SyevResult res;
  require_finite(n, a, lda);
  double w[3];
  double v[9];
  eigen_small(n, a, lda, w, v, n);
  // Selection over the full ascending spectrum, mirroring tridiag_subset:
  // [lo, hi) is the selected index window.
  idx lo = 0, hi = n;
  switch (opts.sel) {
    case range::by_index:
      require(0 <= opts.il && opts.il <= opts.iu && opts.iu < n,
              "syev: bad index range");
      lo = opts.il;
      hi = opts.iu + 1;
      break;
    case range::by_value:
      require(opts.vl < opts.vu, "syev: bad value range");
      while (lo < n && !(w[lo] > opts.vl)) ++lo;
      hi = lo;
      while (hi < n && w[hi] <= opts.vu) ++hi;
      break;
    case range::all:
      // values_only reports the whole spectrum; vectors report the
      // fraction-selected m smallest (the m < n truncation invariant),
      // computed exactly like subset_size in the pipeline driver.
      if (opts.job == jobz::vectors)
        hi = std::max<idx>(
            1, static_cast<idx>(std::llround(
                   std::clamp(opts.fraction, 0.0, 1.0) *
                   static_cast<double>(n))));
      break;
  }
  const idx m = hi - lo;
  res.eigenvalues.assign(w + lo, w + hi);
  if (opts.job == jobz::vectors && m > 0) {
    res.z.reshape(n, m);
    lapack::lacpy(n, m, v + lo * n, n, res.z.data(), res.z.ld());
  }
  return res;
}

}  // namespace tseig::solver::small
