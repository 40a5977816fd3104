#include "matgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "lapack/steqr.hpp"

namespace tseig::testing::matgen {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Glued-Wilkinson with explicit per-block sizes (the public builder and the
/// dense spectrum both funnel here).
Tridiag glued_blocks(const std::vector<idx>& sizes, double glue) {
  Tridiag t;
  idx total = 0;
  for (idx s : sizes) total += s;
  t.d.reserve(static_cast<size_t>(total));
  t.e.reserve(static_cast<size_t>(std::max<idx>(0, total - 1)));
  for (size_t b = 0; b < sizes.size(); ++b) {
    const idx m = sizes[b];
    const double mid = 0.5 * static_cast<double>(m - 1);
    for (idx i = 0; i < m; ++i)
      t.d.push_back(std::fabs(static_cast<double>(i) - mid));
    for (idx i = 0; i + 1 < m; ++i) t.e.push_back(1.0);
    if (b + 1 < sizes.size())
      t.e.push_back(glue);  // weak coupling to the next ladder
  }
  return t;
}

/// Near-equal partition of n into `blocks` parts (sizes differ by <= 1).
std::vector<idx> partition(idx n, idx blocks) {
  std::vector<idx> sizes;
  const idx base = n / blocks, extra = n % blocks;
  for (idx b = 0; b < blocks; ++b) sizes.push_back(base + (b < extra ? 1 : 0));
  return sizes;
}

/// Normalizes to max |eig| = 1 (no-op for an all-zero spectrum), applies the
/// scale and sorts ascending.
std::vector<double> finish(std::vector<double> w, double scale) {
  double amax = 0.0;
  for (double v : w) amax = std::max(amax, std::fabs(v));
  const double s = amax > 0.0 ? scale / amax : scale;
  for (double& v : w) v *= s;
  std::sort(w.begin(), w.end());
  return w;
}

}  // namespace

const char* class_name(spectrum_class c) {
  switch (c) {
    case spectrum_class::clustered_eps: return "clustered_eps";
    case spectrum_class::graded: return "graded";
    case spectrum_class::wilkinson: return "wilkinson";
    case spectrum_class::glued_wilkinson: return "glued_wilkinson";
    case spectrum_class::sign_flip: return "sign_flip";
    case spectrum_class::near_zero: return "near_zero";
    case spectrum_class::random_uniform: return "random_uniform";
  }
  return "?";
}

Tridiag wilkinson(idx n) {
  require(n >= 1, "matgen: wilkinson needs n >= 1");
  return glued_blocks({n}, 0.0);
}

Tridiag glued_wilkinson(idx blocks, idx block_n, double glue) {
  require(blocks >= 1 && block_n >= 1, "matgen: bad glued_wilkinson shape");
  return glued_blocks(std::vector<idx>(static_cast<size_t>(blocks), block_n),
                      glue);
}

std::vector<double> tridiag_eigenvalues(const Tridiag& t) {
  const idx n = static_cast<idx>(t.d.size());
  std::vector<double> d = t.d, e = t.e;
  lapack::sterf(n, d.data(), e.data());
  std::sort(d.begin(), d.end());
  return d;
}

std::vector<double> spectrum(const Spec& s) {
  const idx n = s.n;
  require(n >= 1, "matgen: empty spectrum");
  std::vector<double> w;
  w.reserve(static_cast<size_t>(n));
  switch (s.cls) {
    case spectrum_class::clustered_eps: {
      // Three anchors; members of a cluster split by 2 ulps each -- D&C must
      // deflate heavily, inverse iteration must reorthogonalize.
      const double anchors[3] = {-1.0, 1.0 / 3.0, 1.0};
      for (idx i = 0; i < n; ++i) {
        const double base = anchors[i % 3];
        w.push_back(base * (1.0 + 2.0 * kEps * static_cast<double>(i / 3)));
      }
      break;
    }
    case spectrum_class::graded:
      for (idx i = 0; i < n; ++i)
        w.push_back(std::pow(s.kappa, n > 1 ? -static_cast<double>(i) /
                                                  static_cast<double>(n - 1)
                                            : 0.0));
      break;
    case spectrum_class::sign_flip:
      for (idx i = 0; i < n; ++i) {
        const double mag =
            std::pow(s.kappa, n > 1 ? -static_cast<double>(i) /
                                          static_cast<double>(n - 1)
                                    : 0.0);
        w.push_back(i % 2 == 0 ? mag : -mag);
      }
      break;
    case spectrum_class::near_zero: {
      // +/- wings, a handful of exact zeros and a few-ulp neighborhood of
      // zero: probes deflation and the relative accuracy of tiny eigenvalues.
      const idx zeros = std::max<idx>(1, n / 4);
      const idx tiny = std::max<idx>(0, std::min<idx>(n - zeros, n / 4));
      const idx rest = n - zeros - tiny;
      for (idx i = 0; i < zeros; ++i) w.push_back(0.0);
      for (idx i = 0; i < tiny; ++i)
        w.push_back((i % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(i + 1) *
                    kEps);
      for (idx i = 0; i < rest; ++i)
        w.push_back((i % 2 == 0 ? 1.0 : -1.0) *
                    (0.5 + 0.5 * static_cast<double>(i) /
                               std::max<idx>(1, rest - 1)));
      break;
    }
    case spectrum_class::wilkinson:
      w = tridiag_eigenvalues(wilkinson(n));
      break;
    case spectrum_class::glued_wilkinson: {
      // Gluing strength a few hundred ulps: nearly blocks-fold degenerate
      // eigenvalues, the classic D&C deflation stressor.
      const idx blocks = std::clamp<idx>(n / 21, 2, 8);
      w = n >= 2 ? tridiag_eigenvalues(
                       glued_blocks(partition(n, blocks), 1e-12))
                 : std::vector<double>{0.0};
      break;
    }
    case spectrum_class::random_uniform: {
      Rng rng(s.seed ^ 0xA7C15ull);
      for (idx i = 0; i < n; ++i) w.push_back(2.0 * rng.uniform() - 1.0);
      break;
    }
  }
  return finish(std::move(w), s.scale);
}

Generated generate(const Spec& s) {
  const idx n = s.n;
  Generated g;
  g.spec = s;
  g.eigs = spectrum(s);
  g.a = Matrix(n, n);
  g.q = Matrix(n, n);
  for (idx j = 0; j < n; ++j) {
    for (idx i = 0; i < n; ++i) {
      g.a(i, j) = 0.0;
      g.q(i, j) = i == j ? 1.0 : 0.0;
    }
  }
  for (idx i = 0; i < n; ++i) g.a(i, i) = g.eigs[static_cast<size_t>(i)];
  if (n == 1) return g;

  // Stewart's method: apply random Householder similarities on trailing
  // blocks of growing size.  The product of the reflectors is Haar
  // distributed, and each two-sided update is the standard rank-2 form
  // A <- A - q u^T - u q^T with q = p - (tau/2)(u^T p) u, p = tau A u.
  Rng rng(s.seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<double> u(static_cast<size_t>(n)), p(static_cast<size_t>(n));
  for (idx k = n - 2; k >= 0; --k) {
    const idx m = n - k;  // trailing block size
    rng.fill_normal(u.data(), m);
    double unorm2 = 0.0;
    for (idx i = 0; i < m; ++i) unorm2 += u[static_cast<size_t>(i)] *
                                          u[static_cast<size_t>(i)];
    if (unorm2 == 0.0) continue;  // astronomically unlikely; skip reflector
    const double tau = 2.0 / unorm2;

    // p = tau * A_sub * u  (A_sub = trailing m-by-m block).
    for (idx i = 0; i < m; ++i) {
      double acc = 0.0;
      for (idx j = 0; j < m; ++j)
        acc += g.a(k + i, k + j) * u[static_cast<size_t>(j)];
      p[static_cast<size_t>(i)] = tau * acc;
    }
    double upk = 0.0;  // K = (tau/2) u^T p
    for (idx i = 0; i < m; ++i)
      upk += u[static_cast<size_t>(i)] * p[static_cast<size_t>(i)];
    upk *= 0.5 * tau;
    for (idx i = 0; i < m; ++i)
      p[static_cast<size_t>(i)] -= upk * u[static_cast<size_t>(i)];
    for (idx j = 0; j < m; ++j)
      for (idx i = 0; i < m; ++i)
        g.a(k + i, k + j) -= p[static_cast<size_t>(i)] *
                                 u[static_cast<size_t>(j)] +
                             u[static_cast<size_t>(i)] *
                                 p[static_cast<size_t>(j)];

    // Q <- H_k Q (left-multiply on the trailing rows), so after the loop
    // Q = H_0 ... H_{n-2} and A = Q diag Q^T.
    for (idx j = 0; j < n; ++j) {
      double acc = 0.0;
      for (idx i = 0; i < m; ++i)
        acc += u[static_cast<size_t>(i)] * g.q(k + i, j);
      acc *= tau;
      for (idx i = 0; i < m; ++i)
        g.q(k + i, j) -= acc * u[static_cast<size_t>(i)];
    }
  }

  // Exact symmetry (the rank-2 update is symmetric only to rounding).
  for (idx j = 0; j < n; ++j)
    for (idx i = j + 1; i < n; ++i) g.a(j, i) = g.a(i, j);
  return g;
}

std::vector<Spec> torture_cases(idx n, std::uint64_t seed_base) {
  // Per-class condition targets at their documented limits; scales chosen so
  // the Frobenius-based oracles (which square entries) stay in range.
  struct ClassKappa {
    spectrum_class cls;
    double kappa;
  };
  const ClassKappa classes[] = {
      {spectrum_class::clustered_eps, 1.0},
      {spectrum_class::graded, 1e15},
      {spectrum_class::wilkinson, 1.0},
      {spectrum_class::glued_wilkinson, 1.0},
      {spectrum_class::sign_flip, 1e12},
      {spectrum_class::near_zero, 1.0},
      {spectrum_class::random_uniform, 1.0},
  };
  const double scales[] = {1e-120, 1.0, 1e120};
  std::vector<Spec> out;
  std::uint64_t seed = seed_base;
  for (const ClassKappa& ck : classes) {
    for (double scale : scales) {
      Spec s;
      s.cls = ck.cls;
      s.n = n;
      s.kappa = ck.kappa;
      s.scale = scale;
      s.seed = seed++;
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace tseig::testing::matgen
