#include "lapack/steqr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/flops.hpp"
#include "lapack/aux.hpp"

namespace tseig::lapack {
namespace {

/// Sorts eigenvalues ascending, permuting the columns of z alongside
/// (selection sort, exactly as xSTEQR does -- n is small relative to the
/// O(n^3) rotation work and the permutation must move whole columns anyway).
void sort_eigen(idx n, double* d, double* z, idx ldz, idx zrows) {
  for (idx i = 0; i + 1 < n; ++i) {
    idx k = i;
    for (idx j = i + 1; j < n; ++j) {
      if (d[j] < d[k]) k = j;
    }
    if (k != i) {
      std::swap(d[i], d[k]);
      for (idx r = 0; r < zrows; ++r) std::swap(z[r + i * ldz], z[r + k * ldz]);
    }
  }
}

/// Eigenvalues of the symmetric 2x2 [[a, b], [b, c]] (LAPACK xLAE2): rt1
/// has the larger absolute value.  The smaller one is formed from the
/// determinant, so it keeps full relative accuracy.
void lae2(double a, double b, double c, double& rt1, double& rt2) {
  const double sm = a + c;
  const double adf = std::fabs(a - c);
  const double ab = std::fabs(b + b);
  const double acmx = std::fabs(a) > std::fabs(c) ? a : c;
  const double acmn = std::fabs(a) > std::fabs(c) ? c : a;
  double rt;
  if (adf > ab) {
    const double q = ab / adf;
    rt = adf * std::sqrt(1.0 + q * q);
  } else if (adf < ab) {
    const double q = adf / ab;
    rt = ab * std::sqrt(1.0 + q * q);
  } else {
    rt = ab * std::sqrt(2.0);  // includes ab = adf = 0
  }
  if (sm == 0.0) {
    rt1 = 0.5 * rt;
    rt2 = -0.5 * rt;
    return;
  }
  rt1 = 0.5 * (sm < 0.0 ? sm - rt : sm + rt);
  rt2 = (acmx / rt1) * acmn - (b / rt1) * b;
}

/// Power of two that brings a block of max-norm anorm into [lo, hi] (1 when
/// it already is): the iteration squares the off-diagonal, so the block is
/// kept away from overflow and underflow.  Multiplying by a power of two and
/// back is exact while the entries stay normal.
double block_scale(double anorm, double lo, double hi) {
  if (!std::isfinite(anorm)) return 1.0;  // the iteration reports it
  int ea = 0;
  std::frexp(anorm, &ea);
  int et = 0;
  if (anorm > hi) {
    std::frexp(hi, &et);
    return std::ldexp(1.0, et - ea - 1);
  }
  if (anorm < lo) {
    std::frexp(lo, &et);
    return std::ldexp(1.0, et - ea + 1);
  }
  return 1.0;
}

}  // namespace

void steqr(idx n, double* d, double* e, double* z, idx ldz, idx zrows) {
  if (n <= 1) return;
  const double eps = std::numeric_limits<double>::epsilon();
  const idx max_sweeps = 30 * n;
  idx sweeps = 0;

  // Implicit-shift QL iteration (EISPACK tql2 lineage): for each l, chase the
  // bottom-most unreduced block until e[l] deflates.
  for (idx l = 0; l < n; ++l) {
    for (;;) {
      // Find the first small subdiagonal at or above l.
      idx m = l;
      while (m < n - 1) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= eps * dd) break;
        ++m;
      }
      if (m == l) break;  // d[l] converged.
      if (++sweeps > max_sweeps)
        throw convergence_error("steqr: QL iteration failed to converge");

      // Wilkinson shift from the leading 2x2 of the block.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = lapy2(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (idx i = m - 1; i >= l; --i) {
        double f = s * e[i];
        const double b = c * e[i];
        r = lapy2(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Recover from underflow: split the matrix here and retry the
          // whole block (classic tql2 recovery path).
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        // Accumulate the rotation into columns i, i+1 of z.
        count_flops(6 * zrows);
        double* zi = z + i * ldz;
        double* zi1 = z + (i + 1) * ldz;
        for (idx k = 0; k < zrows; ++k) {
          f = zi1[k];
          zi1[k] = s * zi[k] + c * f;
          zi[k] = c * zi[k] - s * f;
        }
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  sort_eigen(n, d, z, ldz, zrows);
}

void sterf(idx n, double* d, double* e) {
  if (n <= 1) return;
  // LAPACK's constants: eps is the unit roundoff (dlamch('E')), and blocks
  // are scaled into [ssfmin, ssfmax] so that e^2 neither overflows nor
  // underflows.
  constexpr double eps = 0x1p-53;
  constexpr double eps2 = eps * eps;
  const double safmin = std::numeric_limits<double>::min();
  const double ssfmax = std::sqrt(1.0 / safmin) / 3.0;
  const double ssfmin = std::sqrt(safmin) / eps2;
  const idx max_sweeps = 30 * n;
  idx sweeps = 0;
  idx rotations = 0;

  for (idx l1 = 0; l1 < n;) {
    // The unreduced block [lsv, lendsv]: the first negligible e[m] at or
    // after l1 ends it.
    if (l1 > 0) e[l1 - 1] = 0.0;
    idx m = l1;
    for (; m < n - 1; ++m) {
      if (std::fabs(e[m]) <=
          std::sqrt(std::fabs(d[m])) * std::sqrt(std::fabs(d[m + 1])) * eps) {
        e[m] = 0.0;
        break;
      }
    }
    const idx lsv = l1;
    const idx lendsv = m;
    l1 = m + 1;
    if (lendsv == lsv) continue;

    // Max-norm of the block (LAPACK dlanst('M'): a NaN is kept).
    double anorm = 0.0;
    for (idx i = lsv; i <= lendsv; ++i) {
      const double a = std::fabs(d[i]);
      if (anorm < a || std::isnan(a)) anorm = a;
    }
    for (idx i = lsv; i < lendsv; ++i) {
      const double a = std::fabs(e[i]);
      if (anorm < a || std::isnan(a)) anorm = a;
    }
    if (anorm == 0.0) continue;
    const double scale = block_scale(anorm, ssfmin, ssfmax);
    if (scale != 1.0) {
      for (idx i = lsv; i <= lendsv; ++i) d[i] *= scale;
      for (idx i = lsv; i < lendsv; ++i) e[i] *= scale;
    }
    for (idx i = lsv; i < lendsv; ++i) e[i] *= e[i];

    // QR when the bottom of the block is the smaller end, QL otherwise:
    // each deflates from its small end.
    const bool qr = std::fabs(d[lendsv]) < std::fabs(d[lsv]);
    if (!qr) {
      // QL: d[l] deflates at the top; l walks down to lend.
      idx l = lsv;
      const idx lend = lendsv;
      while (l <= lend) {
        idx mm = l;
        while (mm < lend &&
               !(std::fabs(e[mm]) <= eps2 * std::fabs(d[mm] * d[mm + 1])))
          ++mm;
        if (mm < lend) e[mm] = 0.0;
        if (mm == l) {  // d[l] converged
          ++l;
          continue;
        }
        if (mm == l + 1) {  // 2x2 block in closed form
          double rt1 = 0.0;
          double rt2 = 0.0;
          lae2(d[l], std::sqrt(e[l]), d[l + 1], rt1, rt2);
          d[l] = rt1;
          d[l + 1] = rt2;
          e[l] = 0.0;
          l += 2;
          continue;
        }
        if (sweeps == max_sweeps)
          throw convergence_error("sterf: QL iteration failed to converge");
        ++sweeps;
        rotations += mm - l;

        // Wilkinson shift from the top 2x2, then one root-free sweep
        // (Pal-Walker-Kahan): the rotation is carried as c^2, s^2 and
        // p = gamma^2 / c, so no square root is taken per rotation.  One
        // step differs from dsterf: p is formed as gamma^2 * t with
        // t = r / p_old = 1 / c divided out beside c, which takes the
        // second division off the sweep's dependence chain.  dsterf's
        // gamma^2 / c is kept where t could overflow (c below DBL_MIN), and
        // oldc * bb where c = 0.
        const double p0 = d[l];
        const double rte = std::sqrt(e[l]);
        double sigma = (d[l + 1] - p0) / (2.0 * rte);
        const double r0 = lapy2(sigma, 1.0);
        sigma = p0 - rte / (sigma + std::copysign(r0, sigma));
        double c = 1.0;
        double s = 0.0;
        double gamma = d[mm] - sigma;
        double p = gamma * gamma;
        for (idx i = mm - 1; i >= l; --i) {
          const double bb = e[i];
          const double r = p + bb;
          if (i != mm - 1) e[i + 1] = s * r;
          const double oldc = c;
          c = p / r;
          s = bb / r;
          const double t = r / p;  // 1 / c, beside c
          const double oldgam = gamma;
          const double alpha = d[i];
          gamma = c * (alpha - sigma) - s * oldgam;
          d[i + 1] = oldgam + (alpha - gamma);
          const double g2 = gamma * gamma;
          p = c >= safmin ? g2 * t : c != 0.0 ? g2 / c : oldc * bb;
        }
        e[l] = s * p;
        d[l] = sigma + gamma;
      }
    } else {
      // QR: d[l] deflates at the bottom; l walks up to lend.
      idx l = lendsv;
      const idx lend = lsv;
      while (l >= lend) {
        idx mm = l;
        while (mm > lend &&
               !(std::fabs(e[mm - 1]) <= eps2 * std::fabs(d[mm] * d[mm - 1])))
          --mm;
        if (mm > lend) e[mm - 1] = 0.0;
        if (mm == l) {  // d[l] converged
          --l;
          continue;
        }
        if (mm == l - 1) {  // 2x2 block in closed form
          double rt1 = 0.0;
          double rt2 = 0.0;
          lae2(d[l], std::sqrt(e[l - 1]), d[l - 1], rt1, rt2);
          d[l] = rt1;
          d[l - 1] = rt2;
          e[l - 1] = 0.0;
          l -= 2;
          continue;
        }
        if (sweeps == max_sweeps)
          throw convergence_error("sterf: QR iteration failed to converge");
        ++sweeps;
        rotations += l - mm;

        const double p0 = d[l];
        const double rte = std::sqrt(e[l - 1]);
        double sigma = (d[l - 1] - p0) / (2.0 * rte);
        const double r0 = lapy2(sigma, 1.0);
        sigma = p0 - rte / (sigma + std::copysign(r0, sigma));
        double c = 1.0;
        double s = 0.0;
        double gamma = d[mm] - sigma;
        double p = gamma * gamma;
        for (idx i = mm; i < l; ++i) {
          const double bb = e[i];
          const double r = p + bb;
          if (i != mm) e[i - 1] = s * r;
          const double oldc = c;
          c = p / r;
          s = bb / r;
          const double t = r / p;  // 1 / c, beside c
          const double oldgam = gamma;
          const double alpha = d[i + 1];
          gamma = c * (alpha - sigma) - s * oldgam;
          d[i] = oldgam + (alpha - gamma);
          const double g2 = gamma * gamma;
          p = c >= safmin ? g2 * t : c != 0.0 ? g2 / c : oldc * bb;
        }
        e[l - 1] = s * p;
        d[l] = sigma + gamma;
      }
    }

    if (scale != 1.0) {
      const double unscale = 1.0 / scale;
      for (idx i = lsv; i <= lendsv; ++i) d[i] *= unscale;
    }
  }
  count_flops(flop_count::sterf(sweeps, rotations));
  std::sort(d, d + n);
}

}  // namespace tseig::lapack
