#include "twostage/sbtrd_rot.hpp"

#include <algorithm>
#include <cmath>

#include "common/flops.hpp"
#include "common/matrix.hpp"
#include "lapack/aux.hpp"

namespace tseig::twostage {
namespace {

/// Two-sided application of the rotation in plane (p, p+1) to the dense
/// symmetric matrix, touching only the band window [p-w, p+1+w].  Both
/// triangles are kept coherent.
void rot_two_sided(Matrix& a, idx n, idx p, idx w, double c, double s) {
  const idx q = p + 1;
  const idx lo = std::max<idx>(0, p - w);
  const idx hi = std::min<idx>(n - 1, q + w);
  count_flops(12 * (hi - lo + 1));
  // Each window element is read and rewritten in both triangles.
  count_bytes(2 * byte_count::kElem * 2 * (hi - lo + 1));
  // Rows p, q across the window columns (skip the 2x2 pivot block).
  for (idx k = lo; k <= hi; ++k) {
    if (k == p || k == q) continue;
    const double x = a(p, k);
    const double z = a(q, k);
    a(p, k) = c * x + s * z;
    a(q, k) = -s * x + c * z;
    a(k, p) = a(p, k);
    a(k, q) = a(q, k);
  }
  // The symmetric 2x2 pivot block.
  const double app = a(p, p);
  const double aqp = a(q, p);
  const double aqq = a(q, q);
  a(p, p) = c * c * app + 2.0 * c * s * aqp + s * s * aqq;
  a(q, q) = s * s * app - 2.0 * c * s * aqp + c * c * aqq;
  a(q, p) = (c * c - s * s) * aqp + c * s * (aqq - app);
  a(p, q) = a(q, p);
}

}  // namespace

SbtrdStats sbtrd_rotations(const BandMatrix& band, std::vector<double>& d,
                           std::vector<double>& e) {
  SbtrdStats stats;
  const idx n = band.n();
  const idx b = band.bandwidth();
  Matrix a = band.to_dense();

  // Peel diagonals b, b-1, ..., 2; each annihilation chases its fill-in
  // (one element, at distance bcur+1) down the band.
  for (idx bcur = std::min(b, n - 1); bcur >= 2; --bcur) {
    for (idx j = 0; j + bcur < n; ++j) {
      idx col = j;        // column of the element being annihilated
      idx row = j + bcur;  // its row
      for (;;) {
        const double z = a(row, col);
        if (z == 0.0) break;  // nothing to annihilate, no fill to chase
        const double x = a(row - 1, col);
        const double r = lapack::lapy2(x, z);
        const double c = x / r;
        const double s = z / r;
        // Window w = bcur+1 covers the transient fill on both sides.
        rot_two_sided(a, n, row - 1, bcur + 1, c, s);
        ++stats.rotations;
        a(row, col) = 0.0;  // annihilated exactly (round-off hygiene)
        a(col, row) = 0.0;
        // The rotation mixed columns row-1 and row: column row-1 picked up
        // the entry at distance bcur+1 -- the next chase target.
        col = row - 1;
        row = col + bcur + 1;
        if (row >= n) break;
      }
    }
  }

  d.assign(static_cast<size_t>(n), 0.0);
  e.assign(static_cast<size_t>(std::max<idx>(n, 1)), 0.0);
  for (idx i = 0; i < n; ++i) d[static_cast<size_t>(i)] = a(i, i);
  for (idx i = 0; i + 1 < n; ++i) e[static_cast<size_t>(i)] = a(i + 1, i);
  return stats;
}

}  // namespace tseig::twostage
