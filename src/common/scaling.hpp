// Exact power-of-two rescaling of a matrix's entries.
//
// Multiplying by a power of two is exact while the result stays normal, so
// a solver may run on scaled inputs and multiply its eigenvalues back
// without adding rounding.  The closed-form tiny-n lane scales every input;
// the tridiagonal bisection and inverse iteration scale only inputs whose
// magnitude lies outside the range where e^2 is safe.
#pragma once

#include <algorithm>
#include <cmath>

namespace tseig {

/// Factors of a power-of-two rescaling, with unscale = 1 / scale.
struct Scaling {
  double scale = 1.0;    // multiply inputs by this
  double unscale = 1.0;  // multiply eigenvalues by this
};

/// Scaling that maps the largest magnitude amax into [0.5, 1).  The exponent
/// is clamped to [-1022, 1023] so that both factors stay finite: a
/// subnormal amax lands below 0.5 and one of at least 2^1023 in [1, 2).  A
/// zero matrix keeps scale 1.
inline Scaling make_scaling(double amax) {
  Scaling s;
  if (amax > 0.0) {
    int ex = 0;
    std::frexp(amax, &ex);
    ex = std::clamp(ex, -1022, 1023);
    s.scale = std::ldexp(1.0, -ex);
    s.unscale = std::ldexp(1.0, ex);
  }
  return s;
}

}  // namespace tseig
