// Bisection eigenvalue finder and inverse-iteration eigenvector solver for
// symmetric tridiagonal matrices (LAPACK xSTEBZ / xSTEIN roles).
//
// In the paper's taxonomy this pair stands in for MRRR (DSYEVR): an O(n^2)
// phase-2 method that supports computing a SUBSET of the spectrum -- the
// capability behind Figure 4d (only f = 20% of the eigenvectors) -- while
// keeping phase 2 cheap relative to the reductions.  (True MRRR is the
// authors' library choice; bisection + inverse iteration exercises the same
// interface and cost profile.  See DESIGN.md, substitution table.)
#pragma once

#include <vector>

#include "common/types.hpp"

namespace tseig::tridiag {

/// Number of eigenvalues of the tridiagonal (d, e) strictly less than x
/// (Sturm sequence count).
idx sturm_count(idx n, const double* d, const double* e, double x);

/// Eigenvalues with 0-based indices il..iu (inclusive, ascending) computed
/// by bisection to roughly eps * |T| accuracy.  Groups of 8 consecutive
/// indices are bisected together, one Sturm pass over (d, e) serving all 8
/// shifts, and the groups run in parallel over blas::kernel_workers().
/// Each index keeps its own interval and stopping tests, so its eigenvalue
/// is bitwise the one a lone bisection gives, at every worker count.
///
/// When max(|d|, |e|) lies outside [2^-500, 2^500] (where e^2 would
/// overflow or underflow), the bisection runs on (d, e) scaled by a power
/// of two into [0.5, 1) and the eigenvalues are scaled back exactly.
/// sturm_count and stebz_value follow the same rule.  For n = 1 both
/// return d[0] exactly (when selected), as LAPACK dstebz does.
std::vector<double> stebz_index(idx n, const double* d, const double* e,
                                idx il, idx iu);

/// All eigenvalues in the half-open interval (vl, vu].
std::vector<double> stebz_value(idx n, const double* d, const double* e,
                                double vl, double vu);

/// Inverse iteration: computes eigenvectors for the given eigenvalues
/// (ascending, as produced by stebz) into z (n-by-w.size()).  A cluster is a
/// maximal run of eigenvalues whose consecutive gaps are at most
/// 1e-3 * max(|gl|, |gu|), the larger Gershgorin bound; its vectors are
/// reorthogonalized against each other.  Clusters run in parallel over
/// blas::kernel_workers(), and vector j starts from a generator seeded by j,
/// so z is bitwise the same at every worker count.  Outside stebz_index's
/// safe range, (d, e) and w are scaled by the same power of two, which
/// leaves the eigenvectors unchanged.
void stein(idx n, const double* d, const double* e,
           const std::vector<double>& w, double* z, idx ldz);

}  // namespace tseig::tridiag
