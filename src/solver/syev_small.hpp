// Closed-form dense symmetric eigensolvers for n <= 3: the batch-path fast
// lane that lets million-matrix tiny-n streams skip the full two-stage
// pipeline (ROADMAP item 4).
//
// The kernels are direct, not iterative:
//
//  * n = 1 is trivial; n = 2 uses the numerically sane rotation of Borges
//    (2017, "Numerically sane solution of the 2x2 real symmetric eigenvalue
//    problem"): the Kahan-style branch on the sign of the half-gap picks the
//    cancellation-free expression for (c, s), and both eigenvalues come from
//    the rotated quadratic forms instead of the classic mean +/- hypot
//    (which loses the small eigenvalue to cancellation when the matrix is
//    nearly singular).
//  * n = 3 solves the shifted characteristic polynomial trigonometrically
//    (shift by tr(A)/3, scale by the deviatoric norm, Cardano/Vieta angle)
//    and builds eigenvectors from cross products of rows of A - lambda I for
//    the two extreme (best-separated) eigenvalues, completing the triple
//    with their cross product.  A cheap a-posteriori quality gate (residual
//    + orthogonality at a few hundred ulps) catches near-degenerate triples,
//    where cross products lose all accuracy, and falls back to one Givens
//    tridiagonalization plus the library's QL/QR iteration (lapack::steqr).
//
// Every kernel first rescales its input by a power of two chosen from the
// largest referenced entry, so matrices scaled to the edge of the double
// range (|a_ij| near DBL_MAX or DBL_MIN) neither overflow the quadratic
// forms nor flush the deviatoric norm to zero; the back-scaling is exact,
// which keeps the lane bitwise-deterministic and exactly scale-covariant
// across powers of two.
//
// Only the lower triangle of `a` is referenced, matching the convention of
// the full pipeline (solver::syev) so the lane and the pipeline agree on
// which bytes they are allowed to read.
#pragma once

#include "common/types.hpp"
#include "solver/syev.hpp"

namespace tseig::solver::small {

/// Largest dimension the closed-form lane handles.
inline constexpr idx kMaxN = 3;

/// Process-wide environment opt-out: TSEIG_SMALL_N=0 disables the lane even
/// when SyevOptions::small_n_closed_form is set (the debugging oracle for
/// lane-vs-pipeline divergence).  Parsed once, strictly (runtime/env.hpp).
bool env_enabled();

/// True when syev()/syev_batch() route this problem through the closed-form
/// lane: n <= kMaxN, the option is on and the environment does not veto it.
bool lane_eligible(idx n, const SyevOptions& opts);

/// Throws invalid_argument when any referenced (lower-triangle) entry is NaN
/// or infinite; returns the largest magnitude among them.  syev() screens
/// every problem with it at entry, on every method and solver (the full
/// pipeline would otherwise fail to converge or return finite garbage);
/// solve_lane repeats it for the batch members that bypass syev().
double require_finite(idx n, const double* a, idx lda);

/// Computes all eigenvalues (w[0..n), ascending) and eigenvectors (columns
/// of the n-by-n matrix v, ldv >= n) of the symmetric matrix whose lower
/// triangle is stored in `a`.  Input must be finite (see require_finite).
/// Returns true when the closed-form path produced the result, false when
/// the n = 3 quality gate engaged the QL fallback.  Deterministic: repeated
/// calls on the same bytes yield identical bytes.
bool eigen_small(idx n, const double* a, idx lda, double* w, double* v,
                 idx ldv);

/// Nominal flop counts credited to the calling thread's FlopScope per solve
/// (LAWN-41 style constants; the fallback adds steqr's own accounting).
inline constexpr std::int64_t kFlops1 = 1;
inline constexpr std::int64_t kFlops2 = 28;
inline constexpr std::int64_t kFlops3 = 156;

/// The complete lane solve: input validation, eigen_small and the same
/// jobz/range/fraction selection semantics as the full pipeline, but WITHOUT
/// any timing or telemetry bookkeeping.  Callers own the accounting:
/// solver::syev wraps this in its phase-timing helper, and the batch's
/// tiny-chunk tasks stamp it with one clock-read pair per problem (the
/// per-call overhead of the general syev() entry -- option resolution,
/// worker budgeting, telemetry guards -- would otherwise dominate a
/// sub-microsecond solve).  Returns bitwise the same eigenvalues/vectors as
/// routing the problem through solver::syev.
SyevResult solve_lane(idx n, const double* a, idx lda,
                      const SyevOptions& opts);

}  // namespace tseig::solver::small
