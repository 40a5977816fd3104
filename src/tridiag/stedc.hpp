// Divide-and-conquer symmetric tridiagonal eigensolver (LAPACK xSTEDC role).
//
// This is the paper's "EVD / D&C" phase-2 solver (Table 1): eigenvalues and
// eigenvectors of the tridiagonal matrix produced by the reduction.  The
// implementation follows the classic Cuppen / Gu-Eisenstat scheme, merge by
// merge as LAPACK's xLAED1-4:
//   * split T into two half-size tridiagonals plus a rank-one correction;
//   * recurse (QL/QR iteration below a crossover size);
//   * merge: deflate negligible/duplicate entries, solve the secular
//     equation for each remaining eigenvalue with Li's two-pole rational
//     model ("middle way", a few evaluations per root), recompute the
//     rank-one vector with the Gu-Eisenstat formula for orthogonal
//     eigenvectors, and multiply back with two GEMMs that skip the
//     structural zeros of the block-diagonal basis (the compute-bound bulk
//     of the phase, n^3 per merge of size n, 4/3 n^3 over the tree).
//
// Every node owns a diagonal block of z and a column slice of one per-call
// scratch, so a merge allocates no matrices.  Parallel execution flattens the
// recursion into an explicit merge tree and walks it level by level on the
// shared worker pool (see StedcOptions and docs/ALGORITHMS.md "Parallel
// merge tree"):
//   * the 2^depth independent leaves, and the merges of every level with at
//     least num_workers of them, run as one self-scheduled loop per level,
//     largest nodes first;
//   * the few large merges near the root run on the calling thread with
//     *internal* parallelism instead -- the k independent secular roots,
//     the Gu-Eisenstat vector and the rank-one eigenvector columns via
//     parallel_for, and the back-multiplication GEMMs split over row blocks
//     under the call's worker budget.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace tseig::tridiag {

/// Tuning/scheduling options for stedc.
struct StedcOptions {
  /// Subproblem size below which the QL/QR iteration is used directly.
  idx crossover = 32;
  /// Workers for the merge tree: 1 = fully sequential, > 1 = that many
  /// logical workers on the shared pool, <= 0 = the library default
  /// (TSEIG_NUM_THREADS / hardware concurrency).
  ///
  /// Timeline inspection goes through the unified telemetry layer
  /// (tseig::obs, TSEIG_TRACE=<path>): every leaf solve and merge records a
  /// span ("dc_leaf" / "dc_merge") on the shared process-wide epoch.
  int num_workers = 1;
};

/// Statistics of one stedc call, summed over its merges.
struct StedcStats {
  idx merges = 0;          // rank-one merges performed
  idx total_size = 0;      // sum of merge sizes
  idx deflated = 0;        // total deflated entries across merges
  idx secular_solves = 0;  // secular roots computed
  idx secular_iterations = 0;  // secular function evaluations (midpoint
                               // plus model steps) over all roots
};

/// Computes all eigenpairs of the symmetric tridiagonal (d, e).
///
/// On exit d holds the eigenvalues ascending and z (n-by-n, overwritten) the
/// corresponding orthonormal eigenvectors.  `e` (capacity n, significant
/// n-1) is destroyed.  The parallel path (num_workers > 1) executes the same
/// floating-point operations as the serial one, merge by merge, so results
/// are bitwise identical regardless of the worker count.  Returns the
/// call's merge statistics, which do not depend on the worker count either.
StedcStats stedc(idx n, double* d, double* e, double* z, idx ldz,
                 const StedcOptions& opts);

}  // namespace tseig::tridiag
