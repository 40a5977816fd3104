// First stage of the two-stage algorithm: reduction of a dense symmetric
// matrix to symmetric band form, A = Q1 B Q1^T (paper Section 5.1), plus the
// application of Q1 needed by the eigenvector back-transformation (paper
// Section 6, Figure 3a).
//
// The reduction is a tile algorithm: for every panel (tile column) j, a tile
// QR (GEQRT) factors the subdiagonal tile and a flat tree of TSQRTs couples
// it with each tile below; the resulting block reflectors are applied
// two-sidedly to the trailing tiles (SYRFB / TSMQR / corner kernels).  Tasks
// are submitted to the data-hazard runtime with one region per tile, which
// yields exactly the DAG execution described in the paper.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "twostage/tile_matrix.hpp"

namespace tseig::twostage {

/// The orthogonal factor of the band reduction in factored form: the GEQRT
/// reflector block of each panel plus the TSQRT reflector block of each
/// coupled tile, stored tile-wise (Figure 3a's tiled V1 layout).
struct Q1Factor {
  idx n = 0;
  idx nb = 0;
  idx nt = 0;

  /// Per panel j (0..nt-2): GEQRT reflectors of tile (j+1, j), explicit unit
  /// diagonal, rows_of(j+1)-by-kk(j); and the kk(j)-by-kk(j) T factor.
  std::vector<Matrix> vg;
  std::vector<Matrix> tg;

  /// Per (i, j) with j+2 <= i <= nt-1: TSQRT reflector block V2 of tile
  /// (i, j), rows_of(i)-by-nb; and its nb-by-nb T factor.  Flat-indexed via
  /// ts_index().
  std::vector<Matrix> vts;
  std::vector<Matrix> tts;

  /// Reflector count of panel j: min(rows_of(j+1), nb).
  idx kk(idx j) const;
  /// Rows in tile block i.
  idx rows_of(idx i) const { return i + 1 == nt ? n - i * nb : nb; }
  /// Flat index of the TS block (i, j).
  idx ts_index(idx i, idx j) const;
};

/// Result of the dense-to-band reduction.
struct Sy2sbResult {
  BandMatrix band;  // bandwidth nb
  Q1Factor q1;
};

/// Scheduling options of the dense-to-band reduction.
struct Sy2sbOptions {
  /// == 1 runs the plain sequential tile loop; > 1 executes the task DAG on
  /// that many workers borrowed from the persistent pool; <= 0 selects the
  /// library default (TSEIG_NUM_THREADS).
  int num_workers = 1;
  /// Look-ahead depth of the panel pipeline (parallel runs only).  The
  /// factorization chain of panel j (its GEQRT + TSQRT tree) starts as soon
  /// as the updates touching panel j's own columns are done AND panel
  /// j - 1 - lookahead has fully completed, so at most lookahead + 1 panels
  /// are in flight:
  ///   0  -- bulk-synchronous: each panel waits for the whole trailing
  ///         update of its predecessor (legacy static 3/2/1 priorities);
  ///   d>=1 -- d+1 panels pipeline; ready-queue priorities switch to the
  ///         critical-path heights from the obs reverse-topological DP;
  ///   <0 -- resolve TSEIG_LOOKAHEAD (default 1).
  /// Look-ahead only adds ordering edges, so results stay bitwise identical
  /// across every depth, worker count and fuzzed schedule.
  int lookahead = -1;
};

/// Resolves a look-ahead request: values >= 0 pass through; < 0 reads
/// TSEIG_LOOKAHEAD once (strict parse, warning + default 1 on bad values).
int resolve_lookahead(int requested);

/// Reduces the symmetric matrix held in `a` (lower triangle, n-by-n, lda)
/// to band form with bandwidth nb.  The contents of `a` are not modified
/// (the reduction works on a tiled copy).
Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  const Sy2sbOptions& opts);

/// Back-compat overload: worker count only, default look-ahead.
Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  int num_workers = 1);

/// Applies op(Q1) to the dense n-by-ncols matrix G in place:
///   trans == op::none : G <- Q1 G   (eigenvector back-transformation)
///   trans == op::trans: G <- Q1^T G
/// Each worker takes whole column blocks of G from a shared counter and
/// applies all of Q1 to them, so workers never share data (the paper's
/// per-core column distribution, Figure 3c).  Blocks are `col_block`
/// columns wide, narrowed to ceil(ncols / num_workers) rounded up to 8 when
/// that is smaller; results are bitwise independent of both arguments.
void apply_q1(op trans, const Q1Factor& q1, double* g, idx ldg, idx ncols,
              int num_workers = 1, idx col_block = 256);

}  // namespace tseig::twostage
