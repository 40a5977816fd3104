// First stage of the two-stage algorithm: reduction of a dense symmetric
// matrix to symmetric band form, A = Q1 B Q1^T (paper Section 5.1), plus the
// application of Q1 needed by the eigenvector back-transformation (paper
// Section 6, Figure 3a).
//
// The reduction is the blocked form LAPACK 3.7 ships as xSYTRD_SY2SB rather
// than the paper's tile algorithm; Table 1's 4/3 n^3 flops are unchanged.
// For each panel j (the nb columns of block column j below the band):
//   * a recursive QR of the tall panel (lapack::geqrt3) yields V, T and the
//     R block that joins the band;
//   * X = A22 V T and W = X - 1/2 V (T^T (V^T X)), A22 being the trailing
//     matrix, of which only the lower triangle is held;
//   * A22 -= V W^T + W V^T on the lower triangle, a syr2k-shaped update.
// X is computed in row blocks and the update in block columns, both
// self-scheduled on the pool (run_self_scheduled).  With look-ahead the
// first body updates the next panel's columns and factors that panel while
// the other bodies update the rest of the trailing matrix -- the static
// look-ahead of Rodriguez-Sanchez et al. (arXiv:1709.00302).  Block widths
// depend on n and nb only, so every element sees one operation order and
// the results are bitwise identical across worker counts and look-ahead
// depths.
#pragma once

#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "twostage/sb2st.hpp"

namespace tseig::twostage {

/// The orthogonal factor of the band reduction, Q1 = H_0 H_1 ... H_{nt-2},
/// one block reflector H_j = I - V_j T_j V_j^T per panel.
struct Q1Factor {
  idx n = 0;
  idx nb = 0;
  /// The panels' reflectors back to back: panel j's block starts at
  /// panel_offset(j) and is rows(j)-by-nb with leading dimension rows(j),
  /// acting on rows (j+1)*nb .. n-1.  Its first t[j].cols() columns are the
  /// reflectors, with an explicit unit diagonal and zeros above it.
  std::vector<double> v;
  /// Per panel j: the k-by-k upper triangular T factor, zeros below.
  std::vector<Matrix> t;

  idx rows(idx j) const { return n - (j + 1) * nb; }
  idx panel_offset(idx j) const { return nb * (j * n - nb * j * (j + 1) / 2); }
};

/// Result of the dense-to-band reduction.
struct Sy2sbResult {
  BandMatrix band;  // bandwidth min(nb, n - 1)
  Q1Factor q1;
};

/// Scheduling options of the dense-to-band reduction.
struct Sy2sbOptions {
  /// Workers borrowed from the persistent pool (1 = run on the caller; <= 0
  /// selects the library default, TSEIG_NUM_THREADS).
  int num_workers = 1;
  /// Look-ahead depth: 0 factors each panel after the whole trailing update
  /// of its predecessor; >= 1 factors panel j + 1 on one body while the
  /// others finish panel j's update.  Depths above 1 behave as 1, because
  /// W of panel j + 1 needs the whole updated trailing matrix.  < 0 resolves
  /// TSEIG_LOOKAHEAD (default 1).  Results are bitwise identical at every
  /// depth.
  int lookahead = -1;
};

/// Resolves a look-ahead request: values >= 0 pass through; < 0 reads
/// TSEIG_LOOKAHEAD once (strict parse, warning + default 1 on bad values).
int resolve_lookahead(int requested);

/// Reduces the symmetric matrix held in `a` (lower triangle, n-by-n, lda)
/// to band form with bandwidth nb.  The contents of `a` are not modified
/// (the reduction works on a copy of the lower triangle).
Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  const Sy2sbOptions& opts);

/// Back-compat overload: worker count only, default look-ahead.
Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  int num_workers = 1);

/// Applies op(Q1) to the dense n-by-ncols matrix G in place:
///   trans == op::none : G <- Q1 G   (eigenvector back-transformation)
///   trans == op::trans: G <- Q1^T G
/// The panels go to lapack::apply_block_reflectors (Figure 3c's column
/// blocks); results are bitwise independent of num_workers (<= 0 = default).
void apply_q1(op trans, const Q1Factor& q1, double* g, idx ldg, idx ncols,
              int num_workers = 1);

}  // namespace tseig::twostage
