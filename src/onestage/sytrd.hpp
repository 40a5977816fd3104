// One-stage tridiagonal reduction (LAPACK xSYTRD lineage) and the
// application of its orthogonal factor (xORMTR role).
//
// This is the classic algorithm the paper benchmarks AGAINST (its "MKL
// DSYTRD" baseline): block Householder transformations reduce the dense
// symmetric matrix directly to tridiagonal form.  Each panel column requires
// a symmetric matrix-vector product with the whole trailing submatrix
// (xLATRD), which makes the reduction memory-bound -- the effect quantified
// by Eq. (4) and Figure 1a of the paper.  Only the lower-triangular storage
// variant is provided; the entire library works on the lower triangle.
#pragma once

#include "common/types.hpp"

namespace tseig::onestage {

/// Reduces the symmetric matrix A (lower triangle referenced, n-by-n) to
/// tridiagonal form T = Q^T A Q.
///
/// On exit: d[0..n) and e[0..n-1) hold the tridiagonal; the strictly-lower
/// part of A below the first subdiagonal holds the Householder vectors
/// (LAPACK layout, implicit leading 1 in row i+1 of column i); tau[0..n-1)
/// holds the reflector scalars.  `nb` is the panel width (values around
/// 32-64 are good; nb >= n falls back to the unblocked algorithm).
void sytrd(idx n, double* a, idx lda, double* d, double* e, double* tau,
           idx nb);

/// Unblocked reference variant (LAPACK xSYTD2), used for the trailing block
/// and by tests as an oracle for the blocked code.
void sytd2(idx n, double* a, idx lda, double* d, double* e, double* tau);

/// Applies Q (from sytrd's factored form) to the n-by-ncols matrix C:
///   trans == op::none : C <- Q C   (back-transformation of eigenvectors)
///   trans == op::trans: C <- Q^T C
/// Forms the compact-WY blocks of width nb up front, then applies them with
/// lapack::apply_block_reflectors on column blocks of C (Level-3 bound),
/// on blas::kernel_workers() workers; results do not depend on that count.
void ormtr(op trans, idx n, idx ncols, const double* a, idx lda,
           const double* tau, double* c, idx ldc, idx nb);

}  // namespace tseig::onestage
