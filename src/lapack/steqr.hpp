// Symmetric tridiagonal eigensolvers by implicit-shift QL/QR iteration
// (LAPACK xSTEQR / xSTERF equivalents).
//
// In the paper's taxonomy (Table 1) this is the "EV / QR" method: O(n^2) for
// eigenvalues, ~6 n^3 for eigenvectors because every rotation is applied to
// the dense Z.  steqr returns eigenpairs: it is the EV solver, the reference
// eigensolver of the tests and the leaf solver of the divide-and-conquer
// implementation in src/tridiag.  sterf returns eigenvalues only, by the
// root-free Pal-Walker-Kahan iteration of LAPACK dsterf: it works on e^2 and
// takes no square root per rotation, so a sweep is a shorter dependence
// chain than steqr's.
#pragma once

#include "common/types.hpp"

namespace tseig::lapack {

/// Computes all eigenpairs of the symmetric tridiagonal matrix with
/// diagonal d[0..n) and subdiagonal e[0..n-1).
///
/// NOTE: `e` must have capacity n (one more than the n-1 significant
/// entries); e[n-1] is used as scratch during the bulge chase.
///
/// On exit d holds the eigenvalues in ascending order and e is destroyed.
/// z is required: an ldz-by-n matrix that on entry contains the matrix used
/// to accumulate rotations (identity for eigenvectors of T itself, or Q for
/// eigenvectors of Q T Q^T); on exit column j corresponds to eigenvalue d[j].
/// `zrows` is the number of rows of z to update.
///
/// Throws convergence_error if an off-diagonal fails to deflate within the
/// standard 30n sweep budget (does not happen for finite input in practice).
void steqr(idx n, double* d, double* e, double* z, idx ldz, idx zrows);

/// Computes all eigenvalues of the symmetric tridiagonal (d, e) by the
/// root-free QL/QR iteration of LAPACK dsterf.  The matrix is split where
/// |e[i]| <= eps sqrt|d[i]| sqrt|d[i+1]|; each unreduced block is scaled by a
/// power of two into [sqrt(safmin)/eps^2, sqrt(safmax)/3] when its max-norm
/// lies outside, iterated by QL or QR (whichever deflates from the block's
/// smaller end), with 2x2 blocks solved in closed form, and scaled back.
/// One step of the sweep is reformulated to shorten its dependence chain
/// (see steqr.cpp); the rest follows dsterf operation for operation.
///
/// On exit d holds the eigenvalues in ascending order and e[0..n-1) is
/// destroyed; e[n-1] is neither read nor written.  Throws convergence_error
/// when the 30n sweep budget runs out (NaN input).
void sterf(idx n, double* d, double* e);

}  // namespace tseig::lapack
