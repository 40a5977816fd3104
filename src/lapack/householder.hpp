// Householder reflector machinery (LAPACK xLARFG / xLARF / xLARFT / xLARFB
// equivalents) plus QR factorization helpers built on top of it.
//
// Storage convention used throughout tseig: reflector blocks V are stored as
// dense column panels with an EXPLICIT unit diagonal and explicit zeros above
// it.  Owning our storage lets xLARFB run as three GEMMs -- the
// compute-bound formulation the paper's back-transformation relies on --
// without the triangular special cases of the reference implementation.
// larfb is the library's one block-reflector kernel, and
// apply_block_reflectors its one column-block loop: Q1, Q2 and the
// one-stage Q are all applied through it.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace tseig::lapack {

/// Generates an elementary Householder reflector H = I - tau v v^T such that
/// H [alpha; x] = [beta; 0] with v(0) = 1.  On exit `alpha` holds beta and
/// x holds v(1:n-1).  n is the total vector length including alpha.
/// Returns tau (zero when x is already zero).
double larfg(idx n, double& alpha, double* x, idx incx);

/// Applies H = I - tau v v^T to the m-by-n matrix C from the given side.
/// v has length m (left) or n (right) with v(0) implicitly arbitrary --
/// the caller passes the actual stored vector including its first element.
/// `work` must hold n (left) or m (right) doubles.
void larf(side sd, idx m, idx n, const double* v, idx incv, double tau,
          double* c, idx ldc, double* work);

/// Forms the k-by-k upper triangular factor T of the compact WY block
/// reflector H = I - V T V^T for the forward column-wise V (m-by-k, unit
/// diagonal stored explicitly).
void larft(idx m, idx k, const double* v, idx ldv, const double* tau,
           double* t, idx ldt);

/// Applies the block reflector H = I - V T V^T (or its transpose) to C.
///   side=left : C <- op(H) C,   V is m-by-k
///   side=right: C <- C op(H),   V is n-by-k
/// `work` must hold k * n doubles (left) or m * k doubles (right).
/// Three GEMMs (left: W = V^T C, W <- op(T) W, C -= V W), T's strictly lower
/// part unreferenced.  Each column (left) or row (right) of C gets the same
/// arithmetic however C is sliced, so slices give one call's bits; larfb
/// itself works on slices of at most 256 columns (left) or rows (right), so
/// its thread-local scratch stays at k x k plus k x 256.
void larfb(side sd, op trans, idx m, idx n, idx k, const double* v, idx ldv,
           const double* t, idx ldt, double* c, idx ldc, double* work);

/// One block reflector of a list applied by apply_block_reflectors: it acts
/// on rows r0 .. r0 + m - 1 of C; V is m-by-k as larfb expects it and T its
/// k-by-k upper triangular factor.
struct BlockReflector {
  idx r0, m, k;
  const double* v;
  idx ldv;
  const double* t;
  idx ldt;
};

/// C <- op(H_last) ... op(H_0) C for the list in list order, C having ncols
/// columns (the paper's Figure 3c): up to `workers` pool bodies take whole
/// column blocks of min(256, ceil(ncols / workers) rounded up to 8) columns
/// from a shared counter, one `span_label` span each, and apply the whole
/// list to them.  Results are bitwise independent of `workers`.
void apply_block_reflectors(op trans, const std::vector<BlockReflector>& list,
                            double* c, idx ldc, idx ncols, int workers,
                            const char* span_label);

/// Unblocked QR factorization (LAPACK xGEQR2).  On exit the upper triangle
/// of A holds R; the unit lower trapezoid holds the reflector vectors
/// (implicit unit diagonal, LAPACK layout).  tau has length min(m, n).
void geqr2(idx m, idx n, double* a, idx lda, double* tau, double* work);

/// Blocked QR factorization (LAPACK xGEQRF) with panel width `nb`.
void geqrf(idx m, idx n, double* a, idx lda, double* tau, idx nb);

/// Recursive QR factorization of a tall panel with its compact-WY factor,
/// the recursion of LAPACK xGEQRT3 (Elmroth-Gustavson): A = Q R with
/// Q = I - V T V^T.  Requires m >= n.  Unlike xGEQRT3, on exit `a` holds V
/// with an explicit unit diagonal and zeros above it, `r` (n-by-n) receives
/// R's upper triangle and `t` (n-by-n, zero on entry) the upper triangular
/// T.  Almost all flops run in GEMM; blocks of at most 16 columns use
/// geqr2 + larft.
void geqrt3(idx m, idx n, double* a, idx lda, double* r, idx ldr, double* t,
            idx ldt);

/// Generates the first k columns of Q from a geqrf factorization
/// (LAPACK xORG2R, unblocked).  A is m-by-k on exit.
void org2r(idx m, idx n, idx k, double* a, idx lda, const double* tau);

/// Copies the unit-lower-trapezoid reflectors of a geqr2/geqrf factorization
/// into `v` (m-by-k) with an explicit unit diagonal and zeroed upper part --
/// the storage larfb expects.
void extract_v(idx m, idx k, const double* a, idx lda, double* v, idx ldv);

}  // namespace tseig::lapack
