// Householder reflector machinery (LAPACK xLARFG / xLARF / xLARFT / xLARFB
// equivalents) plus QR factorization helpers built on top of it.
//
// Storage convention used throughout tseig: reflector blocks V are stored as
// dense column panels with an EXPLICIT unit diagonal and explicit zeros above
// it.  Owning our storage lets xLARFB run as plain GEMM + TRMM -- the
// compute-bound formulation the paper's back-transformation relies on --
// without the triangular special cases of the reference implementation.
#pragma once

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
void larfb(side sd, op trans, idx m, idx n, idx k, const double* v, idx ldv,
           const double* t, idx ldt, double* c, idx ldc, double* work);

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
