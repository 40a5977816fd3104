// Level-3 BLAS kernels (matrix-matrix operations).
//
// These are the compute-bound kernels whose rate is the paper's `alpha`
// parameter.  GEMM uses the standard three-level cache-blocked structure
// (pack A into MR-row micro-panels, pack B into NR-column micro-panels, run a
// register-tiled microkernel) so that on any host the GEMM/GEMV rate gap that
// motivates the two-stage algorithm is realistic.  symm, syrk and syr2k are
// layered on the same packed core; trsm is a column sweep.
//
// Every flop runs in a runtime-dispatched SIMD microkernel tier (scalar /
// AVX2 / AVX-512 / NEON — see blas/kernels/registry.hpp): the best tier the
// host supports is selected by cpuid at first use, overridable with the
// TSEIG_KERNEL environment variable.  All tiers and both size paths produce
// bitwise-identical results (the consistency contract in registry.hpp).
#pragma once

#include "common/types.hpp"

namespace tseig::blas {

/// Worker budget the Level-3 kernels may use for their internal
/// parallel_for (the row-block loop of the packed GEMM driver).  Resolution
/// order: an enclosing ScopedKernelWorkers on this thread; else 1 when the
/// caller is already inside a parallel region (a pool task must never grow
/// the pool); else the library default (TSEIG_NUM_THREADS / hardware
/// concurrency).
int kernel_workers();

/// RAII thread-local cap on kernel_workers(): solvers set this to their
/// resolved worker count so a gemm issued on the caller's thread cannot
/// oversubscribe past what the user requested (SyevOptions::num_workers),
/// and tests pin it to 1 for serial oracles.  Values <= 0 clear the cap
/// (restore default resolution) for the scope.  The cap does not propagate
/// to pool workers — those are already forced serial by the parallel-region
/// rule above.
class ScopedKernelWorkers {
public:
  explicit ScopedKernelWorkers(int num_workers);
  ~ScopedKernelWorkers();
  ScopedKernelWorkers(const ScopedKernelWorkers&) = delete;
  ScopedKernelWorkers& operator=(const ScopedKernelWorkers&) = delete;

private:
  int saved_;
};

/// Capacities (in doubles) of the calling thread's packing buffers.
/// Diagnostic hook for the release-on-shrink policy: a huge gemm may grow
/// them, but sustained smaller traffic must decay them back (tested in
/// test_gemm_kernels).
struct PackBufferStats {
  idx a_elements = 0;
  idx b_elements = 0;
};
PackBufferStats pack_buffer_stats();

/// C <- alpha op(A) op(B) + beta C.  A is m-by-k after op, B is k-by-n.
void gemm(op transa, op transb, idx m, idx n, idx k, double alpha,
          const double* a, idx lda, const double* b, idx ldb, double beta,
          double* c, idx ldc);

/// C <- alpha A B + beta C (side=left) or alpha B A + beta C (side=right)
/// with A symmetric, triangle ul stored.
void symm(side sd, uplo ul, idx m, idx n, double alpha, const double* a,
          idx lda, const double* b, idx ldb, double beta, double* c, idx ldc);

/// C <- alpha op(A) op(A)^T + beta C on triangle ul of C.
/// trans==none: A is n-by-k; trans==trans: A is k-by-n.
void syrk(uplo ul, op trans, idx n, idx k, double alpha, const double* a,
          idx lda, double beta, double* c, idx ldc);

/// C <- alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C on triangle ul.
void syr2k(uplo ul, op trans, idx n, idx k, double alpha, const double* a,
           idx lda, const double* b, idx ldb, double beta, double* c, idx ldc);

/// Solves op(A) X = alpha B (side=left) or X op(A) = alpha B (side=right),
/// X overwriting B, with A triangular.
void trsm(side sd, uplo ul, op trans, diag d, idx m, idx n, double alpha,
          const double* a, idx lda, double* b, idx ldb);

}  // namespace tseig::blas
