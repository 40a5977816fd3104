// Application of Q2 (the bulge-chasing reflectors) to the eigenvector matrix
// E -- the heart of the paper's Section 6 and Figure 3b/3c/3d.
//
// A naive application is one xLARF per reflector: memory-bound Level-2 work.
// The optimized path groups the reflectors of `ell` consecutive sweeps at the
// same chase-hop level into a diamond-shaped block (each column shifted one
// row below the previous -- Figure 3b), forms its compact WY factor once, and
// applies it with Level-3 kernels.  The extra cost is the (1 + ell/nb) factor
// the paper accepts in exchange for GEMM-rate execution.
//
// Ordering: reflector (s, b) was generated after (s, b-1) and after all of
// sweep s-1; Q2 E applies them in reverse generation order.  Same-sweep
// reflectors act on disjoint rows and commute; cross-sweep reflectors at
// nearby hops overlap by up to one row and do not.  The diamond-compatible
// total order is: sweep-groups from last to first, and *ascending* hop order
// within a group (this respects every non-commuting pair; see test
// BlockedMatchesNaive for the exhaustive check).
//
// Parallelism follows Figure 3c: the diamonds go to
// lapack::apply_block_reflectors, which splits E into column blocks, each
// processed independently (no inter-core communication); a worker takes one
// whole block at a time and applies the full diamond sequence to it.
// Before that, the diamonds' WY factors are formed on the same workers:
// the caller lists the diamonds and allocates their storage, then each
// worker takes the next diamond, copies its staircase and runs larft.  A
// diamond's factor depends only on V2, so it is the same on every worker.
#pragma once

#include "common/types.hpp"
#include "twostage/sb2st.hpp"

namespace tseig::twostage {

/// Reference implementation: applies op(Q2) to E (n-by-ncols) one reflector
/// at a time (Level-2 bound; the paper's "naive implementation").
void apply_q2_naive(op trans, const V2Factor& v2, double* e, idx lde,
                    idx ncols);

/// Blocked diamond implementation of E <- op(Q2) E.
///   ell        -- sweeps grouped per diamond (>= 1; 1 degenerates to a
///                 blocked form of the naive order).
///   num_workers-- workers for the self-scheduled loops over diamonds and
///                 column blocks (<= 0 = library default, TSEIG_NUM_THREADS);
///                 results are bitwise independent of it.
void apply_q2(op trans, const V2Factor& v2, double* e, idx lde, idx ncols,
              idx ell = 32, int num_workers = 1);

}  // namespace tseig::twostage
