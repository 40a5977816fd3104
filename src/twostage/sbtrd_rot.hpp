// Element-wise (Givens rotation) band-to-tridiagonal reduction -- the
// classic Schwarz / xSBTRD-style procedure that the paper's Section 5.2
// explicitly replaces: "The most problematic aspect of the standard
// procedure is the element-wise elimination."
//
// This implementation peels one outer diagonal at a time: each band entry is
// annihilated by a plane rotation whose fill-in is chased down the diagonal
// element by element.  Every rotation touches O(b) entries with no blocking
// and no reuse -- the memory-access pattern whose poor locality motivated
// the column-wise xHBCEU/xHBREL/xHBLRU kernels.  It serves as the
// correctness oracle and the ablation baseline for bench_ablation_elimination.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "twostage/sb2st.hpp"

namespace tseig::twostage {

/// Statistics of one sbtrd_rotations call.
struct SbtrdStats {
  idx rotations = 0;
};

/// Reduces the symmetric band matrix to tridiagonal form by element-wise
/// Givens chasing (eigenvalues path only; rotations are not accumulated).
/// On exit d[0..n) and e[0..n-1) hold the tridiagonal.  Returns the call's
/// rotation count.
SbtrdStats sbtrd_rotations(const BandMatrix& band, std::vector<double>& d,
                           std::vector<double>& e);

}  // namespace tseig::twostage
