// Scalar (portable baseline) microkernel tier: 8x4 register tile, plain
// C++ the autovectorizer may map onto the base ISA (SSE2 on x86-64).
//
// Compiled with any wider ISA explicitly DISABLED (see src/CMakeLists.txt:
// -mno-avx... -ffp-contract=off) so that on a -march=native build "scalar"
// still means the portable baseline and cross-tier A/B numbers are honest.
// This tier doubles as the determinism oracle: TSEIG_KERNEL=scalar must
// reproduce every other tier bitwise (registry.hpp contract).
#include <algorithm>

#include "blas/kernels/registry.hpp"

namespace tseig::blas::kernels {
namespace {

constexpr idx MR = 8;
constexpr idx NR = 4;

#include "blas/kernels/pack_micro.inl"

void micro(idx kc, double alpha, const double* ap, const double* bp, double* c,
           idx ldc, idx mr, idx nr) {
  micro_edge(kc, alpha, ap, bp, c, ldc, mr, nr);
}

}  // namespace

const Kernel* kernel_scalar() {
  static const Kernel k{"scalar", MR,           NR,           micro,
                        pack_a_notrans, pack_a_trans, pack_b_notrans,
                        pack_b_trans};
  return &k;
}

}  // namespace tseig::blas::kernels
