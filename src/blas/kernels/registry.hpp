// Runtime-dispatched SIMD microkernel registry for the Level-3 BLAS engine.
//
// The packed GEMM driver in blas3.cpp is ISA-agnostic: it blocks for cache,
// scales C, and walks micro-tiles, but every flop happens inside a `Kernel` —
// one register-tiled microkernel plus the four concrete packers that lay
// operands out for it.  Each Kernel lives in its own translation unit under
// src/blas/kernels/, compiled with per-file architecture flags (see
// src/CMakeLists.txt), so a binary built WITHOUT -march=native still carries
// AVX2 and AVX-512 tiers and picks the best one the host supports via cpuid
// at first use.  This registry is the first slice of the backend-abstraction
// seam (ROADMAP item 5): implementations are data (a struct of function
// pointers), selection is a single dispatch point, and tiers are
// A/B-testable in-process (bench_gemm_kernels, test_gemm_kernels).
//
// Consistency contract (load-bearing — tests assert it bitwise):
//   Every tier computes C(i,j) with the SAME floating-point operation
//   sequence: within each KC chunk, every k-step is one fused multiply-add
//   `acc = fma(a, b, acc)` in k-order, starting from acc = +0.0, and each
//   chunk lands on C as one `c += alpha * acc` (separate multiply and add).
//   The fused steps are explicit (vfmadd / vfmaq / std::fma); the whole
//   library compiles with -ffp-contract=off (src/CMakeLists.txt) so the
//   compiler fuses nothing else.  Tile
//   geometry (MR/NR), vector width and edge handling therefore do not affect
//   results: scalar, AVX2, AVX-512 and NEON tiers produce bitwise-identical
//   output at every problem size (blas::gemm has one packed path, no
//   small-size branch).  This is what makes TSEIG_KERNEL=scalar a usable
//   oracle for the whole eigensolver.  The AVX2 tier is listed only on
//   hosts with the fma cpuid bit (AVX-512F and AArch64 include fused
//   multiply-add); the scalar tier runs an xmm FMA body on x86 hosts that
//   have it and std::fma elsewhere.
//
// Selection order: TSEIG_KERNEL env var ("scalar", "avx2", "avx512", "neon",
// or "native"/"auto"/"best" for best-available) if set, else the best tier
// both compiled in and supported by the host.  A tier named in TSEIG_KERNEL
// that is unavailable falls back to auto with a warning on stderr rather
// than aborting a long job at startup.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace tseig::blas::kernels {

// Cache-blocking parameters shared by every tier.  KC is part of the
// bitwise-consistency contract above (it fixes where accumulator chains are
// cut), so it must never differ between tiers.  MC/NC only affect locality,
// never rounding.
constexpr idx kMC = 128;   ///< rows of A resident in L2 per block
constexpr idx kKC = 256;   ///< depth of one packed panel (L1 streaming)
constexpr idx kNC = 4096;  ///< columns of B resident in L3 per block

/// Microkernel: C(0:mr,0:nr) += alpha * Ap Bp where Ap is a packed MR-wide
/// micro-panel (kc steps, MR-stride) and Bp a packed NR-wide micro-panel.
/// mr <= MR, nr <= NR.  SIMD tiers run their full-tile body on ragged edges
/// too (on the zero-padded panels, into a -0.0-filled stack tile whose live
/// part is then added to C), so every tile has the same rounding.
using microkernel_fn = void (*)(idx kc, double alpha, const double* ap,
                                const double* bp, double* c, idx ldc, idx mr,
                                idx nr);

/// Packs an mc-by-kc block of op(A) into MR-row micro-panels (zero-padded).
/// `a` points at the first logical element of the block; lda is the source
/// leading dimension.
using pack_a_fn = void (*)(idx mc, idx kc, const double* a, idx lda,
                           double* buf);

/// Packs a kc-by-nc block of op(B) into NR-column micro-panels.
using pack_b_fn = void (*)(idx kc, idx nc, const double* b, idx ldb,
                           double* buf);

/// One ISA tier: microkernel geometry plus the concrete packers tuned for
/// it.  All members are non-null; `name` is a static string.
struct Kernel {
  const char* name;
  idx mr;
  idx nr;
  microkernel_fn micro;
  pack_a_fn pack_a_notrans;  ///< op(A) = A   (columns contiguous)
  pack_a_fn pack_a_trans;    ///< op(A) = A^T (rows contiguous)
  pack_b_fn pack_b_notrans;
  pack_b_fn pack_b_trans;
};

// Per-TU factories.  Each returns its tier when the translation unit was
// compiled with the matching ISA flags, nullptr otherwise (e.g. the NEON TU
// on x86).  Host *support* is the registry's job, not theirs.
const Kernel* kernel_scalar();
const Kernel* kernel_avx2();
const Kernel* kernel_avx512();
const Kernel* kernel_neon();

/// The tier the engine is currently dispatching to.  Resolved once on first
/// use (TSEIG_KERNEL override, else best compiled+supported); subsequent
/// calls are one atomic load.
const Kernel& active_kernel();

/// Name of the active tier ("scalar", "avx2", ...).  Stamped into
/// tseig::obs run metadata so traces record which kernels ran.
const char* active_kernel_name();

/// Tiers compiled in AND supported by this host, best first.  Always
/// contains at least the scalar tier.
std::vector<const Kernel*> available_kernels();

/// Looks up a tier by name among available_kernels().  "native", "auto" and
/// "best" alias the first (best) tier.  Returns nullptr for unknown or
/// unsupported names.
const Kernel* find_kernel(const char* name);

/// Overrides the active tier (bench A/B sweeps, cross-tier tests).  Passing
/// nullptr restores automatic selection (including TSEIG_KERNEL).  Not
/// intended to be raced against in-flight Level-3 calls: callers switch
/// tiers between operations, not during them.
void select_kernel(const Kernel* k);

}  // namespace tseig::blas::kernels
