#!/bin/sh
# Verifies that wide SIMD instructions stay inside the microkernel tier
# translation units (src/blas/kernels/kernel_*.cpp).  The runtime-dispatch
# design only works if a generic binary never executes AVX2/AVX-512 outside
# the guarded tiers: one leaked vmovupd ymm in a common TU would SIGILL every
# pre-AVX host before the dispatcher even runs.
#
# Policy, per object file of the tseig library:
#   kernel_avx512.o  -- anything goes (it IS the AVX-512 tier);
#   kernel_avx2.o    -- ymm allowed, zmm forbidden (built -mavx2 -mno-avx512f);
#   everything else  -- no ymm, no zmm.
#
# Additionally, the floating-point contract (DESIGN.md §11), both ways round:
#   every object except kernel_*.o -- NO fused-multiply-add instructions
#     (vfmadd/vfmsub/vfnmadd/vfnmsub/vfmaddsub/vfmsubadd).  The whole library
#     builds with -ffp-contract=off, so the explicit k-steps of the kernel
#     tiers are the only fused operations and a -march=native build gives
#     the bits of a generic one.  One fused instruction elsewhere (an
#     intrinsic slipping in, or a vectorizer pattern that ignores the flag)
#     silently breaks that.
#   kernel_avx2.o, kernel_avx512.o (when the compiler built them) and
#     kernel_scalar.o -- MUST contain vfmadd: every tier takes one fused
#     multiply-add per k-step (src/blas/kernels/registry.hpp), and a tier
#     that silently lost its fused step would no longer match the others.
# These scans are valid on every build, including -march=native ones.
#
# The wide-register scan is only meaningful on a build whose global flags do
# not enable AVX themselves, so it requires TSEIG_NATIVE=OFF in the build's
# CMake cache and skips (exit 0, with a notice) otherwise.  x86-only; skips
# on other arches.
#
# Usage: scripts/check_isa_leak.sh [build-dir]   (default: build)
set -e
cd "$(dirname "$0")/.."
BUILD=${1:-build}

case "$(uname -m)" in
  x86_64|i*86) ;;
  *) echo "check_isa_leak: non-x86 host, skipping"; exit 0 ;;
esac

if ! command -v objdump >/dev/null 2>&1; then
  echo "check_isa_leak: objdump not found, skipping"
  exit 0
fi

CACHE="$BUILD/CMakeCache.txt"
if [ ! -f "$CACHE" ]; then
  echo "check_isa_leak: no CMake cache at $CACHE" >&2
  exit 1
fi
# The library's object root (objects sit in per-directory subtrees below it:
# blas/, blas/kernels/, twostage/, ...).
OBJDIR=$(find "$BUILD" -type d -name 'tseig.dir' | head -n 1)
if [ -z "$OBJDIR" ] || [ ! -d "$OBJDIR" ]; then
  echo "check_isa_leak: cannot locate tseig object files under $BUILD" >&2
  exit 1
fi

# Register operands in the disassembly are the ISA fingerprint: %ymmN means
# AVX/AVX2, %zmmN (or an opmask %kN alongside) means AVX-512.
uses_reg() { # obj regex
  objdump -d "$1" 2>/dev/null | grep -Eq "%$2[0-9]"
}
uses_fma() { # obj
  objdump -d "$1" 2>/dev/null |
    grep -Eq '\bvf(n?madd|n?msub|maddsub|msubadd)[0-9]{3}'
}

# --- FMA contract scans: run on every build configuration. -----------------
fail=0
fma_checked=0
for obj in $(find "$OBJDIR" -name '*.o' -o -name '*.obj' | sort); do
  case "$(basename "$obj")" in
    kernel_*) continue ;;  # the tiers: fused by contract, scanned below
  esac
  fma_checked=$((fma_checked + 1))
  if uses_fma "$obj"; then
    echo "FMA LEAK: $(basename "$obj") contains fused multiply-add" \
         "instructions; only the kernel tiers may fuse" \
         "(-ffp-contract=off on the whole library, DESIGN.md §11)"
    fail=1
  fi
done
if [ "$fma_checked" -eq 0 ]; then
  echo "check_isa_leak: found no non-kernel objects for the FMA scan" >&2
  exit 1
fi

# The fused tiers.  A wide tier is scanned only when the compiler accepted
# its flags (otherwise its TU is a nullptr stub).
fused="kernel_scalar"
grep -q '^TSEIG_HAS_MAVX2:INTERNAL=1' "$CACHE" &&
  grep -q '^TSEIG_HAS_MFMA:INTERNAL=1' "$CACHE" && fused="$fused kernel_avx2"
grep -q '^TSEIG_HAS_MAVX512F:INTERNAL=1' "$CACHE" &&
  fused="$fused kernel_avx512"
for tier in $fused; do
  obj=$(find "$OBJDIR" \( -name "$tier.*o" -o -name "$tier.*obj" \) |
        head -n 1)
  if [ -z "$obj" ]; then
    echo "check_isa_leak: no object for $tier" >&2
    exit 1
  fi
  fma_checked=$((fma_checked + 1))
  if ! uses_fma "$obj"; then
    echo "FMA MISSING: $(basename "$obj") holds no fused multiply-add;" \
         "every tier must fuse each k-step (blas/kernels/registry.hpp)"
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "check_isa_leak: FAILED (FMA contract)" >&2
  exit 1
fi
echo "check_isa_leak: FMA scans OK ($fma_checked objects)"

if ! grep -q '^TSEIG_NATIVE:BOOL=OFF' "$CACHE"; then
  echo "check_isa_leak: build uses native flags (TSEIG_NATIVE!=OFF);" \
       "wide instructions are legal everywhere, skipping register scan"
  exit 0
fi
checked=0
for obj in $(find "$OBJDIR" -name '*.o' -o -name '*.obj' | sort); do
  base=$(basename "$obj")
  checked=$((checked + 1))
  case "$base" in
    kernel_avx512*)
      ;;  # the AVX-512 tier: wide by design
    kernel_avx2*)
      if uses_reg "$obj" zmm; then
        echo "LEAK: $base contains AVX-512 (zmm) instructions"
        fail=1
      fi
      ;;
    *)
      if uses_reg "$obj" zmm; then
        echo "LEAK: $base contains AVX-512 (zmm) instructions"
        fail=1
      fi
      if uses_reg "$obj" ymm; then
        echo "LEAK: $base contains AVX (ymm) instructions"
        fail=1
      fi
      ;;
  esac
done

if [ "$checked" -eq 0 ]; then
  echo "check_isa_leak: found no objects to inspect under $OBJDIR" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  echo "check_isa_leak: FAILED ($checked objects inspected)" >&2
  exit 1
fi
echo "check_isa_leak: OK ($checked objects, wide SIMD confined to kernel TUs)"
