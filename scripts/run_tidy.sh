#!/bin/sh
# Lint gate, two layers:
#
#   1. tseig-tidy (tools/tseig-tidy): the project-specific checks
#      (no-raw-thread, kernel-fp-contract, no-wallclock).  The token-engine binary builds with any C++20
#      compiler, so this layer ALWAYS runs and is BLOCKING -- a finding
#      fails the script on every toolchain, including the CI lint job.
#   2. stock clang-tidy with the repo .clang-tidy profile.  Skipped with a
#      notice when clang-tidy is not installed; blocking when it runs.
#
# Usage: scripts/run_tidy.sh [--self-test] [build-dir]   (default: build-tidy)
#   --self-test  additionally asserts the fixture files still trip every
#                tseig-tidy check (engine sanity, same ground the gtest
#                suite covers -- useful without a test build).
set -e
cd "$(dirname "$0")/.."

SELF_TEST=0
if [ "$1" = "--self-test" ]; then
  SELF_TEST=1
  shift
fi
BUILD=${1:-build-tidy}

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DTSEIG_NATIVE=OFF
fi

# ---------------------------------------------------------------------------
# Layer 1: tseig-tidy over every source and header in src/ (blocking).
cmake --build "$BUILD" --target tseig-tidy -j "$(nproc 2>/dev/null || echo 4)"
TSEIG_TIDY="$BUILD/tools/tseig-tidy/tseig-tidy"

if [ "$SELF_TEST" = "1" ]; then
  echo "== tseig-tidy --self-test (fixtures must trip every check)"
  if OUT=$("$TSEIG_TIDY" --src-root tools/tseig-tidy/fixtures \
           src/solver/bad_thread.cpp src/blas/blas1.cpp \
           src/blas/kernels/fused_step.cpp \
           src/solver/bad_wallclock.cpp src/solver/clean.cpp); then
    echo "self-test FAILED: fixtures produced no findings" >&2
    exit 1
  fi
  for check in tseig-no-raw-thread tseig-kernel-fp-contract \
               tseig-no-wallclock-in-kernels; do
    if ! echo "$OUT" | grep -q "\[$check\]"; then
      echo "self-test FAILED: $check did not fire on its fixture" >&2
      exit 1
    fi
  done
  echo "self-test OK"
fi

echo "== tseig-tidy src/"
FILES=$(find src -name '*.cpp' -o -name '*.hpp' -o -name '*.inl' | sort)
# shellcheck disable=SC2086
"$TSEIG_TIDY" --src-root . $FILES

# ---------------------------------------------------------------------------
# Layer 2: stock clang-tidy, blocking when available.
TIDY=${CLANG_TIDY:-clang-tidy}
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "run_tidy.sh: $TIDY not found; ran the tseig-tidy layer only" >&2
  exit 0
fi

STATUS=0
for f in $(find src/runtime src/twostage src/tridiag src/solver \
           -name '*.cpp' | sort); do
  echo "== $TIDY $f"
  "$TIDY" -p "$BUILD" --quiet "$f" || STATUS=1
done
exit $STATUS
