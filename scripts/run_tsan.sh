#!/bin/sh
# Builds the library with ThreadSanitizer (TSEIG_SANITIZE=thread) and runs
# the threading-sensitive tests: the shared worker pool, the parallel stress
# suite, the concurrent-client stress suite, the parallel divide-and-conquer
# eigensolver, the parallel bisection and inverse iteration, the two-stage
# pipeline stages that run on the pool (stage 1's look-ahead loop included),
# the one-stage ormtr's column blocks, the batch driver's shared-counter
# scheduler, and the telemetry layer, whose phases and costs cross from pool
# workers to the forking thread.
# The set is maintained as the `tsan` ctest label in tests/CMakeLists.txt.
#
# Usage: scripts/run_tsan.sh [build-dir]   (default: build-tsan)
#        TSEIG_SANITIZE=address scripts/run_tsan.sh build-asan  # ASan run
set -e
cd "$(dirname "$0")/.."
BUILD=${1:-build-tsan}
SAN=${TSEIG_SANITIZE:-thread}

cmake -B "$BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTSEIG_SANITIZE="$SAN" \
  -DTSEIG_NATIVE=OFF
cmake --build "$BUILD" -j \
  --target test_thread_pool test_parallel_stress \
           test_stedc_parallel test_sy2sb test_sb2st test_q2_apply \
           test_sytrd test_syev_batch test_concurrent_clients test_bisect test_obs
ctest --test-dir "$BUILD" --output-on-failure -L tsan
