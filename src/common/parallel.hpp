// Fork-join loops: the library's one parallel mechanism.
//
//  * parallel_for splits a flat index range into one static chunk per
//    worker (Level-3 kernels' row blocks, the secular roots of a merge);
//  * run_self_scheduled runs one body per worker, and each body takes the
//    next item from a shared counter (stage 1's row and column blocks and
//    its look-ahead panel, D&C tree levels, the column blocks of every Q
//    application in lapack::apply_block_reflectors, bisection, the
//    bulge-chase sweeps, syev_batch's problems), so a slowed core takes
//    fewer items.
// Worker count defaults to TSEIG_NUM_THREADS or the hardware concurrency.
//
// Both execute on the same persistent rt::ThreadPool, so a warm call
// spawns no OS threads, and a loop started from *inside* a pool worker (a
// BLAS-3 kernel in a loop body, or a batch member's solve) detects the
// nesting and runs serially instead of oversubscribing the machine.
#pragma once

#include <algorithm>
#include <functional>

#include "common/types.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig {

/// Runs fn(i) for i in [begin, end) on at most `num_workers` pool workers.
/// Chunks of at least `grain` iterations are assigned per worker
/// (non-positive grain is treated as 1).  Falls back to a serial loop when
/// the range is small, only one worker is requested, or the caller is itself
/// a pool worker (nested parallelism).  fn must be safe to invoke
/// concurrently on distinct indices.
inline void parallel_for(int num_workers, idx begin, idx end, idx grain,
                         const std::function<void(idx)>& fn) {
  const idx n = end - begin;
  if (n <= 0) return;
  if (grain <= 0) grain = 1;
  const idx max_chunks = (n + grain - 1) / grain;
  int nthreads = static_cast<int>(std::min<idx>(num_workers, max_chunks));
  if (rt::ThreadPool::in_parallel_region()) nthreads = 1;
  if (nthreads <= 1) {
    for (idx i = begin; i < end; ++i) fn(i);
    return;
  }
  const idx chunk = (n + nthreads - 1) / nthreads;
  rt::ThreadPool::instance().fork_join(nthreads, [&](int t) {
    const idx lo = begin + t * chunk;
    const idx hi = std::min(end, lo + chunk);
    for (idx i = lo; i < hi; ++i) fn(i);
  });
}

/// Runs body(t) for each body index t in [0, workers) on pool workers, or
/// body(0) once on the caller when workers <= 1 or the caller is already
/// inside a pool region.  The bodies run through fork_join, which keeps all
/// of them live at once, so a body may wait for progress made by another
/// body.  A throw ends only its own body and reaches the caller after the
/// others return, so a body that others wait on (the sb2st chase) must not
/// throw.
template <class Body>
void run_self_scheduled(int workers, Body&& body) {
  if (workers <= 1 || rt::ThreadPool::in_parallel_region()) {
    body(0);
    return;
  }
  rt::ThreadPool::instance().fork_join(workers, body);
}

/// Worker count defaulted to the library-wide setting (TSEIG_NUM_THREADS or
/// the hardware concurrency).
inline void parallel_for(idx begin, idx end, idx grain,
                         const std::function<void(idx)>& fn) {
  parallel_for(default_num_threads(), begin, end, grain, fn);
}

}  // namespace tseig
