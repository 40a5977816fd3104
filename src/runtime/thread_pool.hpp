// Process-wide persistent worker pool shared by every parallel construct in
// the library.
//
// The paper's runtime (PLASMA/QUARK) keeps one fixed thread team alive for
// the whole solve; so does tseig.  Every parallel loop in the library is a
// fork_join on this pool (common/parallel.hpp):
//
//  * workers are created lazily, on first demand, and then parked on a
//    condition variable between uses -- warm calls create zero threads;
//  * parallel_for and run_self_scheduled fork their bodies onto the pool
//    and, when invoked *from* a pool worker (e.g. a BLAS-3 kernel running
//    inside a loop body), detect the nesting and run serially instead of
//    oversubscribing;
//  * lightweight counters (threads ever created, jobs executed, park and
//    unpark events) are queryable so tests and benches can assert the
//    "zero new threads after warm-up" property.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <thread>

#include "runtime/env.hpp"

namespace tseig {

/// Number of worker threads used by default across the library.  Reads
/// TSEIG_NUM_THREADS once (strict parse: 0, negative, overflowing or
/// garbage-suffixed values warn on stderr and fall back to the automatic
/// default); falls back to std::thread::hardware_concurrency().  This is the
/// single resolution point for "how many threads should tseig use" --
/// SyevOptions::num_workers <= 0, bench --workers 0 and parallel_for all
/// funnel through it.
inline int default_num_threads() {
  static const int cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    long v = hw == 0 ? 1 : static_cast<long>(hw);
    // A pool of more than 2^20 workers is certainly a typo; reject it before
    // it reaches thread creation.
    (void)rt::parse_env_long("TSEIG_NUM_THREADS", 1, 1L << 20, &v);
    return static_cast<int>(v);
  }();
  return cached;
}

namespace rt {

/// Monotonic pool counters (see ThreadPool::stats).  Values only grow.
struct PoolStats {
  /// OS threads ever created by the pool.  Stable across warm calls.
  std::uint64_t threads_created = 0;
  /// fork_join bodies executed (on pool workers and on the caller).
  std::uint64_t jobs_executed = 0;
  /// Times a worker parked (blocked waiting for work).
  std::uint64_t parks = 0;
  /// Times a parked worker resumed.
  std::uint64_t unparks = 0;
};

/// Lazily-initialized persistent worker pool.  One instance per process;
/// workers shut down cleanly when the process exits.
class ThreadPool {
public:
  /// The process-wide pool.
  static ThreadPool& instance();

  /// Runs job(0), job(1), ..., job(njobs - 1) concurrently: job(0) on the
  /// calling thread, the rest on pool workers.  Returns once every body has
  /// finished.  The pool grows (once) so that all bodies of concurrently
  /// active fork_join calls can run simultaneously -- required because a
  /// body may wait for progress made by another body of the same call (the
  /// bulge chase's hop waits), so every borrowed worker must actually be
  /// live.
  ///
  /// Every body runs under the calling thread's telemetry phase, and the
  /// flops and bytes of the bodies run on workers are credited to the
  /// calling thread after the join (see common/flops.hpp).
  ///
  /// A body that throws does not stop the others: every body runs to its
  /// end, and after the join (and the cost credit) fork_join rethrows
  /// the first exception caught, so the caller sees it as if thrown by a
  /// serial loop.
  ///
  /// Must not be called from inside a parallel region; callers detect that
  /// with in_parallel_region() and fall back to serial execution (the
  /// nesting rule).
  void fork_join(int njobs, const std::function<void(int)>& job);

  /// Pool worker id of the calling thread, or -1 when the caller is not a
  /// pool worker.
  static int current_worker_id();

  /// True when called from inside a pool worker.
  static bool in_worker() { return current_worker_id() >= 0; }

  /// True when the calling thread is already part of a parallel construct:
  /// either a pool worker, or an external thread currently inside its own
  /// fork_join (body 0 runs on the caller's thread).  parallel_for and
  /// run_self_scheduled consult this to run serially instead of
  /// oversubscribing the machine.
  static bool in_parallel_region();

  /// Snapshot of the monotonic counters.
  PoolStats stats() const;

  /// Workers currently alive (grows lazily, never shrinks before exit).
  int size() const;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

private:
  ThreadPool() = default;
  ~ThreadPool();

  struct Impl;
  Impl* impl();  // lazily constructed guts

  Impl* impl_ = nullptr;
};

/// Resolves a requested worker count: values > 0 are taken as-is, <= 0 means
/// "use the library default" (TSEIG_NUM_THREADS / hardware concurrency).
inline int resolve_num_workers(int requested) {
  return requested > 0 ? requested : default_num_threads();
}

}  // namespace rt
}  // namespace tseig
