#include "runtime/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <vector>

#include "common/flops.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "obs/telemetry.hpp"

namespace tseig::rt {
namespace {

/// Pool worker id of this thread; -1 on external threads.
thread_local int tl_worker_id = -1;

/// Depth of fork_join calls the current (external) thread is inside of.
/// Body 0 of a fork_join runs on the caller's thread, so nesting detection
/// cannot rely on tl_worker_id alone.
thread_local int tl_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tl_region_depth; }
  ~RegionGuard() { --tl_region_depth; }
};

}  // namespace

struct ThreadPool::Impl {
  /// One fork_join invocation: the bodies with index >= 1 become tickets on
  /// the shared queue, the caller runs body 0 and then waits on `done`.
  struct Batch {
    const std::function<void(int)>* job = nullptr;
    // The forking thread's telemetry phase; every body runs under it.
    obs::Phase phase = obs::Phase::none;
    std::atomic<int> remaining{0};  // bodies not yet finished (incl. body 0)
    Mutex m;
    std::condition_variable done;
    // First exception a body threw; fork_join rethrows it after the join.
    std::exception_ptr error TSEIG_GUARDED_BY(m);
    // Flops and bytes the forked bodies executed on pool workers; credited
    // back to the forking thread after the join, so a FlopScope / ByteScope
    // around the fork_join sees exactly this call's work (and none of the
    // work other concurrent pool clients delegated).
    obs::PhaseCost forked TSEIG_GUARDED_BY(m);
  };

  struct Ticket {
    Batch* batch = nullptr;
    int index = 0;
  };

  Mutex mu;
  std::condition_variable work_cv;  // workers park here
  std::deque<Ticket> queue TSEIG_GUARDED_BY(mu);
  std::vector<std::thread> workers TSEIG_GUARDED_BY(mu);
  // Workers currently executing a ticket body.  The pool keeps
  // workers.size() >= busy + queue.size() so that every queued ticket has a
  // live worker available: every body of one fork_join runs concurrently,
  // which the bulge chase relies on (a body waits for hops of the sweep
  // another body took).
  int busy TSEIG_GUARDED_BY(mu) = 0;
  bool stop TSEIG_GUARDED_BY(mu) = false;

  // Counters (mu-guarded except jobs, which hot paths bump lock-free).
  std::uint64_t threads_created TSEIG_GUARDED_BY(mu) = 0;
  std::uint64_t parks TSEIG_GUARDED_BY(mu) = 0;
  std::uint64_t unparks TSEIG_GUARDED_BY(mu) = 0;
  std::atomic<std::uint64_t> jobs{0};

  // Per-worker time accounting for the telemetry layer (mu-guarded;
  // updated at park/unpark and ticket boundaries, which are coarse).
  std::vector<obs::WorkerMetric> wtimes TSEIG_GUARDED_BY(mu);

  void worker_main(int id) TSEIG_EXCLUDES(mu) {
    tl_worker_id = id;
    LockGuard lock(mu);
    for (;;) {
      if (queue.empty()) {
        if (stop) return;
        ++parks;
        const double p0 = obs::now_seconds();
        work_cv.wait(lock.native());
        wtimes[static_cast<size_t>(id)].park_seconds +=
            obs::now_seconds() - p0;
        ++unparks;
        continue;
      }
      const Ticket t = queue.front();
      queue.pop_front();
      ++busy;
      lock.unlock();
      const double b0 = obs::now_seconds();
      // This body's flops and bytes, credited to the forking thread at the
      // join.  The body runs under the forking thread's phase, so its spans
      // carry that phase too.
      obs::PhaseCost cost;
      cost.flops = flops_now();
      cost.bytes = bytes_now();
      {
        const obs::PhaseScope phase(t.batch->phase);
        run_body(*t.batch, t.index);
      }
      cost.flops = flops_now() - cost.flops;
      cost.bytes = bytes_now() - cost.bytes;
      const double b1 = obs::now_seconds();
      jobs.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      --busy;
      obs::WorkerMetric& wm = wtimes[static_cast<size_t>(id)];
      wm.busy_seconds += b1 - b0;
      ++wm.jobs;
      // Only after `busy` dropped: a caller woken by the last body must not
      // see this worker still busy, or its next fork_join would grow the
      // pool although this worker is free.
      finish_body(*t.batch, cost);
    }
  }

  /// Copies the per-worker metrics out under mu and hands them to the
  /// telemetry layer.  Publishing on every fork_join completion (and at pool
  /// shutdown) means exports never need to touch the possibly-destroyed
  /// pool.
  void publish_metrics() TSEIG_EXCLUDES(mu) {
    std::vector<obs::WorkerMetric> copy;
    {
      LockGuard lock(mu);
      copy = wtimes;
    }
    obs::publish_worker_metrics(copy);
  }

  /// Runs body k of `b`, keeping its exception (the first of the batch) for
  /// fork_join to rethrow: an exception escaping a pool worker would call
  /// std::terminate, and one escaping body 0 would unwind past a Batch the
  /// workers still reference.
  static void run_body(Batch& b, int k) TSEIG_EXCLUDES(b.m) {
    try {
      (*b.job)(k);
    } catch (...) {
      LockGuard g(b.m);
      if (!b.error) b.error = std::current_exception();
    }
  }

  /// Marks one body of `b` finished, adding the cost it ran off the forking
  /// thread; wakes the fork_join caller on the last.  The decrement happens
  /// under b.m: the caller's wait predicate can only observe remaining == 0
  /// while holding b.m, i.e. after this worker has released it, so the
  /// batch cannot be destroyed under our feet.
  static void finish_body(Batch& b, const obs::PhaseCost& forked)
      TSEIG_EXCLUDES(b.m) {
    LockGuard g(b.m);
    b.forked.add(forked);
    if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      b.done.notify_all();
  }

  /// Joins every worker at shutdown.  Runs without mu on purpose: holding
  /// it would deadlock with workers that need it to observe `stop`, and no
  /// growth can race -- fork_join callers are gone by the time the process
  /// tears the pool down, so `workers` is frozen.  That quiescence argument
  /// is outside what the static analysis can see, hence the escape hatch.
  void join_all() TSEIG_NO_THREAD_SAFETY_ANALYSIS {
    for (auto& th : workers) th.join();
  }

  /// Grows the pool (caller holds mu) until every outstanding ticket can run
  /// on its own worker.
  void ensure_capacity() TSEIG_REQUIRES(mu) {
    const size_t needed = static_cast<size_t>(busy) + queue.size();
    if (wtimes.size() < needed) {
      wtimes.resize(needed);
      for (size_t k = 0; k < wtimes.size(); ++k)
        wtimes[k].worker = static_cast<int>(k);
    }
    while (workers.size() < needed) {
      const int id = static_cast<int>(workers.size());
      workers.emplace_back([this, id] { worker_main(id); });
      ++threads_created;
    }
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::Impl* ThreadPool::impl() {
  // Lazy, race-free construction without taking a lock on the hot path.
  static std::once_flag once;
  std::call_once(once, [this] { impl_ = new Impl(); });
  return impl_;
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    LockGuard lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  impl_->join_all();
  // Final per-worker metrics, published before the pool disappears: the
  // telemetry exporter runs later (atexit handlers fire in reverse
  // registration order and the env probe registers during static init) and
  // must not reach back into a destroyed pool.
  if (obs::enabled()) impl_->publish_metrics();
  delete impl_;
  impl_ = nullptr;
}

int ThreadPool::current_worker_id() { return tl_worker_id; }

bool ThreadPool::in_parallel_region() {
  return tl_worker_id >= 0 || tl_region_depth > 0;
}

void ThreadPool::fork_join(int njobs, const std::function<void(int)>& job) {
  require(njobs >= 1, "ThreadPool::fork_join: need at least one body");
  require(!in_parallel_region(),
          "ThreadPool::fork_join: nested call from inside a parallel region "
          "(callers must detect nesting and run serially)");
  Impl& im = *impl();
  RegionGuard region;
  if (njobs == 1) {
    job(0);
    im.jobs.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  Impl::Batch batch;
  batch.job = &job;
  batch.phase = obs::current_phase();
  batch.remaining.store(njobs, std::memory_order_relaxed);
  {
    LockGuard lock(im.mu);
    for (int k = 1; k < njobs; ++k) im.queue.push_back({&batch, k});
    im.ensure_capacity();
  }
  for (int k = 1; k < njobs; ++k) im.work_cv.notify_one();

  Impl::run_body(batch, 0);
  im.jobs.fetch_add(1, std::memory_order_relaxed);
  Impl::finish_body(batch, {});

  LockGuard lock(batch.m);
  batch.done.wait(lock.native(), [&] {
    return batch.remaining.load(std::memory_order_acquire) == 0;
  });
  const std::exception_ptr error = batch.error;
  const obs::PhaseCost forked = batch.forked;
  lock.unlock();
  // Credit the delegated work to this thread's counters (body 0 already ran
  // here and counted itself).
  count_flops(static_cast<std::int64_t>(forked.flops));
  count_bytes(static_cast<std::int64_t>(forked.bytes));
  if (obs::enabled()) im.publish_metrics();
  if (error) std::rethrow_exception(error);
}

PoolStats ThreadPool::stats() const {
  PoolStats out;
  Impl* im = const_cast<ThreadPool*>(this)->impl();
  LockGuard lock(im->mu);
  out.threads_created = im->threads_created;
  out.parks = im->parks;
  out.unparks = im->unparks;
  out.jobs_executed = im->jobs.load(std::memory_order_relaxed);
  return out;
}

int ThreadPool::size() const {
  Impl* im = const_cast<ThreadPool*>(this)->impl();
  LockGuard lock(im->mu);
  return static_cast<int>(im->workers.size());
}

}  // namespace tseig::rt
