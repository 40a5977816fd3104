// Tests for the persistent shared worker pool: fork/join semantics, the
// nesting rule, the lazy-growth / zero-warm-thread-creation property, and
// the regression for parallel_for's grain handling.
//
// These tests need real parallelism regardless of the host's core count, so
// the default thread count is forced to 4 before the library caches it
// (each test source builds into its own binary, so this does not leak into
// other test processes).
#include <cstdlib>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

const bool forced_threads = [] {
  setenv("TSEIG_NUM_THREADS", "4", 1);
  return true;
}();

using rt::ThreadPool;

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_TRUE(forced_threads);
  EXPECT_EQ(default_num_threads(), 4);
  EXPECT_EQ(rt::resolve_num_workers(0), 4);
  EXPECT_EQ(rt::resolve_num_workers(-3), 4);
  EXPECT_EQ(rt::resolve_num_workers(7), 7);
}

TEST(ThreadPool, ForkJoinRunsEveryBodyExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h = 0;
  ThreadPool::instance().fork_join(
      8, [&](int k) { hits[static_cast<size_t>(k)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BodyZeroRunsOnCallerOthersOnPoolWorkers) {
  const auto caller = std::this_thread::get_id();
  std::atomic<int> body0_on_caller{0};
  std::atomic<int> others_on_pool{0};
  ThreadPool::instance().fork_join(5, [&](int k) {
    if (k == 0) {
      if (std::this_thread::get_id() == caller &&
          ThreadPool::current_worker_id() < 0)
        body0_on_caller++;
    } else {
      if (ThreadPool::current_worker_id() >= 0) others_on_pool++;
    }
  });
  EXPECT_EQ(body0_on_caller.load(), 1);
  EXPECT_EQ(others_on_pool.load(), 4);
}

TEST(ThreadPool, WarmForkJoinCreatesNoThreads) {
  auto& pool = ThreadPool::instance();
  pool.fork_join(6, [](int) {});  // warm-up for 5 borrowed workers
  const auto warm = pool.stats();
  for (int round = 0; round < 10; ++round) {
    pool.fork_join(6, [](int) {});
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.threads_created, warm.threads_created);
  EXPECT_EQ(after.jobs_executed, warm.jobs_executed + 60);
}

TEST(ThreadPool, ForkJoinRethrowsBodyExceptionAfterJoin) {
  // Regression: an exception escaping a pool body called std::terminate,
  // and one escaping body 0 unwound past the batch the workers still used.
  // Now every other body runs to its end, the first exception reaches the
  // caller after the join, and the pool stays warm.
  auto& pool = ThreadPool::instance();
  pool.fork_join(6, [](int) {});  // warm-up for 5 borrowed workers
  for (const int thrower : {3, 0}) {
    SCOPED_TRACE("thrower " + std::to_string(thrower));
    std::vector<std::atomic<int>> finished(6);
    for (auto& f : finished) f = 0;
    try {
      pool.fork_join(6, [&](int k) {
        if (k == thrower) throw std::runtime_error("body failed");
        // Outlast the thrower, so the join must wait for these bodies.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        finished[static_cast<size_t>(k)] = 1;
      });
      ADD_FAILURE() << "fork_join did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "body failed");
    }
    for (int k = 0; k < 6; ++k)
      EXPECT_EQ(finished[static_cast<size_t>(k)].load(), k == thrower ? 0 : 1)
          << "body " << k;
    EXPECT_FALSE(ThreadPool::in_parallel_region());
  }
  const auto warm = pool.stats();
  std::atomic<int> ran{0};
  pool.fork_join(6, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(pool.stats().threads_created, warm.threads_created);
}

TEST(ThreadPool, CountersAreMonotonicAndConsistent) {
  auto& pool = ThreadPool::instance();
  const auto before = pool.stats();
  pool.fork_join(4, [](int) {});
  const auto after = pool.stats();
  EXPECT_GE(after.threads_created, before.threads_created);
  EXPECT_EQ(after.jobs_executed, before.jobs_executed + 4);
  EXPECT_GE(after.parks, before.parks);
  EXPECT_GE(after.unparks, before.unparks);
  EXPECT_GE(pool.size(), 3);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyOnTheSameThread) {
  std::atomic<int> off_thread{0};
  ThreadPool::instance().fork_join(4, [&](int) {
    const auto me = std::this_thread::get_id();
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // Nested parallel_for must not fork: every iteration stays on this
    // thread, including on body 0 (the external caller's thread).
    parallel_for(0, 32, 1, [&](idx) {
      if (std::this_thread::get_id() != me) off_thread++;
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, ParallelForGrainNonPositiveStillRunsParallel) {
  // Regression: grain <= 0 used to silently force max_chunks = 1 (serial),
  // contradicting the doc comment.  It must behave like grain == 1.
  for (idx grain : {idx{0}, idx{-5}}) {
    std::vector<std::atomic<int>> hits(64);
    for (auto& h : hits) h = 0;
    std::mutex mu;
    std::set<std::thread::id> tids;
    parallel_for(0, 64, grain, [&](idx i) {
      hits[static_cast<size_t>(i)]++;
      std::lock_guard<std::mutex> lock(mu);
      tids.insert(std::this_thread::get_id());
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    // 4 configured threads and 64 unit chunks: pool workers must have
    // participated alongside the caller.
    EXPECT_GT(tids.size(), 1u) << "grain " << grain;
  }
}

TEST(ThreadPool, WarmSyevCreatesZeroNewThreads) {
  // Acceptance criterion: a warm two-stage syev with vectors and
  // num_workers >= 4 creates no OS threads -- every graph run and every
  // parallel_for executes on the already-parked pool.
  const idx n = 72;
  Rng rng(17);
  Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.algo = solver::method::two_stage;
  opts.solver = solver::eig_solver::dc;
  opts.job = solver::jobz::vectors;
  opts.nb = 12;
  opts.ell = 8;
  opts.num_workers = 4;

  auto warm_result = solver::syev(n, a.data(), a.ld(), opts);  // warm-up
  const auto warm = ThreadPool::instance().stats();
  auto result = solver::syev(n, a.data(), a.ld(), opts);
  const auto after = ThreadPool::instance().stats();

  EXPECT_EQ(after.threads_created, warm.threads_created)
      << "warm syev spawned OS threads";
  EXPECT_GT(after.jobs_executed, warm.jobs_executed);

  // The solve itself must still be correct.
  ASSERT_EQ(result.eigenvalues.size(), static_cast<size_t>(n));
  ASSERT_EQ(warm_result.eigenvalues.size(), static_cast<size_t>(n));
  for (idx i = 0; i < n; ++i)
    EXPECT_EQ(result.eigenvalues[static_cast<size_t>(i)],
              warm_result.eigenvalues[static_cast<size_t>(i)]);
  EXPECT_LE(testing::eigen_residual(a, result.z, result.eigenvalues),
            1e-10 * n);
}

TEST(ThreadPool, AutoWorkerCountResolvesThroughSyev) {
  // num_workers <= 0 resolves to the library default (4 here) in exactly
  // one place; the solve must succeed and use the pool.
  const idx n = 48;
  Rng rng(19);
  Matrix a = testing::random_symmetric(n, rng);
  for (const solver::method algo :
       {solver::method::one_stage, solver::method::two_stage}) {
    SCOPED_TRACE(solver::method_name(algo));
    solver::SyevOptions opts;
    opts.algo = algo;
    opts.nb = 8;
    opts.num_workers = 0;
    const auto before = ThreadPool::instance().stats();
    auto result = solver::syev(n, a.data(), a.ld(), opts);
    const auto after = ThreadPool::instance().stats();
    EXPECT_GT(after.jobs_executed, before.jobs_executed)
        << "auto worker count did not engage the pool";
    EXPECT_LE(testing::eigen_residual(a, result.z, result.eigenvalues),
              1e-10 * n);
  }
}

TEST(ThreadPool, EnvParsingRejectsMalformedValues) {
  long v = 42;
  ::setenv("TSEIG_TEST_ENV", "7", 1);
  EXPECT_TRUE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
  EXPECT_EQ(v, 7);

  // Rejected values must leave the caller's default untouched.
  for (const char* bad : {"0", "-3", "12abc", "", "1e3", "101",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    v = 42;
    ::setenv("TSEIG_TEST_ENV", bad, 1);
    EXPECT_FALSE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
    EXPECT_EQ(v, 42);
  }

  ::unsetenv("TSEIG_TEST_ENV");
  v = 42;
  EXPECT_FALSE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
  EXPECT_EQ(v, 42);
}

}  // namespace
}  // namespace tseig
