// Stress tests for the parallel execution paths: oversubscribed workers,
// repeated runs and bit-identity against the sequential dataflow.  These are
// the tests that shake out ordering bugs in the pool loops (stage 1's
// look-ahead and the bulge-chasing lattice).
#include <cstdlib>

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

// Force real parallelism in parallel_for regardless of the host's core
// count (the value is cached on first use, and each test source is its own
// binary, so this does not leak into other test processes).
const bool forced_threads = [] {
  setenv("TSEIG_NUM_THREADS", "4", 1);
  return true;
}();

TEST(ParallelStress, RepeatedFullSolvesAreBitIdentical) {
  const idx n = 72;
  Rng rng(3);
  Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions seq;
  seq.algo = solver::method::two_stage;  // the stage-2 chase widths below
  seq.nb = 12;
  seq.ell = 8;
  auto ref = solver::syev(n, a.data(), a.ld(), seq);

  for (int round = 0; round < 5; ++round) {
    solver::SyevOptions par = seq;
    par.num_workers = 8;  // heavy oversubscription on this host
    par.stage2_workers = 1 + round % 3;
    auto got = solver::syev(n, a.data(), a.ld(), par);
    ASSERT_EQ(got.eigenvalues.size(), ref.eigenvalues.size());
    for (size_t i = 0; i < ref.eigenvalues.size(); ++i)
      EXPECT_EQ(got.eigenvalues[i], ref.eigenvalues[i]) << "round " << round;
    EXPECT_LE(testing::max_abs_diff(got.z, ref.z), 0.0) << "round " << round;
  }
}

TEST(ParallelStress, Sy2sbManyWorkerCounts) {
  const idx n = 96, nb = 16;
  Rng rng(5);
  Matrix a = testing::random_symmetric(n, rng);
  auto ref = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  Matrix refb = ref.band.to_dense();
  for (int w : {2, 3, 5, 8, 13}) {
    auto got = twostage::sy2sb(n, a.data(), a.ld(), nb, w);
    EXPECT_LE(testing::max_abs_diff(got.band.to_dense(), refb), 0.0)
        << w << " workers";
  }
}

TEST(ParallelStress, Sb2stPipelineUnderOversubscription) {
  const idx n = 120, bw = 8;
  Rng rng(7);
  twostage::BandMatrix band(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      band.at(i, j) = 2.0 * rng.uniform() - 1.0;
  auto ref = twostage::sb2st(band);
  for (int round = 0; round < 4; ++round) {
    twostage::Sb2stOptions o;
    o.num_workers = 6 + 2 * round;  // up to 12 range owners
    auto got = twostage::sb2st(band, o);
    EXPECT_EQ(got.d, ref.d) << "round " << round;
    EXPECT_EQ(got.e, ref.e) << "round " << round;
  }
}

TEST(ParallelStress, NestedParallelForInsideSelfScheduledLoopStaysWithinWorkers) {
  ASSERT_TRUE(forced_threads);
  const int workers = 3;
  // Warm the pool beyond this test's demand so thread creation must be zero
  // below.
  rt::ThreadPool::instance().fork_join(8, [](int) {});
  const auto warm = rt::ThreadPool::instance().stats();

  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  std::atomic<int> off_thread{0};
  std::atomic<int> next{0};
  run_self_scheduled(workers, [&](int) {
    for (int i = next++; i < 24; i = next++) {
      const int cur = ++live;
      int p = peak.load();
      while (cur > p && !peak.compare_exchange_weak(p, cur)) {
      }
      // A BLAS-3 kernel inside a loop body: the nested parallel_for must
      // run serially on this worker's thread.
      const auto me = std::this_thread::get_id();
      parallel_for(0, 100, 1, [&](idx) {
        if (std::this_thread::get_id() != me) off_thread++;
      });
      --live;
    }
  });

  EXPECT_EQ(off_thread.load(), 0) << "nested parallel_for forked";
  EXPECT_LE(peak.load(), workers) << "more live workers than num_workers";
  const auto after = rt::ThreadPool::instance().stats();
  EXPECT_EQ(after.threads_created, warm.threads_created)
      << "nested parallelism grew the pool";
}

TEST(ParallelStress, NestedSolveInsideSelfScheduledLoopIsSafe) {
  ASSERT_TRUE(forced_threads);
  // Whole solver calls as loop items: every inner pool loop must detect
  // nesting, so this neither deadlocks nor oversubscribes, and each item's
  // result matches a top-level solve.
  const idx n = 40;
  Rng rng(23);
  Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions opts;
  opts.algo = solver::method::two_stage;  // the pipeline with most loops
  opts.nb = 8;
  opts.ell = 4;
  opts.num_workers = 4;
  const auto ref = solver::syev(n, a.data(), a.ld(), opts);

  std::atomic<int> mismatches{0};
  std::atomic<int> next{0};
  run_self_scheduled(3, [&](int) {
    for (int i = next++; i < 6; i = next++) {
      auto got = solver::syev(n, a.data(), a.ld(), opts);
      if (got.eigenvalues != ref.eigenvalues) mismatches++;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelStress, ApplyQ2ManyColumnBlockSizes) {
  // The column-block width is ceil(ncols / workers) rounded up to 8, at
  // most 256: these pairs give widths from 8 to 256, and 300 columns on
  // one worker give two blocks.  Every one must match one worker bitwise.
  const idx n = 90, bw = 10;
  Rng rng(11);
  twostage::BandMatrix band(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      band.at(i, j) = 2.0 * rng.uniform() - 1.0;
  auto res = twostage::sb2st(band);
  for (const idx ncols : {idx{33}, idx{300}}) {
    Matrix e = testing::random_matrix(n, ncols, rng);
    Matrix ref = e;
    twostage::apply_q2(op::none, res.v2, ref.data(), ref.ld(), ncols, 6, 1);
    for (const int workers : {2, 3, 4, 5, 8}) {
      Matrix got = e;
      twostage::apply_q2(op::none, res.v2, got.data(), got.ld(), ncols, 6,
                         workers);
      EXPECT_LE(testing::max_abs_diff(got, ref), 0.0)
          << "ncols " << ncols << " workers " << workers;
    }
  }
}

}  // namespace
}  // namespace tseig
