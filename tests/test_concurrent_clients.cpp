// Stress tests for concurrent *host-thread* clients of the shared runtime:
// several application threads calling syev, parallel_for, run_self_scheduled and
// syev_batch at the same time.  The pool is a process-wide singleton, so
// these are the tests that shake out cross-client races (lost wakeups,
// ticket mixups, flop cross-attribution).  Run under TSan via run_tsan.sh.
//
// gtest assertions are not thread-safe, so worker threads only record
// results; all checking happens on the main thread after join.  The solves
// pin the two-stage method, whose stage-1 and stage-2 loops put the most
// concurrent pool traffic into these small problems.
#include <cstdlib>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using solver::syev;
using solver::SyevOptions;

// Force real pool parallelism regardless of the host's core count.
const bool forced_threads = [] {
  setenv("TSEIG_NUM_THREADS", "4", 1);
  return true;
}();

constexpr int kClients = 4;
constexpr int kRounds = 3;

TEST(ConcurrentClients, SyevFromManyHostThreadsIsBitwiseStable) {
  // Each host thread owns one problem and solves it repeatedly with varying
  // worker counts while the other threads hammer the same pool.  Every
  // solve must match the quiet sequential reference bitwise.
  std::vector<Matrix> mats;
  std::vector<solver::SyevResult> refs;
  for (int c = 0; c < kClients; ++c) {
    Rng rng(100 + static_cast<std::uint64_t>(c));
    mats.push_back(testing::random_symmetric(48 + 8 * c, rng));
    SyevOptions opts;
    opts.algo = solver::method::two_stage;
    opts.nb = 12;
    refs.push_back(
        syev(mats.back().rows(), mats.back().data(), mats.back().ld(), opts));
  }

  std::vector<std::vector<solver::SyevResult>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        SyevOptions opts;
        opts.algo = solver::method::two_stage;
        opts.nb = 12;
        opts.num_workers = 1 + (c + round) % 4;
        got[static_cast<size_t>(c)].push_back(syev(
            mats[static_cast<size_t>(c)].rows(),
            mats[static_cast<size_t>(c)].data(),
            mats[static_cast<size_t>(c)].ld(), opts));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    const auto& ref = refs[static_cast<size_t>(c)];
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("client " + std::to_string(c) + " round " +
                   std::to_string(round));
      const auto& r = got[static_cast<size_t>(c)][static_cast<size_t>(round)];
      ASSERT_EQ(r.eigenvalues.size(), ref.eigenvalues.size());
      for (size_t i = 0; i < ref.eigenvalues.size(); ++i)
        EXPECT_EQ(r.eigenvalues[i], ref.eigenvalues[i]);
      EXPECT_LE(testing::max_abs_diff(r.z, ref.z), 0.0);
    }
  }
}

TEST(ConcurrentClients, MixedConstructsShareThePool) {
  // parallel_for, run_self_scheduled and a full syev running concurrently from
  // different host threads, several rounds each.  Checks results, not
  // timing: the pool must keep every client's dataflow intact.
  const idx n = 1 << 14;
  std::vector<double> x(static_cast<size_t>(n));
  for (idx i = 0; i < n; ++i) x[static_cast<size_t>(i)] = static_cast<double>(i);

  Rng rng(7);
  Matrix a = testing::random_symmetric(40, rng);
  SyevOptions sopts;
  sopts.algo = solver::method::two_stage;
  sopts.nb = 8;
  sopts.num_workers = 2;
  const auto ref = syev(a.rows(), a.data(), a.ld(), sopts);

  std::atomic<bool> pf_ok{true};
  std::vector<std::int64_t> fan_in_sums(kRounds, 0);
  std::vector<solver::SyevResult> solves;

  std::thread pf_thread([&] {
    for (int round = 0; round < kRounds && pf_ok.load(); ++round) {
      std::vector<double> y(static_cast<size_t>(n), 0.0);
      parallel_for(4, 0, n, 256,
                   [&](idx i) { y[static_cast<size_t>(i)] = 2.0 * x[static_cast<size_t>(i)]; });
      for (idx i = 0; i < n; ++i)
        if (y[static_cast<size_t>(i)] != 2.0 * static_cast<double>(i)) {
          pf_ok.store(false);
          break;
        }
    }
  });
  std::thread fan_in_thread([&] {
    for (int round = 0; round < kRounds; ++round) {
      // A fan-in: 16 independent adders on self-scheduled bodies, then one
      // reduction after the join that must observe all of them.
      std::vector<std::int64_t> slots(16, 0);
      std::atomic<int> next{0};
      run_self_scheduled(4, [&](int) {
        for (int t = next++; t < 16; t = next++)
          slots[static_cast<size_t>(t)] = t + 1;
      });
      std::int64_t total = 0;
      for (std::int64_t v : slots) total += v;
      fan_in_sums[static_cast<size_t>(round)] = total;
    }
  });
  std::thread syev_thread([&] {
    for (int round = 0; round < kRounds; ++round)
      solves.push_back(syev(a.rows(), a.data(), a.ld(), sopts));
  });
  pf_thread.join();
  fan_in_thread.join();
  syev_thread.join();

  EXPECT_TRUE(pf_ok.load());
  for (int round = 0; round < kRounds; ++round)
    EXPECT_EQ(fan_in_sums[static_cast<size_t>(round)], 136);  // 1 + ... + 16
  for (const auto& r : solves) {
    ASSERT_EQ(r.eigenvalues.size(), ref.eigenvalues.size());
    for (size_t i = 0; i < ref.eigenvalues.size(); ++i)
      EXPECT_EQ(r.eigenvalues[i], ref.eigenvalues[i]);
    EXPECT_LE(testing::max_abs_diff(r.z, ref.z), 0.0);
  }
}

TEST(ConcurrentClients, ConcurrentBatchesMatchSequential) {
  // Two host threads each running their own syev_batch against the shared
  // pool; every per-problem result must still match a quiet sequential
  // solve bitwise.
  constexpr int kBatches = 2;
  std::vector<std::vector<Matrix>> storage(kBatches);
  std::vector<std::vector<solver::BatchProblem>> batches(kBatches);
  std::vector<std::vector<solver::SyevResult>> refs(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    Rng rng(200 + static_cast<std::uint64_t>(b));
    for (idx n : {idx{8}, idx{24}, idx{40}, idx{56}}) {
      storage[static_cast<size_t>(b)].push_back(
          testing::random_symmetric(n, rng));
      solver::BatchProblem p;
      p.n = n;
      p.a = storage[static_cast<size_t>(b)].back().data();
      p.lda = storage[static_cast<size_t>(b)].back().ld();
      p.opts.algo = solver::method::two_stage;
      p.opts.nb = 8;
      batches[static_cast<size_t>(b)].push_back(p);
      refs[static_cast<size_t>(b)].push_back(syev(p.n, p.a, p.lda, p.opts));
    }
  }

  std::vector<solver::SyevBatchResult> outs(kBatches);
  std::vector<std::thread> threads;
  for (int b = 0; b < kBatches; ++b)
    threads.emplace_back([&, b] {
      solver::SyevBatchOptions bopts;
      bopts.num_workers = 2;
      outs[static_cast<size_t>(b)] =
          solver::syev_batch(batches[static_cast<size_t>(b)], bopts);
    });
  for (std::thread& t : threads) t.join();

  for (int b = 0; b < kBatches; ++b) {
    const auto& out = outs[static_cast<size_t>(b)];
    ASSERT_EQ(out.results.size(), batches[static_cast<size_t>(b)].size());
    for (size_t i = 0; i < out.results.size(); ++i) {
      SCOPED_TRACE("batch " + std::to_string(b) + " problem " +
                   std::to_string(i));
      const auto& ref = refs[static_cast<size_t>(b)][i];
      const auto& r = out.results[i];
      ASSERT_EQ(r.eigenvalues.size(), ref.eigenvalues.size());
      for (size_t k = 0; k < ref.eigenvalues.size(); ++k)
        EXPECT_EQ(r.eigenvalues[k], ref.eigenvalues[k]);
      EXPECT_LE(testing::max_abs_diff(r.z, ref.z), 0.0);
    }
  }
}

TEST(ConcurrentClients, TinyBatchesFromManyHostThreadsMatchSequential) {
  // Every member of these batches runs its bulge chase on whichever pool
  // worker takes it, with scratch at whatever heap address that thread's
  // allocator hands out.  No n <= 8 result may depend on either: the chase
  // is built without FMA contraction, whose peeled loop iterations depend on
  // buffer alignment.  n = 1..3 go through the closed-form lane.
  constexpr int kProblems = 128;
  constexpr int kBatchRounds = 8;
  Rng rng(1017);
  std::vector<Matrix> mats;
  for (int i = 0; i < kProblems; ++i)
    mats.push_back(testing::random_symmetric(1 + i % 8, rng));
  SyevOptions opts;  // the chase needs two-stage: n <= 8 resolves to one-stage
  opts.algo = solver::method::two_stage;
  std::vector<solver::BatchProblem> problems;
  std::vector<solver::SyevResult> refs;
  for (const Matrix& m : mats) {
    problems.push_back({m.rows(), m.data(), m.ld(), opts});
    refs.push_back(syev(m.rows(), m.data(), m.ld(), problems.back().opts));
  }

  std::vector<std::vector<solver::SyevBatchResult>> outs(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      for (int round = 0; round < kBatchRounds; ++round) {
        solver::SyevBatchOptions bopts;
        bopts.num_workers = 2 + (c + round) % 3;
        outs[static_cast<size_t>(c)].push_back(
            solver::syev_batch(problems, bopts));
      }
    });
  for (std::thread& t : threads) t.join();

  int mismatches = 0;
  for (const auto& client : outs) {
    ASSERT_EQ(client.size(), static_cast<size_t>(kBatchRounds));
    for (const auto& out : client) {
      ASSERT_EQ(out.results.size(), refs.size());
      for (size_t i = 0; i < refs.size(); ++i) {
        const auto& r = out.results[i];
        if (r.eigenvalues != refs[i].eigenvalues ||
            testing::max_abs_diff(r.z, refs[i].z) > 0.0)
          ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kClients * kBatchRounds * kProblems
                           << " batch members";
}

TEST(ConcurrentClients, FlopCountsStayPerClient) {
  // Regression for the process-global flop counter: a FlopScope around one
  // client's solve must see exactly that solve's flops even while other
  // clients run the same solve on the same pool (pool work is credited back
  // to the forking thread, nobody else).
  Rng rng(17);
  Matrix a = testing::random_symmetric(64, rng);
  SyevOptions opts;
  opts.algo = solver::method::two_stage;
  opts.nb = 16;
  opts.num_workers = 4;

  // Quiet reference count (flop formulas are deterministic).
  FlopScope ref_scope;
  syev(a.rows(), a.data(), a.ld(), opts);
  const std::uint64_t ref_flops = ref_scope.count();
  ASSERT_GT(ref_flops, 0u);

  std::vector<std::uint64_t> counts(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      FlopScope scope;
      for (int round = 0; round < kRounds; ++round)
        syev(a.rows(), a.data(), a.ld(), opts);
      counts[static_cast<size_t>(c)] = scope.count();
    });
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(counts[static_cast<size_t>(c)],
              static_cast<std::uint64_t>(kRounds) * ref_flops)
        << "client " << c;
}

}  // namespace
}  // namespace tseig
