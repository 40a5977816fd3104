// Tests for the batched multi-problem driver: every result must be bitwise
// identical to a sequential syev() on the same problem (the scheduler may
// reorder and re-budget work but never change answers), and the BatchStats
// record must be internally consistent.
#include <cmath>
#include <cstdlib>
#include <cstring>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "matgen.hpp"
#include "obs/telemetry.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "solver/syev_small.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

using solver::BatchProblem;
using solver::eig_solver;
using solver::jobz;
using solver::method;
using solver::syev;
using solver::syev_batch;
using solver::SyevBatchOptions;
using solver::SyevBatchResult;
using solver::SyevOptions;

// Force real parallelism regardless of the host's core count (cached on
// first use; each test source is its own binary).
const bool forced_threads = [] {
  setenv("TSEIG_NUM_THREADS", "4", 1);
  return true;
}();

/// Both reductions, for tests whose sizes the default would only ever
/// reduce one-stage.
constexpr method kMethods[] = {method::one_stage, method::two_stage};

/// A mixed bag of problems exercising sizes 1..64, all three tridiagonal
/// solvers, both jobz settings, both reduction methods and a subset
/// fraction.  Matrices are owned by `storage`.
std::vector<BatchProblem> make_mixed_batch(std::vector<Matrix>& storage,
                                           Rng& rng) {
  struct Spec {
    idx n;
    method algo;
    eig_solver solver;
    jobz job;
    double fraction;
  };
  const std::vector<Spec> specs = {
      {1, method::two_stage, eig_solver::dc, jobz::vectors, 1.0},
      {2, method::one_stage, eig_solver::qr, jobz::vectors, 1.0},
      {5, method::two_stage, eig_solver::bisect, jobz::vectors, 1.0},
      {13, method::two_stage, eig_solver::dc, jobz::values_only, 1.0},
      {24, method::one_stage, eig_solver::dc, jobz::vectors, 1.0},
      {33, method::two_stage, eig_solver::qr, jobz::vectors, 1.0},
      {40, method::two_stage, eig_solver::bisect, jobz::vectors, 0.2},
      {48, method::two_stage, eig_solver::dc, jobz::vectors, 0.5},
      {64, method::two_stage, eig_solver::dc, jobz::vectors, 1.0},
      {64, method::one_stage, eig_solver::qr, jobz::values_only, 1.0},
  };
  std::vector<BatchProblem> batch;
  for (const Spec& s : specs) {
    storage.push_back(testing::random_symmetric(s.n, rng));
    BatchProblem p;
    p.n = s.n;
    p.a = storage.back().data();
    p.lda = storage.back().ld();
    p.opts.algo = s.algo;
    p.opts.solver = s.solver;
    p.opts.job = s.job;
    p.opts.fraction = s.fraction;
    p.opts.nb = 8;
    batch.push_back(p);
  }
  return batch;
}

/// Bitwise equality of a batch result entry against a sequential solve.
void expect_bitwise_equal(const solver::SyevResult& got,
                          const solver::SyevResult& ref, idx problem) {
  SCOPED_TRACE("problem " + std::to_string(problem));
  ASSERT_EQ(got.eigenvalues.size(), ref.eigenvalues.size());
  for (size_t i = 0; i < ref.eigenvalues.size(); ++i)
    EXPECT_EQ(got.eigenvalues[i], ref.eigenvalues[i]) << "eigenvalue " << i;
  ASSERT_EQ(got.z.rows(), ref.z.rows());
  ASSERT_EQ(got.z.cols(), ref.z.cols());
  if (ref.z.cols() > 0) {
    EXPECT_LE(testing::max_abs_diff(got.z, ref.z), 0.0);
  }
}

TEST(SyevBatch, MatchesSequentialBitwiseAcrossWorkerCounts) {
  std::vector<Matrix> storage;
  Rng rng(3);
  const std::vector<BatchProblem> batch = make_mixed_batch(storage, rng);

  // Sequential references with each problem's own options.
  std::vector<solver::SyevResult> refs;
  for (const BatchProblem& p : batch)
    refs.push_back(syev(p.n, p.a, p.lda, p.opts));

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    SyevBatchOptions bopts;
    bopts.num_workers = workers;
    const SyevBatchResult out = syev_batch(batch, bopts);
    ASSERT_EQ(out.results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
      expect_bitwise_equal(out.results[i], refs[i], static_cast<idx>(i));
  }
}

TEST(SyevBatch, CrossoverChoiceNeverChangesResults) {
  std::vector<Matrix> storage;
  Rng rng(5);
  const std::vector<BatchProblem> batch = make_mixed_batch(storage, rng);

  // All-small (every problem whole-per-worker) vs all-large (every problem
  // partitioned, one at a time with the full budget).
  SyevBatchOptions all_small;
  all_small.num_workers = 4;
  all_small.crossover = 1 << 20;
  SyevBatchOptions all_large;
  all_large.num_workers = 4;
  all_large.crossover = 1;  // n = 1 still counts as small; everything else not

  const SyevBatchResult a = syev_batch(batch, all_small);
  const SyevBatchResult b = syev_batch(batch, all_large);
  EXPECT_EQ(a.stats.whole_problem_count, static_cast<idx>(batch.size()));
  EXPECT_EQ(b.stats.partitioned_count, static_cast<idx>(batch.size() - 1));
  for (size_t i = 0; i < batch.size(); ++i)
    expect_bitwise_equal(a.results[i], b.results[i], static_cast<idx>(i));
}

TEST(SyevBatch, AutomaticMembersMatchDirectCallsOnBothSidesOfTheThreshold) {
  // Default options (method::automatic): members at and just above
  // kOneStageMaxN run different reductions, and a member picks its method
  // from n alone, so inside the batch (one worker, or the full budget above
  // the batch crossover) it gets the bits of a direct syev.  Repeated
  // batches must keep matching.
  const idx t = solver::kOneStageMaxN;
  std::vector<Matrix> storage;
  std::vector<BatchProblem> batch;
  Rng rng(61);
  for (const idx n : {idx{17}, idx{96}, t - 40, t, t + 1}) {
    storage.push_back(testing::random_symmetric(n, rng));
    BatchProblem p;
    p.n = n;
    p.a = storage.back().data();
    p.lda = storage.back().ld();
    batch.push_back(p);
  }
  batch[1].opts.job = jobz::values_only;

  std::vector<solver::SyevResult> refs;
  for (const BatchProblem& p : batch)
    refs.push_back(syev(p.n, p.a, p.lda, p.opts));

  SyevBatchOptions bopts;
  bopts.num_workers = 4;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const SyevBatchResult out = syev_batch(batch, bopts);
    ASSERT_EQ(out.results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i)
      expect_bitwise_equal(out.results[i], refs[i], static_cast<idx>(i));
  }
}

TEST(SyevBatch, EmptyBatch) {
  const SyevBatchResult out = syev_batch({});
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(out.stats.problems.empty());
  EXPECT_EQ(out.stats.whole_problem_count, 0);
  EXPECT_EQ(out.stats.partitioned_count, 0);
  EXPECT_EQ(out.stats.total_seconds, 0.0);
  EXPECT_EQ(out.stats.busy_seconds, 0.0);
  EXPECT_EQ(out.stats.occupancy(), 0.0);
}

TEST(SyevBatch, SingleProblem) {
  Rng rng(7);
  Matrix a = testing::random_symmetric(32, rng);
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    BatchProblem p;
    p.n = 32;
    p.a = a.data();
    p.lda = a.ld();
    p.opts.algo = algo;
    p.opts.nb = 8;
    const SyevBatchResult out = syev_batch({p});
    ASSERT_EQ(out.results.size(), 1u);
    const auto ref = syev(p.n, p.a, p.lda, p.opts);
    expect_bitwise_equal(out.results[0], ref, 0);
    EXPECT_TRUE(testing::check_eigen_pairs(a, out.results[0].eigenvalues,
                                           out.results[0].z));
  }
}

TEST(SyevBatch, AliasedProblemsShareOneMatrix) {
  // The input is const: the same matrix may appear in several problems
  // under different option sets.
  Rng rng(9);
  Matrix a = testing::random_symmetric(40, rng);
  const Matrix pristine = a;
  std::vector<BatchProblem> batch(6);
  for (size_t i = 0; i < batch.size(); ++i) {
    BatchProblem& p = batch[i];
    p.n = 40;
    p.a = a.data();
    p.lda = a.ld();
    p.opts.algo = kMethods[i / 3];
    p.opts.nb = 8;
    if (i % 3 == 1) p.opts.solver = eig_solver::qr;
    if (i % 3 == 2) p.opts.job = jobz::values_only;
  }

  SyevBatchOptions bopts;
  bopts.num_workers = 4;
  const SyevBatchResult out = syev_batch(batch, bopts);
  EXPECT_LE(testing::max_abs_diff(a, pristine), 0.0);  // input untouched
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto ref = syev(batch[i].n, batch[i].a, batch[i].lda, batch[i].opts);
    expect_bitwise_equal(out.results[i], ref, static_cast<idx>(i));
  }
}

TEST(SyevBatch, StatsAreConsistent) {
  std::vector<Matrix> storage;
  Rng rng(11);
  const std::vector<BatchProblem> batch = make_mixed_batch(storage, rng);

  SyevBatchOptions bopts;
  bopts.num_workers = 4;
  bopts.crossover = 32;
  const SyevBatchResult out = syev_batch(batch, bopts);
  const auto& st = out.stats;

  EXPECT_EQ(st.num_workers, 4);
  EXPECT_EQ(st.crossover, 32);
  ASSERT_EQ(st.problems.size(), batch.size());
  EXPECT_EQ(st.whole_problem_count + st.partitioned_count,
            static_cast<idx>(batch.size()));
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.busy_seconds, 0.0);
  EXPECT_GT(st.occupancy(), 0.0);
  EXPECT_LE(st.occupancy(), 1.0);

  idx whole = 0;
  double busy = 0.0;
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("problem " + std::to_string(i));
    const auto& p = st.problems[i];
    EXPECT_EQ(p.n, batch[i].n);
    EXPECT_EQ(p.whole_problem, batch[i].n <= st.crossover);
    whole += p.whole_problem ? 1 : 0;
    // Scheduling timeline: accepted, then started, then finished, all
    // within the batch makespan.
    EXPECT_GE(p.enqueue_seconds, 0.0);
    EXPECT_LE(p.enqueue_seconds, p.start_seconds);
    EXPECT_LE(p.start_seconds, p.end_seconds);
    EXPECT_LE(p.end_seconds, st.total_seconds);
    EXPECT_GE(p.queue_wait_seconds(), 0.0);
    EXPECT_GE(p.solve_seconds(), 0.0);
    EXPECT_GE(p.worker, 0);
    EXPECT_LT(p.worker, st.num_workers);
    if (!p.whole_problem) {
      EXPECT_EQ(p.worker, 0);  // full-budget problems run on the caller
    }
    busy += p.solve_seconds();
    // The per-problem breakdown must describe a real solve (tiny problems
    // may legitimately round their reduction to zero flops).
    const solver::PhaseBreakdown& ph = out.results[i].phases;
    if (p.n >= 16) {
      EXPECT_GT(ph.reduction_flops, 0u);
    }
    EXPECT_GE(ph.total_seconds(), 0.0);
  }
  EXPECT_EQ(whole, st.whole_problem_count);
  EXPECT_DOUBLE_EQ(busy, st.busy_seconds);
  // The mixed batch contains n = 1 and n = 2 problems with the closed-form
  // lane at its default (on): they must be counted as tiny-lane routed
  // (zero when the TSEIG_SMALL_N=0 oracle vetoes the lane process-wide).
  EXPECT_EQ(st.tiny_lane_count, solver::small::env_enabled() ? 2 : 0);
}

TEST(SyevBatch, MatgenTortureBatchMatchesGroundTruth) {
  // One batch holding the whole adversarial catalog at several sizes: every
  // result must reproduce its problem's prescribed spectrum, whichever lane
  // or pipeline path the scheduler routed it through.
  std::vector<testing::matgen::Generated> storage;
  std::vector<BatchProblem> batch;
  // Every size under both reductions; n = 2 and 3 take the lane either way.
  for (const method algo : kMethods) {
    for (idx n : {idx{2}, idx{3}, idx{24}}) {
      for (const auto& spec : testing::matgen::torture_cases(n, 500 + n)) {
        storage.push_back(testing::matgen::generate(spec));
        BatchProblem p;
        p.n = n;
        p.a = storage.back().a.data();
        p.lda = storage.back().a.ld();
        p.opts.algo = algo;
        p.opts.nb = 8;
        batch.push_back(p);
      }
    }
  }
  SyevBatchOptions bopts;
  bopts.num_workers = 4;
  const SyevBatchResult out = syev_batch(batch, bopts);
  ASSERT_EQ(out.results.size(), batch.size());
  // Two of the three sizes are lane-eligible (unless TSEIG_SMALL_N=0).
  EXPECT_EQ(out.stats.tiny_lane_count,
            solver::small::env_enabled()
                ? static_cast<idx>(2 * batch.size() / 3)
                : 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "problem " << i << " ("
                 << testing::matgen::class_name(storage[i].spec.cls)
                 << ", n " << batch[i].n << ", scale "
                 << storage[i].spec.scale << ")");
    EXPECT_TRUE(testing::check_eigenvalues(storage[i].eigs,
                                           out.results[i].eigenvalues));
    EXPECT_TRUE(testing::check_eigen_pairs(
        storage[i].a, out.results[i].eigenvalues, out.results[i].z));
  }
}

TEST(SyevBatch, PerProblemFlopsAreIsolated) {
  // Two identical problems in one batch must report identical flop counts,
  // equal to a sequential solve's -- concurrency must not cross-attribute
  // work between problems (thread-local counters + pool propagation).
  Rng rng(13);
  Matrix a = testing::random_symmetric(48, rng);
  for (const method algo : kMethods) {
    SCOPED_TRACE(solver::method_name(algo));
    BatchProblem p;
    p.n = 48;
    p.a = a.data();
    p.lda = a.ld();
    p.opts.algo = algo;
    p.opts.nb = 8;
    const auto ref = syev(p.n, p.a, p.lda, p.opts);

    SyevBatchOptions bopts;
    bopts.num_workers = 4;
    const SyevBatchResult out = syev_batch({p, p, p, p}, bopts);
    for (size_t i = 0; i < out.results.size(); ++i) {
      SCOPED_TRACE("problem " + std::to_string(i));
      EXPECT_EQ(out.results[i].phases.reduction_flops,
                ref.phases.reduction_flops);
      EXPECT_EQ(out.results[i].phases.solve_flops, ref.phases.solve_flops);
      EXPECT_EQ(out.results[i].phases.update_flops, ref.phases.update_flops);
    }
  }
}

TEST(SyevBatch, TraceEmitsTwoEventsPerProblem) {
  std::vector<Matrix> storage;
  Rng rng(15);
  const std::vector<BatchProblem> batch = make_mixed_batch(storage, rng);

  obs::reset();
  obs::set_enabled(true);
  SyevBatchOptions bopts;
  bopts.num_workers = 2;
  syev_batch(batch, bopts);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);

  // The scheduler stamps the problem index into the span arg.  Other
  // producers (sytrd panels, chase sweeps) also use arg, so match on label
  // first.
  std::vector<int> enqueued(batch.size(), 0), solved(batch.size(), 0);
  for (const obs::SpanRecord& ev : snap.spans) {
    EXPECT_GE(ev.end_seconds, ev.start_seconds);
    const bool is_enqueue = std::strcmp(ev.label, "batch_enqueue") == 0;
    const bool is_solve = std::strcmp(ev.label, "batch_solve") == 0;
    if (!is_enqueue && !is_solve) continue;
    ASSERT_LT(static_cast<size_t>(ev.arg), batch.size());
    if (is_enqueue) {
      EXPECT_EQ(ev.end_seconds, ev.start_seconds);  // zero-duration marker
      ++enqueued[static_cast<size_t>(ev.arg)];
    } else {
      ++solved[static_cast<size_t>(ev.arg)];
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("problem " + std::to_string(i));
    EXPECT_EQ(enqueued[i], 1);
    EXPECT_EQ(solved[i], 1);
  }
}

TEST(SyevBatch, FailingMemberPropagatesAfterDrain) {
  // The header's failure contract: a solver failure on one problem reaches
  // the caller once the batch's loops have returned, and the pool keeps
  // serving: the next batch on it still matches sequential syev bitwise.
  Rng rng(23);
  std::vector<Matrix> storage;
  std::vector<BatchProblem> batch;
  for (int i = 0; i < 8; ++i) {
    storage.push_back(testing::random_symmetric(64, rng));
    BatchProblem p;
    p.n = 64;
    p.a = storage.back().data();
    p.lda = storage.back().ld();
    p.opts.algo = kMethods[i % 2];
    p.opts.nb = 8;
    p.opts.dc_crossover = 8;
    batch.push_back(p);
  }
  const Matrix healthy = storage[5];
  storage[5](40, 3) = std::nan("");
  ASSERT_ANY_THROW(syev(batch[5].n, batch[5].a, batch[5].lda, batch[5].opts));

  SyevBatchOptions bopts;
  bopts.num_workers = 4;
  EXPECT_THROW(syev_batch(batch, bopts), std::exception);

  storage[5] = healthy;
  batch[5].a = storage[5].data();
  const SyevBatchResult out = syev_batch(batch, bopts);
  ASSERT_EQ(out.results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchProblem& p = batch[i];
    expect_bitwise_equal(out.results[i], syev(p.n, p.a, p.lda, p.opts),
                         static_cast<idx>(i));
  }
}

TEST(SyevBatch, RejectsMalformedProblemsBeforeSolving) {
  Rng rng(17);
  Matrix a = testing::random_symmetric(8, rng);
  BatchProblem good;
  good.n = 8;
  good.a = a.data();
  good.lda = a.ld();

  BatchProblem empty = good;
  empty.n = 0;
  EXPECT_THROW(syev_batch({good, empty}), invalid_argument);

  BatchProblem null_a = good;
  null_a.a = nullptr;
  EXPECT_THROW(syev_batch({null_a, good}), invalid_argument);

  BatchProblem bad_lda = good;
  bad_lda.lda = 4;
  EXPECT_THROW(syev_batch({good, bad_lda}), invalid_argument);
}

TEST(SyevBatch, NonFiniteMemberIsRejected) {
  // Members get syev's input screen: a NaN in one member's referenced
  // triangle reaches the caller as invalid_argument, on the pipeline path
  // and on the closed-form path of tiny members alike.
  Rng rng(29);
  std::vector<Matrix> storage;
  std::vector<BatchProblem> batch;
  for (const idx n : {idx{3}, idx{40}, idx{2}, idx{48}}) {
    storage.push_back(testing::random_symmetric(n, rng));
    BatchProblem p;
    p.n = n;
    batch.push_back(p);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].a = storage[i].data();
    batch[i].lda = storage[i].ld();
  }
  SyevBatchOptions bopts;
  bopts.num_workers = 2;
  for (const size_t bad : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE(bad);
    Matrix& m = storage[bad];
    const double saved = m(1, 0);
    m(1, 0) = std::nan("");
    EXPECT_THROW(syev_batch(batch, bopts), invalid_argument);
    m(1, 0) = saved;
  }
}

}  // namespace
}  // namespace tseig
