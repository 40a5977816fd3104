// Batched multi-problem eigensolver: pushes many *independent* symmetric
// eigenproblems through the shared worker pool at once.
//
// This is the dominant shape of real eigensolver traffic (electronic
// structure codes solve one H(k) per k-point, signal-processing pipelines
// one covariance per window), and the first scaling lever beyond the
// single-solve parallelism of PRs 1-2.  Following the inter/intra-problem
// split of task-based libraries (StarNEig; Aliaga et al.), throughput on
// many small/medium problems comes from scheduling *whole problems* as
// tasks, not from oversubscribing each problem's internal parallelism:
//
//  * problems with n <= crossover run whole-problem-per-worker: one body per
//    worker takes problems, biggest first, from a shared counter
//    (run_self_scheduled) and solves each with num_workers = 1 (the nesting
//    rule makes every inner construct serial anyway), so up to
//    `num_workers` problems are in flight at once and the pool is never
//    oversubscribed;
//  * problems with n > crossover have enough internal parallelism (tile
//    graphs, D&C merge tree, column-partitioned updates) to use the whole
//    pool themselves; they run one at a time on the calling thread with
//    intra-problem workers = the full budget.
//
// Results are index-aligned with the input and bitwise identical to calling
// syev() sequentially on each problem: every phase of the pipeline is
// bitwise independent of its worker count, so the scheduler's worker-budget
// overrides never change answers.
#pragma once

#include <vector>

#include "solver/syev.hpp"

namespace tseig::solver {

/// One independent eigenproblem of a batch.  `a` must stay valid for the
/// duration of the syev_batch call; only the lower triangle is referenced
/// and it is not modified, so problems may alias (e.g. solve the same matrix
/// under several option sets).
struct BatchProblem {
  idx n = 0;               ///< matrix dimension (>= 1)
  const double* a = nullptr;  ///< dense symmetric input, lower triangle
  idx lda = 0;             ///< leading dimension (>= n)
  SyevOptions opts;        ///< per-problem tuning; num_workers is overridden
                           ///< by the batch scheduler (see syev_batch)
};

/// Scheduling options for a batch.
struct SyevBatchOptions {
  /// Worker budget for the whole batch: the pool never runs more than this
  /// many logical workers on the batch's behalf.  <= 0 selects the library
  /// default (TSEIG_NUM_THREADS / hardware concurrency).
  int num_workers = 0;
  /// Inter/intra split point: problems with n <= crossover are scheduled
  /// whole-problem-per-worker, larger ones get the full budget one at a
  /// time.  <= 0 selects the default (see kBatchCrossover).  The choice only
  /// affects scheduling, never results.
  ///
  /// Timeline inspection goes through the unified telemetry layer
  /// (tseig::obs, TSEIG_TRACE=<path>): the batch records two spans per
  /// problem on the shared process-wide epoch -- "batch_enqueue" (a
  /// zero-duration marker at submission) and "batch_solve" (spanning the
  /// solve, on the lane of the thread that ran it), both carrying the
  /// problem index as the span arg.
  idx crossover = 0;
};

/// Default inter/intra crossover: below this size a problem's internal task
/// graphs are too fine to amortize scheduling, and a single worker solving
/// it whole (perfect locality, zero synchronization) is faster than sharing
/// it; above, the tile/merge-tree parallelism dominates.  Matches the region
/// where bench_fig4_speedup shows single-solve speedup < 2 on few cores.
inline constexpr idx kBatchCrossover = 256;

/// Per-problem scheduling record (times in seconds from the syev_batch
/// call).  The problem's own PhaseBreakdown is results[i].phases; it is
/// exact per problem even under concurrency because flop counters are
/// per-thread with pool propagation.
struct BatchProblemStats {
  idx n = 0;
  /// True when the problem ran whole-problem-per-worker (n <= crossover).
  bool whole_problem = false;
  /// Body index (0..num_workers-1) of the scheduler loop that executed the
  /// solve; large problems run on the calling thread (worker 0) with the
  /// other workers joining via the problem's internal parallel phases.
  int worker = 0;
  double enqueue_seconds = 0.0;  ///< when the scheduler accepted the problem
  double start_seconds = 0.0;    ///< when its solve began
  double end_seconds = 0.0;      ///< when its solve finished

  double queue_wait_seconds() const { return start_seconds - enqueue_seconds; }
  double solve_seconds() const { return end_seconds - start_seconds; }
};

/// Batch-wide scheduling statistics.
struct BatchStats {
  int num_workers = 1;       ///< resolved worker budget
  idx crossover = 0;         ///< resolved inter/intra split point
  idx whole_problem_count = 0;  ///< problems solved whole on one worker
  idx partitioned_count = 0;    ///< problems given the full budget
  /// Problems routed through the closed-form n <= 3 lane (solver::small).
  /// These are whole-problem scheduled like any small problem (and counted
  /// in whole_problem_count too) but coalesced into fixed-size chunks taken
  /// as one item: a single closed-form solve is sub-microsecond, so
  /// chunking amortizes the scheduler instead of drowning it in microsecond
  /// items.  Coalescing never changes results -- each member still runs the
  /// exact per-problem solve.
  idx tiny_lane_count = 0;
  double total_seconds = 0.0;   ///< batch makespan
  /// Sum of per-problem solve intervals (the "work"); with perfect packing
  /// busy == num_workers * total.
  double busy_seconds = 0.0;
  /// One record per input problem, index-aligned.
  std::vector<BatchProblemStats> problems;

  /// Fraction of the worker-seconds the batch actually spent solving,
  /// busy / (num_workers * makespan); in (0, 1] for a non-empty batch.
  double occupancy() const {
    const double capacity = static_cast<double>(num_workers) * total_seconds;
    return capacity > 0.0 ? busy_seconds / capacity : 0.0;
  }
};

/// Result of a batch solve: per-problem results index-aligned with the
/// input, plus the scheduling statistics.
struct SyevBatchResult {
  std::vector<SyevResult> results;
  BatchStats stats;
};

/// Solves every problem of the batch on the shared pool (see the scheduling
/// description at the top of this header).  Each result is bitwise identical
/// to syev(p.n, p.a, p.lda, p.opts).  Input matrices are not modified.  An
/// empty batch returns empty results and zeroed stats.  Throws
/// invalid_argument on any malformed problem (before any solve starts); a
/// solver failure on one problem propagates after the batch drains.
SyevBatchResult syev_batch(const std::vector<BatchProblem>& problems,
                           const SyevBatchOptions& opts = {});

}  // namespace tseig::solver
