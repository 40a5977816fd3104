#include "solver/syev_batch.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>

#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev_small.hpp"

namespace tseig::solver {
namespace {

/// Closed-form lane problems per work item: one n <= 3 solve is
/// sub-microsecond, so taking them one per counter increment would be
/// scheduler-bound; 256 per item still leaves plenty of items to balance.
constexpr idx kTinyChunk = 256;

/// One unit of whole-problem work: a small problem (count 1), or a chunk of
/// closed-form lane members solved back to back in input order.
struct BatchItem {
  idx weight = 0;               ///< n, or the chunk's sum of n
  const idx* members = nullptr;  ///< problem indices
  idx count = 0;
  bool tiny = false;
};

}  // namespace

SyevBatchResult syev_batch(const std::vector<BatchProblem>& problems,
                           const SyevBatchOptions& opts) {
  // Validate everything up front so a malformed problem cannot abort a
  // half-solved batch.
  for (size_t i = 0; i < problems.size(); ++i) {
    const BatchProblem& p = problems[i];
    require(p.n >= 1, "syev_batch: problem with empty matrix");
    require(p.a != nullptr, "syev_batch: problem with null matrix pointer");
    require(p.lda >= p.n, "syev_batch: problem with lda < n");
  }

  SyevBatchResult out;
  const int budget = rt::resolve_num_workers(opts.num_workers);
  const idx crossover = opts.crossover > 0 ? opts.crossover : kBatchCrossover;
  out.stats.num_workers = budget;
  out.stats.crossover = crossover;
  if (problems.empty()) return out;

  const idx count = static_cast<idx>(problems.size());
  out.results.resize(problems.size());
  out.stats.problems.resize(problems.size());

  // All stamps come off the process-wide telemetry clock; BatchProblemStats
  // stays relative to the call (its documented time base) via t_base, while
  // the recorded spans use the absolute values so the batch lines up with
  // every other subsystem on one timeline.
  const obs::PhaseScope batch_phase(obs::Phase::batch);
  const double t_base = obs::now_seconds();
  // One acceptance stamp for the whole submission loop: the loop itself is
  // sub-microsecond per problem, and a per-problem clock read would cost as
  // much as a closed-form tiny solve.
  const double t_enq = obs::now_seconds();
  const bool rec = obs::enabled();
  std::vector<idx> small_list, large, tiny;
  for (idx i = 0; i < count; ++i) {
    const BatchProblem& p = problems[static_cast<size_t>(i)];
    BatchProblemStats& st = out.stats.problems[static_cast<size_t>(i)];
    st.n = p.n;
    st.whole_problem = st.n <= crossover;
    st.enqueue_seconds = t_enq - t_base;
    if (rec)
      obs::record_span("batch_enqueue", t_enq, t_enq,
                       static_cast<std::int32_t>(i));
    // Lane-eligible tiny problems are whole-problem work too, but coalesced
    // into chunk items (see kTinyChunk); routing them separately is pure
    // scheduling -- the per-problem solve is untouched.
    (st.whole_problem ? (small::lane_eligible(p.n, p.opts) ? tiny : small_list)
                      : large)
        .push_back(i);
  }
  out.stats.whole_problem_count =
      static_cast<idx>(small_list.size() + tiny.size());
  out.stats.partitioned_count = static_cast<idx>(large.size());
  out.stats.tiny_lane_count = static_cast<idx>(tiny.size());

  // Trimmed per-problem path for closed-form lane members: same kernels and
  // selection as syev() (bitwise-identical results), but one clock-read pair
  // and one flop scope per problem instead of the general entry's option
  // resolution, worker budgeting and telemetry guards -- which would
  // otherwise dominate a sub-microsecond solve.  Stats carry exactly the
  // fields the general path fills.
  // Chunk members run back to back on one worker, so timestamps chain: the
  // previous member's end is this member's start, and N solves cost N + 1
  // clock reads instead of 2N (a read is as expensive as a tiny solve).
  // Returns the end stamp for the next member.
  auto solve_tiny = [&](idx i, double t0, int worker) {
    const BatchProblem& p = problems[static_cast<size_t>(i)];
    BatchProblemStats& st = out.stats.problems[static_cast<size_t>(i)];
    SyevResult& res = out.results[static_cast<size_t>(i)];
    st.start_seconds = t0 - t_base;
    st.worker = worker;
    obs::PhaseCost cost;
    {
      const obs::PhaseScope scope_phase(obs::Phase::small_n);
      FlopScope scope;
      res = small::solve_lane(p.n, p.a, p.lda, p.opts);
      cost.flops = scope.count();
    }
    const double t1 = obs::now_seconds();
    res.phases.solve_flops = cost.flops;
    res.phases.solve_seconds = t1 - t0;
    st.end_seconds = t1 - t_base;
    if (obs::enabled()) {
      obs::record_phase("small_n", obs::Phase::small_n, t0, t1, cost);
      obs::record_span("batch_solve", t0, t1, static_cast<std::int32_t>(i));
    }
    return t1;
  };

  auto solve_into = [&](idx i, int num_workers, int worker) {
    const BatchProblem& p = problems[static_cast<size_t>(i)];
    BatchProblemStats& st = out.stats.problems[static_cast<size_t>(i)];
    const double t0 = obs::now_seconds();
    st.start_seconds = t0 - t_base;
    st.worker = worker;
    SyevOptions o = p.opts;
    o.num_workers = num_workers;
    out.results[static_cast<size_t>(i)] = syev(p.n, p.a, p.lda, o);
    const double t1 = obs::now_seconds();
    st.end_seconds = t1 - t_base;
    // Recorded on the executing thread, so the span lands on the lane of
    // the worker that actually ran the solve.
    obs::record_span("batch_solve", t0, t1, static_cast<std::int32_t>(i));
  };

  // Large problems first: each has enough internal parallelism to use the
  // whole budget, so they run one at a time on the calling thread (running
  // two at once would need nested pool regions, which the nesting rule
  // forbids precisely to avoid oversubscription).  Front-loading them also
  // means the wide small-problem fan-out fills the tail, which packs better
  // than the reverse order.
  for (idx i : large) solve_into(i, budget, 0);

  // Small problems: independent whole-problem items, up to `budget` in
  // flight, each solved with one worker (the nesting rule would serialize
  // inner constructs regardless; passing 1 makes the plan honest).  Items
  // run biggest first (longest-processing-time order, ties in input order),
  // which keeps the final stragglers small and the finish line even.
  std::vector<BatchItem> items;
  for (const idx& i : small_list)
    items.push_back({problems[static_cast<size_t>(i)].n, &i, 1, false});
  for (size_t c = 0; c < tiny.size(); c += static_cast<size_t>(kTinyChunk)) {
    const idx* chunk = &tiny[c];
    const idx len = std::min(kTinyChunk, static_cast<idx>(tiny.size() - c));
    idx sum_n = 0;
    for (idx k = 0; k < len; ++k)
      sum_n += problems[static_cast<size_t>(chunk[k])].n;
    items.push_back({sum_n, chunk, len, true});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const BatchItem& x, const BatchItem& y) {
                     return x.weight > y.weight;
                   });
  std::atomic<size_t> next{0};
  run_self_scheduled(
      static_cast<int>(std::min<size_t>(static_cast<size_t>(budget),
                                        items.size())),
      [&](int worker) {
        for (size_t k = next++; k < items.size(); k = next++) {
          const BatchItem& it = items[k];
          if (!it.tiny) {
            solve_into(it.members[0], 1, worker);
            continue;
          }
          double t = obs::now_seconds();
          for (idx m = 0; m < it.count; ++m)
            t = solve_tiny(it.members[m], t, worker);
        }
      });

  const double t_end = obs::now_seconds();
  out.stats.total_seconds = t_end - t_base;
  for (const BatchProblemStats& st : out.stats.problems)
    out.stats.busy_seconds += st.solve_seconds();

  if (obs::enabled()) {
    obs::record_phase("batch", obs::Phase::batch, t_base, t_end, {});
    // Set last so a large problem's nested syev (which runs on the calling
    // thread, outside any parallel region) cannot leave its own meta behind.
    idx max_n = 0;
    std::set<std::string> methods;
    for (const BatchProblem& p : problems) {
      max_n = std::max(max_n, p.n);
      methods.insert(run_method(p.n, p.opts));
    }
    std::string method;
    for (const std::string& m : methods)
      method += (method.empty() ? "" : "+") + m;
    obs::set_run_meta({"syev_batch", max_n, 0, budget, method});
  }
  return out;
}

}  // namespace tseig::solver
