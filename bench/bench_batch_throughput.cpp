// Batched-solver throughput: syev_batch vs the sequential loop it replaces.
//
// Sweeps batch size x problem size x worker count and reports problems/sec
// for both schedules.  The interesting regime is many problems below the
// inter/intra crossover (n <= 256), where the batch scheduler runs whole
// problems as tasks and the sequential loop leaves all but one core idle;
// above the crossover both schedules give each problem the full pool and
// converge to the same rate.
//
// Usage: bench_batch_throughput [--workers W] [--nmax N] [--reps R]
//        [--json /path/out.json] [--trace /path/trace.json]
//
// --json writes the full sweep as one "tseig-bench-v2" document (keys
// "b<batch>xn<n>/w<workers>/{seq,batch}"); --trace writes a Chrome trace of
// the largest swept batch.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev_batch.hpp"

using namespace tseig;

namespace {

struct Cell {
  idx batch;
  idx n;
  int workers;
  double seq_seconds;
  double batch_seconds;
  double seq_rate() const { return static_cast<double>(batch) / seq_seconds; }
  double batch_rate() const {
    return static_cast<double>(batch) / batch_seconds;
  }
  double speedup() const { return seq_seconds / batch_seconds; }
};

/// One sweep cell: `count` independent copies-by-reference of an n-by-n
/// problem, solved by a plain loop and by syev_batch.
Cell run_cell(const Matrix& a, idx count, int workers, int reps) {
  std::vector<solver::BatchProblem> batch(static_cast<size_t>(count));
  for (solver::BatchProblem& p : batch) {
    p.n = a.rows();
    p.a = a.data();
    p.lda = a.ld();
    p.opts.nb = 32;
  }

  Cell cell;
  cell.batch = count;
  cell.n = a.rows();
  cell.workers = workers;
  // The loop a production code starts with: one problem at a time, each
  // given the full worker budget (intra-problem parallelism only).
  cell.seq_seconds = bench::time_best(reps, [&] {
    for (const solver::BatchProblem& p : batch) {
      solver::SyevOptions o = p.opts;
      o.num_workers = workers;
      solver::syev(p.n, p.a, p.lda, o);
    }
  });
  cell.batch_seconds = bench::time_best(reps, [&] {
    solver::SyevBatchOptions bopts;
    bopts.num_workers = workers;
    solver::syev_batch(batch, bopts);
  });
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_workers = bench::arg_workers(argc, argv, 0);
  const idx nmax = bench::arg_idx(argc, argv, "--nmax", 256);
  const int reps = static_cast<int>(bench::arg_idx(argc, argv, "--reps", 3));
  bench::BenchRecorder rec("batch_throughput", argc, argv);

  std::vector<idx> batch_sizes = {4, 16, 64};
  std::vector<idx> sizes;
  for (idx n : {idx{32}, idx{64}, idx{128}, idx{256}})
    if (n <= nmax) sizes.push_back(n);
  std::vector<int> worker_counts = {1};
  if (max_workers > 1) worker_counts.push_back(max_workers);

  std::printf("batched eigensolver throughput (problems/sec), reps = %d\n\n",
              reps);
  std::vector<Cell> cells;
  for (int workers : worker_counts) {
    std::printf("--- %d worker%s ---\n", workers, workers > 1 ? "s" : "");
    bench::print_header("batch x n", {"seq p/s", "batch p/s", "speedup"});
    for (idx n : sizes) {
      const Matrix a = bench::random_symmetric(n, 1234 + n);
      for (idx count : batch_sizes) {
        const Cell cell = run_cell(a, count, workers, reps);
        cells.push_back(cell);
        std::string key = "b";
        key += std::to_string(count);
        key += "xn";
        key += std::to_string(n);
        key += "/w";
        key += std::to_string(workers);
        rec.add(key + "/seq", cell.seq_seconds,
                {{"problems_per_sec", cell.seq_rate()}});
        rec.add(key + "/batch", cell.batch_seconds,
                {{"problems_per_sec", cell.batch_rate()},
                 {"speedup", cell.speedup()}});
        bench::print_row(
            std::to_string(count) + " x " + std::to_string(n),
            {cell.seq_rate(), cell.batch_rate(), cell.speedup()});
      }
    }
    std::printf("\n");
  }
  bench::print_pool_stats();

  // The headline claim: with >1 worker, batching many small problems beats
  // the sequential loop (acceptance gate: 16 problems of n = 64).
  if (worker_counts.size() > 1) {
    for (const Cell& c : cells)
      if (c.workers > 1 && c.batch == 16 && c.n == 64)
        std::printf("\nheadline (16 x n=64, %d workers): %.2fx over the "
                    "sequential loop\n", c.workers, c.speedup());
  }

  rec.flush();

  if (const char* path = [&]() -> const char* {
        for (int i = 1; i + 1 < argc; ++i)
          if (std::string(argv[i]) == "--trace") return argv[i + 1];
        return nullptr;
      }()) {
    // Chrome trace of the largest cell: shows the whole-problem tasks
    // packing onto workers (batch_solve spans) and the queue (batch_enqueue
    // markers at t ~ 0).
    const Matrix a = bench::random_symmetric(sizes.back(), 99);
    std::vector<solver::BatchProblem> batch(
        static_cast<size_t>(batch_sizes.back()));
    for (solver::BatchProblem& p : batch) {
      p.n = a.rows();
      p.a = a.data();
      p.lda = a.ld();
      p.opts.nb = 32;
    }
    const bool was = obs::enabled();
    obs::reset();
    obs::set_enabled(true);
    solver::SyevBatchOptions bopts;
    bopts.num_workers = max_workers;
    solver::syev_batch(batch, bopts);
    const obs::Snapshot snap = obs::snapshot();
    if (!was) obs::set_enabled(false);
    obs::write_chrome_trace_file(snap, path);
    std::printf("trace written to %s\n", path);
  }
  return 0;
}
