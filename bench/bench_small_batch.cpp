// Throughput sweep of the closed-form n <= 3 fast lane (solver::small)
// against the general pipeline on large batches of tiny eigenproblems.
//
// Real tiny-eigenproblem traffic arrives in bulk -- stress/strain tensors in
// finite-element loops, 3x3 covariance ellipsoids per voxel/point, inertia
// tensors per body -- so the interesting number is problems/second through
// syev_batch, not single-solve latency.  For each n in {1, 2, 3} the bench
// runs the same batch twice: once with SyevOptions::small_n_closed_form on
// (closed-form lane + chunked batch scheduling) and once with it off (the
// general tridiagonalization pipeline, whole-problem scheduling), and
// reports Mproblems/s plus the lane's speedup.
//
// Acceptance gate (DESIGN.md section 13): the lane must deliver >= 5x the
// pipeline's throughput on a 1e5-problem n = 3 batch.
//
// Usage: bench_small_batch [--problems P] [--reps R] [--workers W]
//                          [--json /path/out.json]
//
// --json writes a "tseig-bench-v2" document (keys "n<size>/{lane,
// pipeline}"; uploaded next to BENCH_gemm.json by the nightly workflow).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "solver/syev_batch.hpp"

using namespace tseig;

namespace {

struct Cell {
  idx n;
  bool lane;
  double seconds;
  double mproblems_per_s(idx problems) const {
    return static_cast<double>(problems) / seconds * 1e-6;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const idx problems = bench::arg_idx(argc, argv, "--problems", 100000);
  const int reps = static_cast<int>(bench::arg_idx(argc, argv, "--reps", 3));
  const int workers = bench::arg_workers(argc, argv, 0);
  bench::BenchRecorder rec("small_batch", argc, argv);
  bench::init_telemetry(argc, argv);

  const std::vector<idx> sizes = {1, 2, 3};

  // One shared backing store per n: `problems` dense symmetric matrices of
  // order n, packed back to back (column-major, lda = n).
  std::printf("batch of %lld tiny problems per size, reps=%d\n\n",
              (long long)problems, reps);

  std::vector<Cell> cells;
  bench::print_header("Mprob/s", {"lane", "pipeline", "speedup"});

  for (idx n : sizes) {
    Rng rng(static_cast<std::uint64_t>(n) * 9973 + 1);
    std::vector<double> store(static_cast<size_t>(problems) * n * n);
    rng.fill_uniform(store.data(), static_cast<idx>(store.size()));
    // Symmetrize each matrix in place (lower triangle is what syev reads,
    // but keep both triangles consistent for reference runs).
    for (idx p = 0; p < problems; ++p) {
      double* a = store.data() + static_cast<size_t>(p) * n * n;
      for (idx j = 0; j < n; ++j)
        for (idx i = j + 1; i < n; ++i) a[j * n + i] = a[i * n + j];
    }

    std::vector<solver::BatchProblem> batch(static_cast<size_t>(problems));
    for (idx p = 0; p < problems; ++p) {
      auto& bp = batch[static_cast<size_t>(p)];
      bp.n = n;
      bp.a = store.data() + static_cast<size_t>(p) * n * n;
      bp.lda = n;
      bp.opts.job = solver::jobz::vectors;
    }

    solver::SyevBatchOptions bopts;
    bopts.num_workers = workers;

    std::vector<double> row;
    for (bool lane : {true, false}) {
      for (auto& bp : batch) bp.opts.small_n_closed_form = lane;
      const double s = bench::time_best(
          reps, [&] { (void)solver::syev_batch(batch, bopts); });
      cells.push_back({n, lane, s});
      row.push_back(cells.back().mproblems_per_s(problems));
      std::string key = "n";
      key += std::to_string(n);
      key += lane ? "/lane" : "/pipeline";
      rec.add(key, s,
              {{"mproblems_per_s", cells.back().mproblems_per_s(problems)}});
    }
    row.push_back(row[0] / row[1]);  // lane speedup over pipeline
    bench::print_row("n=" + std::to_string(n), row);
  }

  const auto find_cell = [&](idx n, bool lane) -> const Cell* {
    for (const Cell& cell : cells)
      if (cell.n == n && cell.lane == lane) return &cell;
    return nullptr;
  };
  const Cell* lane3 = find_cell(3, true);
  const Cell* pipe3 = find_cell(3, false);
  const double headline =
      (lane3 != nullptr && pipe3 != nullptr) ? pipe3->seconds / lane3->seconds
                                             : 0.0;
  std::printf("\nheadline (n=3, %lld problems): closed-form lane %.2fx over "
              "pipeline (gate: >= 5x)\n",
              (long long)problems, headline);

  rec.flush();
  return 0;
}
