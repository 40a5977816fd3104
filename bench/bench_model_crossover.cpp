// Validates the execution-time model of Section 4 (Eqs. 4-6):
//
//   t_1s = 4/3 n^3 / beta            + 2 f n^3 / (alpha p)
//   t_2s = 4/3 n^3 / (alpha p) + 6 D n^2 / (alpha' p') + 4 f n^3 / (alpha p)
//
// and the predicted break-even size n(alpha,beta,D,f,p) = 9 beta D /
// (2 alpha p - 3 f beta - 2 beta) above which the two-stage algorithm wins.
//
// alpha and beta are measured on this host (Table 3); the model columns are
// then compared with measured one-stage and two-stage times.  (The stage-2
// term uses beta for alpha', since the bulge chase runs at memory speed.)
//
// --sweep instead measures the crossover that method::automatic uses
// (solver::kOneStageMaxN): whole syev calls at default options, one-stage
// against two-stage, n in {128, 192, ..., 768}, values and vectors, 1 and 4
// workers, R interleaved calls per point (lower quartile and spread).
//
// Usage: bench_model_crossover [--nmax N] [--nb NB] [--f F]
//        bench_model_crossover --sweep [--reps R] [--nmax N]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "solver/syev.hpp"

using namespace tseig;

namespace {

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The method sweep: for every (workers, job, n) the two methods run
/// alternately (the order flips each round, so drift on a shared host hits
/// both sides alike) after one warm-up call each.  Prints the lower quartile
/// of each side, its spread (IQR / median) and the one-stage / two-stage
/// ratio of lower quartiles, then per (workers, job) the largest n up to
/// which one-stage wins at every size.
void method_sweep(int reps, idx nmax, bench::BenchRecorder& rec) {
  std::printf("method sweep: whole syev calls at default options, %d calls "
              "per point; automatic runs one-stage for n <= kOneStageMaxN = "
              "%lld\n\n",
              reps, static_cast<long long>(solver::kOneStageMaxN));
  std::printf("  %-7s %-8s %5s %11s %7s %11s %7s %8s\n", "workers", "job",
              "n", "1s q1 (s)", "1s iqr", "2s q1 (s)", "2s iqr", "1s/2s");
  const idx sizes[] = {128, 192, 256, 320, 384, 448, 512, 640, 768};
  for (const int workers : {1, 4}) {
    for (const solver::jobz job :
         {solver::jobz::values_only, solver::jobz::vectors}) {
      const char* job_name =
          job == solver::jobz::vectors ? "vectors" : "values";
      idx wins_up_to = 0;
      bool lost = false;
      for (const idx n : sizes) {
        if (n > nmax) break;
        const Matrix a = bench::random_symmetric(n, 41);
        solver::SyevOptions o;
        o.job = job;
        o.num_workers = workers;
        std::vector<double> t[2];
        const solver::method m[2] = {solver::method::one_stage,
                                     solver::method::two_stage};
        for (int r = -1; r < reps; ++r) {
          for (int k = 0; k < 2; ++k) {
            const int side = (r & 1) != 0 ? 1 - k : k;
            o.algo = m[side];
            const double s = bench::time_seconds(
                [&] { (void)solver::syev(n, a.data(), a.ld(), o); });
            if (r >= 0) t[side].push_back(s);
          }
        }
        double q1[2], iqr[2];
        for (int k = 0; k < 2; ++k) {
          q1[k] = quantile(t[k], 0.25);
          iqr[k] = (quantile(t[k], 0.75) - q1[k]) / quantile(t[k], 0.5);
        }
        const double ratio = q1[0] / q1[1];
        if (ratio < 1.0 && !lost) wins_up_to = n;
        lost |= ratio >= 1.0;
        std::printf("  %-7d %-8s %5lld %11.5f %6.1f%% %11.5f %6.1f%% %8.2f\n",
                    workers, job_name, static_cast<long long>(n), q1[0],
                    100.0 * iqr[0], q1[1], 100.0 * iqr[1], ratio);
        const std::string key = "sweep/w" + std::to_string(workers) + "/" +
                                job_name + "/n" + std::to_string(n);
        rec.add(key + "/one_stage", q1[0], {{"iqr_over_median", iqr[0]}});
        rec.add(key + "/two_stage", q1[1], {{"iqr_over_median", iqr[1]}});
      }
      std::printf("  -> %d worker(s), %s: one-stage wins at every n <= %lld\n",
                  workers, job_name, static_cast<long long>(wins_up_to));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::arg_flag(argc, argv, "--sweep")) {
    bench::BenchRecorder rec("method_sweep", argc, argv);
    method_sweep(static_cast<int>(bench::arg_idx(argc, argv, "--reps", 15)),
                 bench::arg_idx(argc, argv, "--nmax", 768), rec);
    return 0;
  }
  const idx nmax = bench::arg_idx(argc, argv, "--nmax", 2048);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);
  const double f = bench::arg_double(argc, argv, "--f", 1.0);
  bench::BenchRecorder rec("model_crossover", argc, argv);
  const double p = 1.0;  // single-core container; workers share the core

  const double alpha = bench::measure_alpha(std::min<idx>(nmax, 768), 3);
  // beta in Eqs. (4)-(6) is "the execution rate of the memory-bound
  // reduction kernels".  The paper equates it with xGEMV; our baseline's
  // blocked SYMV is faster than plain GEMV (Table 2), so the SYMV rate is
  // the one that actually binds t_1s here.  Both are printed.
  const double beta_gemv = bench::measure_beta(std::min<idx>(4 * nmax, 4096), 3);
  const double beta = bench::measure_beta_symv(std::min<idx>(4 * nmax, 4096), 3);
  std::printf("Eq. 4-6 model validation: alpha = %.2f GF/s, beta(SYMV) = "
              "%.2f GF/s (GEMV %.2f), D = nb = %lld, f = %.2f, p = %.0f\n",
              alpha * 1e-9, beta * 1e-9, beta_gemv * 1e-9,
              static_cast<long long>(nb), f, p);

  const double denom = 2.0 * alpha * p - 3.0 * f * beta - 2.0 * beta;
  if (denom > 0.0) {
    std::printf("predicted crossover n* = 9 beta D / (2 alpha p - 3 f beta - "
                "2 beta) = %.0f\n",
                9.0 * beta * nb / denom);
  } else {
    std::printf("model predicts no crossover on this host (denominator <= 0)"
                "\n");
  }
  std::printf("method::automatic threshold: one-stage for n <= kOneStageMaxN "
              "= %lld (measured by --sweep)\n",
              static_cast<long long>(solver::kOneStageMaxN));

  // Implementation-corrected alpha: the paper's model assumes the two-stage
  // kernels run at the large-GEMM rate; tile algorithms actually run at the
  // nb-sized GEMM rate.  Measure it so the "impl" model column isolates the
  // machine-balance effect from our kernel efficiency.
  const double alpha_tile = bench::measure_alpha(nb, 50);
  std::printf("alpha at tile size (nb = %lld): %.2f GF/s -- used for the "
              "'impl' model column\n\n",
              static_cast<long long>(nb), alpha_tile * 1e-9);

  std::printf("  %-8s %10s %10s %10s %10s %10s %8s %8s\n", "n", "t1s mod",
              "t1s meas", "t2s mod", "t2s impl", "t2s meas", "r.mod",
              "r.meas");
  for (idx n : bench::sweep_sizes(nmax)) {
    const double n3 = static_cast<double>(n) * n * n;
    const double n2 = static_cast<double>(n) * n;
    const double t1_model = 4.0 / 3.0 * n3 / beta + 2.0 * f * n3 / (alpha * p);
    const double t2_model = 4.0 / 3.0 * n3 / (alpha * p) +
                            6.0 * nb * n2 / (beta * p) +
                            4.0 * f * n3 / (alpha * p);
    // impl model: tile-rate alpha, the (1 + ell/nb) diamond overhead on Q2's
    // half of the update (default ell = 32).
    const double ell = 32.0;
    const double t2_impl =
        4.0 / 3.0 * n3 / (alpha_tile * p) + 6.0 * nb * n2 / (beta * p) +
        (2.0 * (1.0 + ell / nb) + 2.0) * f * n3 / (alpha_tile * p);

    Matrix a = bench::random_symmetric(n, 41);
    solver::SyevOptions opts;
    opts.solver = solver::eig_solver::dc;
    opts.fraction = f;
    opts.nb = nb;
    opts.algo = solver::method::one_stage;
    auto r1 = solver::syev(n, a.data(), a.ld(), opts);
    opts.algo = solver::method::two_stage;
    auto r2 = solver::syev(n, a.data(), a.ld(), opts);
    // The model covers reduction + update (phase 2 is identical in both).
    const double t1 = r1.phases.reduction_seconds + r1.phases.update_seconds;
    const double t2 = r2.phases.reduction_seconds + r2.phases.update_seconds;
    std::string key = "n";
    key += std::to_string(n);
    rec.add(key + "/one_stage", t1, {{"model_seconds", t1_model}});
    rec.add(key + "/two_stage", t2,
            {{"model_seconds", t2_model}, {"impl_model_seconds", t2_impl}});
    std::printf("  %-8lld %10.3f %10.3f %10.3f %10.3f %10.3f %8.2f %8.2f\n",
                static_cast<long long>(n), t1_model, t1, t2_model, t2_impl,
                t2, t1_model / t2_model, t1 / t2);
  }
  std::printf(
      "\nreading the table: the paper-model ratio grows toward the Section-4\n"
      "asymptote (alpha p / beta + 3/2)/(1 + 3 f); the measured ratio tracks\n"
      "its *shape* but sits lower by the ratio of achieved kernel rates to\n"
      "alpha (t2s meas vs t2s impl vs t2s mod).  On a single core the\n"
      "achievable win shrinks with alpha p / beta; the paper's 48-core\n"
      "speedups correspond to alpha p / beta in the hundreds.  See\n"
      "bench_fig4_speedup (reduction-only and f = 0.2 panels) for the\n"
      "crossovers this host does reach, and EXPERIMENTS.md for discussion.\n");
  return 0;
}
