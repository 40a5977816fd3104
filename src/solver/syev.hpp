// Public eigensolver front-end: dense symmetric eigenvalue problems with
// either the classic one-stage reduction (the paper's baseline, MKL DSYEV*
// role) or the paper's two-stage algorithm, combined with any of the three
// tridiagonal solvers of Table 1.  By default (method::automatic) the
// reduction is chosen per problem from n alone, following the paper's
// Eqs. 4-6 crossover: one-stage up to kOneStageMaxN, two-stage above.
//
//   | routine | method | phase-2 solver            |
//   |---------|--------|---------------------------|
//   | EV      | QR     | implicit QL/QR iteration  |
//   | EVD     | D&C    | divide and conquer        |
//   | EVR     | MRRR   | bisection + inverse iter. |
//
// The driver instruments every phase (reduction stage 1/2, tridiagonal
// solve, back-transformation) with wall time and flop counts; Figure 1 and
// Table 1 benches read these directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace tseig::solver {

/// Reduction algorithm.  automatic resolves to one_stage when
/// n <= kOneStageMaxN and to two_stage otherwise (see resolve_options).
enum class method { one_stage, two_stage, automatic };

/// "one_stage", "two_stage" or "automatic" (telemetry run metadata).
const char* method_name(method m);

/// Largest n that method::automatic reduces with the one-stage algorithm.
/// Below the paper's Eq. 4-6 crossover the two-stage reduction's extra work
/// (the bulge chase and a second back-transformation) costs more than its
/// Level-3 stage 1 saves.  Chosen from bench_model_crossover's sweep
/// (EXPERIMENTS.md, Eq. 4-6): on 4 workers one-stage wins up to about this
/// size for both jobs; on 1 worker it keeps winning up to n ~ 1024, which
/// this single threshold gives up so that the choice never depends on the
/// worker count (results stay bitwise identical across worker counts).
inline constexpr idx kOneStageMaxN = 384;

/// Tridiagonal eigensolver (phase 2).
enum class eig_solver { qr, dc, bisect };

/// What to compute.
enum class jobz { values_only, vectors };

/// Which part of the spectrum to compute (xSYEVR-style range selection).
enum class range {
  all,       // everything (fraction still applies to eigenvectors)
  by_index,  // eigenvalues il..iu (0-based, inclusive)
  by_value   // eigenvalues in (vl, vu]
};

/// Tuning and scheduling options.
struct SyevOptions {
  /// Reduction: automatic (the default) picks one_stage for
  /// n <= kOneStageMaxN and two_stage above; an explicit value forces it.
  method algo = method::automatic;
  eig_solver solver = eig_solver::dc;
  jobz job = jobz::vectors;
  /// Fraction f of eigenvectors to compute (smallest eigenvalues first),
  /// 0 < f <= 1.  Eq. (4)/(5)'s f; Figure 4d uses 0.2.  Only used with
  /// range::all.
  double fraction = 1.0;
  /// Spectrum selection.  by_index / by_value force the bisect solver.
  range sel = range::all;
  idx il = 0;       // by_index: first 0-based index
  idx iu = 0;       // by_index: last 0-based index (inclusive)
  double vl = 0.0;  // by_value: open lower bound
  double vu = 0.0;  // by_value: closed upper bound
  /// Band width / tile size for the two-stage path; panel width one-stage.
  /// 0 selects automatically from the Section 7.1 trade-off: large enough
  /// for Level-3 stage-1 kernels, small enough that the O(n^2 nb) bulge
  /// chase and its cache footprint stay cheap.  Values larger than n are
  /// clamped once, in resolve_options().
  idx nb = 48;
  /// Diamond grouping (sweeps per WY block) in the Q2 application.
  idx ell = 32;
  /// Workers for the task runtime: 1 = fully sequential, > 1 = that many
  /// logical workers on the shared persistent pool, <= 0 = the library
  /// default (TSEIG_NUM_THREADS or hardware concurrency).  syev() resolves
  /// this once (resolve_options) and passes a concrete count to every
  /// phase, including the D&C tridiagonal solve (leaf fan-out + parallel
  /// merges, see tridiag::StedcOptions).  Calls made from inside a parallel
  /// region (e.g. a whole-problem task scheduled by syev_batch) always
  /// resolve to 1: the
  /// nesting rule serializes every inner construct, and the worker budget
  /// belongs to the outer scheduler.  Results are bitwise independent of the
  /// resolved count on every path, so overriding it never changes answers.
  int num_workers = 1;
  /// Look-ahead depth of stage 1 (see Sy2sbOptions::lookahead): 0 factors
  /// each panel after its predecessor's whole trailing update, >= 1 factors
  /// the next panel while the rest of the update runs (depths above 1
  /// behave as 1), < 0 = TSEIG_LOOKAHEAD (default 1).  Never changes
  /// results.
  int lookahead = -1;
  /// Width cap of the memory-bound bulge chase (range owners, each chasing
  /// its slice of every sweep; 0 = num_workers, see
  /// Sb2stOptions::stage2_workers).
  int stage2_workers = 0;
  /// Has no effect (see Sb2stOptions::group); kept because existing callers
  /// assign it.
  idx group = 4;
  /// D&C crossover to QL/QR.
  idx dc_crossover = 32;
  /// Closed-form fast lane for n <= 3 (solver::small): branch-light direct
  /// kernels replace the whole reduce/solve/update pipeline, which is what
  /// makes million-matrix tiny-n batch streams throughput-bound instead of
  /// scheduling-bound.  Default on; TSEIG_SMALL_N=0 vetoes it process-wide
  /// (the lane-vs-pipeline debugging oracle).  Results of the two paths
  /// agree to the usual scaled-oracle bounds but are not bitwise identical.
  bool small_n_closed_form = true;
};

/// Per-phase instrumentation (seconds and nominal flops).
struct PhaseBreakdown {
  double reduction_seconds = 0.0;  // stage 1 + stage 2 (or sytrd)
  double stage1_seconds = 0.0;     // two-stage only: dense -> band
  double stage2_seconds = 0.0;     // two-stage only: bulge chasing
  double solve_seconds = 0.0;      // eigen of T
  double update_seconds = 0.0;     // back-transformation(s)
  std::uint64_t reduction_flops = 0;
  std::uint64_t solve_flops = 0;
  std::uint64_t update_flops = 0;
  double total_seconds() const {
    return reduction_seconds + solve_seconds + update_seconds;
  }
};

/// Result of a solve.
///
/// Invariant: when vectors are requested, `eigenvalues.size() == z.cols()`
/// and eigenvalue i corresponds to column i of z, on *every* solver path
/// (qr, dc and bisect used to disagree: the full-range qr/dc paths returned
/// all n eigenvalues next to m eigenvector columns).  With values_only the
/// full spectrum selection returns all n eigenvalues; by_index/by_value
/// return exactly the selected ones.
struct SyevResult {
  /// Eigenvalues ascending: the m = ceil(f n) smallest when vectors are
  /// requested, the selected set otherwise (see the invariant above).
  std::vector<double> eigenvalues;
  /// Eigenvectors as columns (n-by-m, m = ceil(f n)); empty for values_only.
  Matrix z;
  PhaseBreakdown phases;
};

/// The options syev() runs with for an n x n problem: the single place
/// where defaults are resolved.
///  - algo: automatic becomes one_stage (n <= kOneStageMaxN) or two_stage;
///  - nb: 0 selects the Section 7.1 automatic width, then nb <= n, and the
///    two-stage band nb <= max(1, n - 1);
///  - num_workers: 1 inside a parallel region, otherwise <= 0 selects the
///    library default (TSEIG_NUM_THREADS / hardware concurrency);
///  - stage2_workers: capped at num_workers.
/// The method reads n alone, never the worker count, so a problem runs the
/// same reduction (and gets the same bits) at every worker count and as a
/// syev_batch member.
SyevOptions resolve_options(idx n, const SyevOptions& opts);

/// The path syev() takes for an n x n problem with these options, as run
/// metadata names it: "small_n" (the closed-form lane), else the resolved
/// method's name ("one_stage" or "two_stage").
const char* run_method(idx n, const SyevOptions& opts);

/// Solves the dense symmetric eigenproblem for A (lower triangle referenced,
/// not modified).  Throws invalid_argument when a referenced entry is NaN or
/// infinite, on every method and solver.  When max|a_ij| lies outside
/// LAPACK dsyev's safe range [2^-485, 2^485] the pipeline solves a copy
/// scaled by a power of two and scales the eigenvalues back.
SyevResult syev(idx n, const double* a, idx lda, const SyevOptions& opts);

}  // namespace tseig::solver
