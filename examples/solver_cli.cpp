// Command-line eigensolver: solves a dense symmetric matrix from a plain
// text file (or a generated test matrix) and prints/writes the spectrum.
//
//   ./example_solver_cli --n 512 --spectrum geometric --cond 1e8
//   ./example_solver_cli --in matrix.txt --method one-stage --solver qr
//   ./example_solver_cli --n 256 --method two-stage --workers 4
//   ./example_solver_cli --n 400 --f 0.1 --out eigs.txt --verify
//
// Matrix file format: first line "n", then n*n whitespace-separated entries
// in row-major order (the matrix must be symmetric; the lower triangle is
// used).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "tseig.hpp"

using namespace tseig;

namespace {

const char* kUsage =
    "usage: example_solver_cli [options]\n"
    "  --in FILE          read matrix from FILE (default: generate)\n"
    "  --n N              generated matrix size (default 256)\n"
    "  --spectrum KIND    linear|geometric|clustered|two-cluster|uniform\n"
    "  --cond C           condition number for geometric/clustered (1e6)\n"
    "  --method M         auto (default: one-stage for n <= 384, else\n"
    "                     two-stage) | one-stage | two-stage\n"
    "  --solver S         dc (default) | qr | bisect\n"
    "  --f F              fraction of eigenvectors (default 1.0)\n"
    "  --values-only      skip eigenvectors\n"
    "  --nb NB            band width / tile size (default 48)\n"
    "  --workers W        task-DAG workers (default 1)\n"
    "  --out FILE         write eigenvalues to FILE\n"
    "  --verify           check residual/orthogonality and report\n";

const char* get_arg(int argc, char** argv, const char* key) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* key) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], key) == 0) return true;
  return false;
}

Matrix load_matrix(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw invalid_argument("cannot open " + path);
  idx n = 0;
  f >> n;
  if (n <= 0) throw invalid_argument("bad matrix header in " + path);
  Matrix a(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j)
      if (!(f >> a(i, j))) throw invalid_argument("truncated matrix file");
  // Symmetrize from the lower triangle.
  for (idx j = 0; j < n; ++j)
    for (idx i = j + 1; i < n; ++i) a(j, i) = a(i, j);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    // --- Build or load the matrix. ---
    Matrix a;
    Rng rng(2026);
    if (const char* path = get_arg(argc, argv, "--in")) {
      a = load_matrix(path);
    } else {
      const idx n = get_arg(argc, argv, "--n")
                        ? std::atoll(get_arg(argc, argv, "--n"))
                        : 256;
      const double cond = get_arg(argc, argv, "--cond")
                              ? std::atof(get_arg(argc, argv, "--cond"))
                              : 1e6;
      const char* kind = get_arg(argc, argv, "--spectrum");
      if (kind == nullptr) {
        a = lapack::random_symmetric(n, rng);
      } else {
        lapack::spectrum_kind sk = lapack::spectrum_kind::linear;
        if (std::strcmp(kind, "geometric") == 0)
          sk = lapack::spectrum_kind::geometric;
        else if (std::strcmp(kind, "clustered") == 0)
          sk = lapack::spectrum_kind::clustered;
        else if (std::strcmp(kind, "two-cluster") == 0)
          sk = lapack::spectrum_kind::two_cluster;
        else if (std::strcmp(kind, "uniform") == 0)
          sk = lapack::spectrum_kind::random_uniform;
        else if (std::strcmp(kind, "linear") != 0)
          throw invalid_argument("unknown --spectrum");
        auto eigs = lapack::make_spectrum(sk, n, cond, rng);
        a = lapack::symmetric_with_spectrum(eigs, rng);
      }
    }
    const idx n = a.rows();

    // --- Options. ---
    solver::SyevOptions opts;
    if (const char* m = get_arg(argc, argv, "--method")) {
      if (std::strcmp(m, "one-stage") == 0)
        opts.algo = solver::method::one_stage;
      else if (std::strcmp(m, "two-stage") == 0)
        opts.algo = solver::method::two_stage;
      else if (std::strcmp(m, "auto") != 0)
        throw invalid_argument("unknown --method");
    }
    if (const char* s = get_arg(argc, argv, "--solver")) {
      if (std::strcmp(s, "qr") == 0) opts.solver = solver::eig_solver::qr;
      else if (std::strcmp(s, "bisect") == 0)
        opts.solver = solver::eig_solver::bisect;
      else if (std::strcmp(s, "dc") != 0)
        throw invalid_argument("unknown --solver");
    }
    if (const char* f = get_arg(argc, argv, "--f")) opts.fraction = std::atof(f);
    if (has_flag(argc, argv, "--values-only"))
      opts.job = solver::jobz::values_only;
    if (const char* nb = get_arg(argc, argv, "--nb")) opts.nb = std::atoll(nb);
    if (const char* w = get_arg(argc, argv, "--workers"))
      opts.num_workers = std::atoi(w);

    // --- Solve. ---
    WallTimer timer;
    auto res = solver::syev(n, a.data(), a.ld(), opts);
    const double secs = timer.seconds();

    std::printf("n = %lld, method %s, eigenvalues computed: %zu, "
                "eigenvectors: %lld\n",
                static_cast<long long>(n),
                solver::run_method(n, opts),
                res.eigenvalues.size(), static_cast<long long>(res.z.cols()));
    std::printf("time: %.3fs  (reduction %.3fs, solve %.3fs, update %.3fs)\n",
                secs, res.phases.reduction_seconds, res.phases.solve_seconds,
                res.phases.update_seconds);
    std::printf("spectrum: [%.6g, %.6g]\n", res.eigenvalues.front(),
                res.eigenvalues.back());

    if (const char* out = get_arg(argc, argv, "--out")) {
      std::ofstream f(out);
      for (double w : res.eigenvalues) f << w << "\n";
      std::printf("eigenvalues written to %s\n", out);
    }

    if (has_flag(argc, argv, "--verify") && res.z.cols() > 0) {
      double resid = 0.0;
      std::vector<double> az(static_cast<size_t>(n));
      for (idx j = 0; j < res.z.cols(); ++j) {
        blas::symv(uplo::lower, n, 1.0, a.data(), a.ld(), res.z.col(j), 1,
                   0.0, az.data(), 1);
        for (idx i = 0; i < n; ++i)
          resid = std::max(resid,
                           std::fabs(az[static_cast<size_t>(i)] -
                                     res.eigenvalues[static_cast<size_t>(j)] *
                                         res.z(i, j)));
      }
      const double anorm =
          lapack::lansy(lapack::norm::one, uplo::lower, n, a.data(), a.ld());
      std::printf("verify: max residual %.3e (relative %.3e) -> %s\n", resid,
                  resid / std::max(anorm, 1e-300),
                  resid <= 1e-10 * anorm * n ? "OK" : "SUSPECT");
    }
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n%s", ex.what(), kUsage);
    return 1;
  }
}
