// A/B sweep of the runtime-dispatched SIMD microkernel tiers (blas/kernels/).
//
// Runs square DGEMM at a range of sizes once per available tier (scalar,
// AVX2, AVX-512, NEON -- whatever this binary carries and this host
// supports) by overriding the dispatcher in-process, and reports GFLOP/s per
// tier plus each tier's speedup over the scalar baseline.  This is the
// acceptance gate for the kernel engine: on a wide host the best tier must
// deliver >= 2x scalar at n = 1024, from ONE binary, with no -march=native
// required at build time.  Two more cells per tier time ragged tiles, which
// the power-of-two sizes never hit: a ragged square (n = 97) and the
// back-transformation's diamond update (C(79x256, ldc 1024) -= V(79x32)
// W(32x256), the shape of larfb's last GEMM at nb = 48, ell = 32).
//
// Usage: bench_gemm_kernels [--nmax N] [--reps R] [--json /path/out.json]
//
// --json writes a "tseig-bench-v2" document (committed as BENCH_gemm.json
// at the repo root so the speedup is on record per host, and compared
// against fresh runs by `tseig_prof gate` in scripts/bench_ci.sh).  Result
// keys are "n<size>/<tier>", "r97/<tier>" and "d79x256x32/<tier>".
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/rng.hpp"

using namespace tseig;
namespace kern = blas::kernels;

namespace {

double gemm_gflops(idx m, idx n, idx k, double seconds) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / seconds * 1e-9;
}

struct Cell {
  const char* kernel;
  idx n;
  double seconds;
  double gflops() const { return gemm_gflops(n, n, n, seconds); }
};

}  // namespace

int main(int argc, char** argv) {
  const idx nmax = bench::arg_idx(argc, argv, "--nmax", 1024);
  const int reps = static_cast<int>(bench::arg_idx(argc, argv, "--reps", 3));
  bench::BenchRecorder rec("gemm_kernels", argc, argv);

  std::vector<idx> sizes;
  for (idx n : {static_cast<idx>(128), static_cast<idx>(256),
                static_cast<idx>(512), static_cast<idx>(1024),
                static_cast<idx>(2048)})
    if (n <= nmax) sizes.push_back(n);
  if (sizes.empty() || sizes.back() != nmax) sizes.push_back(nmax);

  const auto tiers = kern::available_kernels();
  std::printf("gemm microkernel tiers: ");
  for (const kern::Kernel* t : tiers)
    std::printf("%s(%lldx%lld) ", t->name, (long long)t->mr,
                (long long)t->nr);
  std::printf(" | auto-dispatch picks %s\n\n", kern::active_kernel_name());

  // Largest problem allocated once, all sizes run on its leading corner.
  Rng rng(42);
  const idx nbig = sizes.back();
  std::vector<double> a(static_cast<size_t>(nbig) * nbig);
  std::vector<double> b(static_cast<size_t>(nbig) * nbig);
  std::vector<double> c(static_cast<size_t>(nbig) * nbig);
  rng.fill_uniform(a.data(), static_cast<idx>(a.size()));
  rng.fill_uniform(b.data(), static_cast<idx>(b.size()));

  std::vector<Cell> cells;
  std::vector<std::string> cols;
  for (idx n : sizes) cols.push_back("n=" + std::to_string(n));
  cols.push_back("r97");
  cols.push_back("d79x256x32");
  bench::print_header("GFLOP/s", cols);

  // Ragged cells: operands of their own so the diamond keeps ldc = 1024
  // whatever --nmax is.
  constexpr idx kRagged = 97;
  constexpr idx kDm = 79, kDn = 256, kDk = 32, kDld = 1024;
  std::vector<double> ra(static_cast<size_t>(kRagged) * kRagged);
  std::vector<double> rb(ra.size()), rc(ra.size());
  std::vector<double> dv(static_cast<size_t>(kDld) * kDk);
  std::vector<double> dw(static_cast<size_t>(kDk) * kDn);
  std::vector<double> dc(static_cast<size_t>(kDld) * kDn);
  rng.fill_uniform(ra.data(), static_cast<idx>(ra.size()));
  rng.fill_uniform(rb.data(), static_cast<idx>(rb.size()));
  rng.fill_uniform(dv.data(), static_cast<idx>(dv.size()));
  rng.fill_uniform(dw.data(), static_cast<idx>(dw.size()));
  rng.fill_uniform(dc.data(), static_cast<idx>(dc.size()));

  for (const kern::Kernel* tier : tiers) {
    kern::select_kernel(tier);
    std::vector<double> row;
    for (idx n : sizes) {
      const double s = bench::time_best(reps, [&] {
        blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), nbig,
                   b.data(), nbig, 0.0, c.data(), nbig);
      });
      cells.push_back({tier->name, n, s});
      row.push_back(cells.back().gflops());
      std::string key = "n";
      key += std::to_string(n);
      key += "/";
      key += tier->name;
      rec.add(key, s, {{"gflops", cells.back().gflops()}});
    }
    // Small ragged cells run in microseconds: time 64 calls per sample.
    constexpr int kInner = 64;
    const double sr =
        bench::time_best(reps, [&] {
          for (int i = 0; i < kInner; ++i)
            blas::gemm(op::none, op::none, kRagged, kRagged, kRagged, 1.0,
                       ra.data(), kRagged, rb.data(), kRagged, 0.0, rc.data(),
                       kRagged);
        }) / kInner;
    row.push_back(gemm_gflops(kRagged, kRagged, kRagged, sr));
    rec.add(std::string("r97/") + tier->name, sr, {{"gflops", row.back()}});
    const double sd =
        bench::time_best(reps, [&] {
          for (int i = 0; i < kInner; ++i)
            blas::gemm(op::none, op::none, kDm, kDn, kDk, -1.0, dv.data(),
                       kDld, dw.data(), kDk, 1.0, dc.data(), kDld);
        }) / kInner;
    row.push_back(gemm_gflops(kDm, kDn, kDk, sd));
    rec.add(std::string("d79x256x32/") + tier->name, sd,
            {{"gflops", row.back()}});
    bench::print_row(tier->name, row);
  }
  kern::select_kernel(nullptr);

  // Speedup of every wide tier over scalar at the largest size.
  const auto find_cell = [&](const char* kname, idx n) -> const Cell* {
    for (const Cell& cell : cells)
      if (std::string(cell.kernel) == kname && cell.n == n) return &cell;
    return nullptr;
  };
  const idx nhead = sizes.back();
  const Cell* scalar = find_cell("scalar", nhead);
  if (scalar != nullptr && tiers.size() > 1) {
    std::printf("\nheadline (n=%lld): ", (long long)nhead);
    for (const kern::Kernel* tier : tiers) {
      if (std::string(tier->name) == "scalar") continue;
      const Cell* cell = find_cell(tier->name, nhead);
      if (cell != nullptr)
        std::printf("%s %.2fx over scalar  ", tier->name,
                    scalar->seconds / cell->seconds);
    }
    std::printf("\n");
  }

  if (rec.enabled()) rec.flush();
  return 0;
}
