// Ablation of the scheduling choices of Sections 3 and 6:
//
//   * stage-2 width cap ("it is better to let this stage run on a small
//     number of cores"): stage2_workers in {all, 2, 1} range owners;
//   * stage-1 workers (row- and column-block loops on the pool).
//
// On a single-core container the wall-clock differences mainly expose
// runtime overhead (the locality effects need real cores), but the harness
// exercises every schedule and verifies they all agree bit-for-bit with the
// sequential execution.
//
// Usage: bench_ablation_scheduling [--n N] [--nb NB] [--workers W]
#include <cstdio>

#include "bench_support.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 768);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 48);
  const int workers =
      static_cast<int>(bench::arg_idx(argc, argv, "--workers", 4));
  bench::BenchRecorder rec("ablation_scheduling", argc, argv);

  Matrix a = bench::random_symmetric(n, 71);

  std::printf("Scheduling ablation (n = %lld, nb = %lld)\n",
              static_cast<long long>(n), static_cast<long long>(nb));

  std::printf("\nstage 1 (dense->band) workers:\n");
  for (int w : {1, 2, workers}) {
    const double t = bench::time_seconds(
        [&] { (void)twostage::sy2sb(n, a.data(), a.ld(), nb, w); });
    rec.add("stage1/w" + std::to_string(w), t);
    std::printf("  workers=%-3d %10.3f s\n", w, t);
  }

  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);
  auto ref = twostage::sb2st(s1.band);

  std::printf("\nstage 2 (bulge chase) schedule: workers x width cap\n");
  struct Cfg {
    int w;
    int w2;
  };
  const Cfg cfgs[] = {{1, 0}, {workers, 0}, {workers, 2}, {workers, 1}};
  for (const Cfg& c : cfgs) {
    twostage::Sb2stOptions o;
    o.num_workers = c.w;
    o.stage2_workers = c.w2;
    twostage::Sb2stResult r;
    const double t = bench::time_seconds([&] { r = twostage::sb2st(s1.band, o); });
    bool identical = r.d == ref.d && r.e == ref.e;
    rec.add("stage2/w" + std::to_string(c.w) + "s" + std::to_string(c.w2), t);
    std::printf("  workers=%-3d width=%-3d %10.3f s   %s\n", c.w, c.w2, t,
                identical ? "matches sequential" : "MISMATCH");
  }
  std::printf("\npaper shape: the paper confines this memory-bound stage to\n"
              "a few cores; the width sets how many sweeps are in flight,\n"
              "each trailing the one ahead by two hops.\n");
  return 0;
}
