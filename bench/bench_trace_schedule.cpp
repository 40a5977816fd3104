// Execution-trace harness for the bulge chase (the paper's Figure 2 shows
// exactly this kernel-execution view) and for the parallel D&C solve: runs
// stage 2 and stedc with the unified telemetry layer (tseig::obs)
// recording, writes Chrome-tracing JSONs (open in chrome://tracing or
// Perfetto, or feed to tseig_prof), and prints per-lane utilization for the
// chase on all workers and on 2.  The chase runs on range owners: each lane
// owns one slice of the hops of every sweep and records one "chase" span
// per sweep it works on (arg = sweep index), so lane w's spans show its
// slice moving down the sweeps one step behind lane w - 1's.
//
// Usage: bench_trace_schedule [--n N] [--nb NB] [--workers W]
//                             [--lookahead D] [--json /path/out.json]
//
// --json writes the per-configuration wall times as one "tseig-bench-v2"
// document (keys "stage1/la<D>", "stage2/{dynamic,pinned2}", "stedc") --
// the pipeline baseline scripts/bench_ci.sh gates (BENCH_pipeline.json).
//
// Stage 1 is recorded twice -- without look-ahead (depth 0) and with the
// requested depth -- so the traces show where the next panel's
// factorization overlaps the trailing update and what it buys in makespan.
//
// The per-configuration traces land in /tmp (paths printed below); the
// shared --trace/--metrics flags additionally export whatever the last
// configuration recorded at process exit.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/rng.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

using namespace tseig;

namespace {

/// Prints task-span count, makespan and per-lane busy time for one
/// snapshot.
void print_utilization(const obs::Snapshot& snap) {
  double lo = 1e300, hi = -1e300;
  std::vector<double> busy;
  idx tasks = 0;
  for (const obs::SpanRecord& s : snap.spans) {
    ++tasks;
    lo = std::min(lo, s.start_seconds);
    hi = std::max(hi, s.end_seconds);
    if (busy.size() <= static_cast<size_t>(s.lane))
      busy.resize(static_cast<size_t>(s.lane) + 1, 0.0);
    busy[s.lane] += s.end_seconds - s.start_seconds;
  }
  const double makespan = tasks > 0 ? hi - lo : 0.0;
  std::printf("  %lld task spans, makespan %.3fs\n",
              static_cast<long long>(tasks), makespan);
  for (size_t w = 0; w < busy.size(); ++w)
    std::printf("  lane %zu busy %.3fs (%.0f%%)\n", w, busy[w],
                makespan > 0.0 ? 100.0 * busy[w] / makespan : 0.0);
}

/// Runs `fn` with a clean telemetry capture and returns the snapshot.
template <class F>
obs::Snapshot record(F&& fn) {
  const bool was = obs::enabled();
  obs::reset();
  obs::set_enabled(true);
  fn();
  obs::Snapshot snap = obs::snapshot();
  if (!was) obs::set_enabled(false);
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  const idx n = bench::arg_idx(argc, argv, "--n", 512);
  const idx nb = bench::arg_idx(argc, argv, "--nb", 32);
  const int workers =
      static_cast<int>(bench::arg_idx(argc, argv, "--workers", 4));
  const int lookahead =
      static_cast<int>(bench::arg_idx(argc, argv, "--lookahead", 1));
  bench::BenchRecorder rec("trace_schedule", argc, argv);
  bench::init_telemetry(argc, argv);

  Matrix a = bench::random_symmetric(n, 81);
  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), nb, 1);

  std::printf("Bulge-chasing schedule trace (n = %lld, nb = %lld, workers = "
              "%d)\n",
              static_cast<long long>(n), static_cast<long long>(nb), workers);

  // Stage-1 look-ahead: at depth 0 each panel's QR waits for the whole
  // trailing update of its predecessor and runs on one lane while the
  // others idle; with look-ahead it runs on body 0 under the rest of the
  // update.  Same block operations both times (bitwise-identical band),
  // different overlap.
  for (const int depth : {0, lookahead}) {
    double wall = 0.0;
    const obs::Snapshot snap = record([&] {
      wall = bench::time_seconds([&] {
        twostage::Sy2sbOptions o;
        o.num_workers = workers;
        o.lookahead = depth;
        (void)twostage::sy2sb(n, a.data(), a.ld(), nb, o);
      });
    });
    rec.add("stage1/la" + std::to_string(depth), wall);
    std::printf("\nstage 1, lookahead %d:\n", depth);
    print_utilization(snap);
    char out[64];
    std::snprintf(out, sizeof(out), "/tmp/trace_stage1_la%d.json", depth);
    obs::write_chrome_trace_file(snap, out);
    std::printf("  trace written to %s\n", out);
    if (lookahead == 0) break;  // only one distinct configuration
  }

  struct Cfg {
    const char* name;
    const char* key;
    int subset;
    const char* out;
  };
  const Cfg cfgs[] = {
      {"owned hop ranges, all workers", "stage2/dynamic", 0,
       "/tmp/trace_stage2_dynamic.json"},
      {"owned hop ranges, width 2", "stage2/pinned2", 2,
       "/tmp/trace_stage2_pinned.json"},
  };
  for (const Cfg& c : cfgs) {
    double wall = 0.0;
    const obs::Snapshot snap = record([&] {
      wall = bench::time_seconds([&] {
        twostage::Sb2stOptions o;
        o.num_workers = workers;
        o.stage2_workers = c.subset;
        (void)twostage::sb2st(s1.band, o);
      });
    });
    rec.add(c.key, wall);
    std::printf("\n%s:\n", c.name);
    print_utilization(snap);
    obs::write_chrome_trace_file(snap, c.out);
    std::printf("  trace written to %s\n", c.out);
  }
  // D&C merge-tree trace (the solve phase alongside stages 1-2): leaf
  // fan-out, per-merge tasks and the column-partitioned root GEMM.
  {
    std::vector<double> d(static_cast<size_t>(n)),
        e(static_cast<size_t>(n), 0.0);
    Rng rng(83);
    rng.fill_uniform(d.data(), n);
    if (n > 1) rng.fill_uniform(e.data(), n - 1);
    Matrix z(n, n);
    double wall = 0.0;
    const obs::Snapshot snap = record([&] {
      wall = bench::time_seconds([&] {
        tridiag::StedcOptions o;
        o.num_workers = workers;
        tridiag::stedc(n, d.data(), e.data(), z.data(), z.ld(), o);
      });
    });
    rec.add("stedc", wall);
    std::printf("\nD&C merge tree:\n");
    print_utilization(snap);
    obs::write_chrome_trace_file(snap, "/tmp/trace_stedc.json");
    std::printf("  trace written to /tmp/trace_stedc.json\n");
  }

  std::printf("\npaper shape (Figure 2 / Section 6): the chase admits\n"
              "limited parallelism (each sweep trails its predecessor by two\n"
              "hops); a narrower split concentrates the same work on\n"
              "fewer, better-utilized cores.\n"
              "The D&C tree is the opposite: wide independent leaves that\n"
              "narrow into a few GEMM-dominated merges near the root.\n");
  return 0;
}
