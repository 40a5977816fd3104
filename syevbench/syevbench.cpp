// syevbench: the repository benchmark.  One process runs one workload as a
// closed loop (one client thread; the next call starts when the previous one
// returns) and prints human-readable lines followed by one JSON result line.
//
//   syevbench --workload W --seed S --seconds T --trace 0|1 --workers K
//             [--setup-only] [--smoke]
//
// --trace 0 measures the end-to-end metrics with the library untraced.
// --trace 1 is the separate per-layer pass: it alternates plain calls with
// "staged" calls that run the same layer sequence as solver::syev's
// two-stage path through each layer's public function, timing each call from
// here.  --setup-only generates the inputs, times the cold first call and
// exits (run.py starts several of these to take a median set-up time).
// syevbench/README.md documents the workloads and metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "blas/kernels/registry.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/householder.hpp"
#include "lapack/steqr.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "tridiag/bisect.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace {

using namespace tseig;

constexpr double kEps = std::numeric_limits<double>::epsilon();
// Scaled-oracle limits, the same as the test suite's (tests/support).
constexpr double kCheckTol = 50.0;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 20261016;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;
  bool setup_only = false;
  bool smoke = false;
};

struct Workload {
  idx n = 0;               // single-solve size; 0 for the batch workload
  idx batch = 0;           // problems per syev_batch call; 0 = single solve
  idx batch_nmin = 0, batch_nmax = 0;
  solver::SyevOptions opts;
};

bool make_workload(const std::string& name, bool smoke, Workload& w) {
  const idx n = smoke ? 192 : 1024;
  if (name == "evd_full") {
    w.n = n;
  } else if (name == "evd_values") {
    w.n = n;
    w.opts.job = solver::jobz::values_only;
  } else if (name == "evr_subset") {
    w.n = n;
    w.opts.solver = solver::eig_solver::bisect;
    w.opts.fraction = 0.2;
  } else if (name == "batch_mixed") {
    w.batch = smoke ? 16 : 256;
    w.batch_nmin = 4;
    w.batch_nmax = smoke ? 64 : 192;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs: A = Q diag(spectrum) Q^T with a seeded uniform spectrum (the
// eigenvalue oracle) and Q from a blocked QR of a Gaussian matrix.  This is
// lapack::symmetric_with_spectrum with Q formed blockwise (larfb) instead of
// the unblocked org2r, which would dominate the run's start-up time.

struct Problem {
  Matrix a;
  std::vector<double> spectrum;  // ascending
};

Problem make_problem(idx n, Rng& rng) {
  Problem p;
  p.spectrum =
      lapack::make_spectrum(lapack::spectrum_kind::random_uniform, n, 0.0, rng);
  Matrix g(n, n);
  rng.fill_normal(g.data(), n * n);
  const idx nb = std::min<idx>(n, 64);
  std::vector<double> tau(static_cast<size_t>(n));
  lapack::geqrf(n, n, g.data(), g.ld(), tau.data(), nb);

  Matrix q(n, n);
  lapack::laset(n, n, 0.0, 1.0, q.data(), q.ld());
  std::vector<double> v, t(static_cast<size_t>(nb * nb)),
      work(static_cast<size_t>(nb * n));
  for (idx j0 = ((n - 1) / nb) * nb; j0 >= 0; j0 -= nb) {
    const idx kb = std::min(nb, n - j0), rows = n - j0;
    v.assign(static_cast<size_t>(rows * kb), 0.0);
    lapack::extract_v(rows, kb, g.data() + j0 + j0 * g.ld(), g.ld(), v.data(),
                      rows);
    lapack::larft(rows, kb, v.data(), rows, tau.data() + j0, t.data(), kb);
    lapack::larfb(side::left, op::none, rows, rows, kb, v.data(), rows,
                  t.data(), kb, q.data() + j0 + j0 * q.ld(), q.ld(),
                  work.data());
  }
  Matrix qd(n, n);
  for (idx j = 0; j < n; ++j)
    for (idx i = 0; i < n; ++i)
      qd(i, j) = q(i, j) * p.spectrum[static_cast<size_t>(j)];
  p.a.reshape(n, n);
  blas::gemm(op::none, op::trans, n, n, n, 1.0, qd.data(), qd.ld(), q.data(),
             q.ld(), 0.0, p.a.data(), p.a.ld());
  for (idx j = 0; j < n; ++j)
    for (idx i = j + 1; i < n; ++i) {
      const double s = 0.5 * (p.a(i, j) + p.a(j, i));
      p.a(i, j) = s;
      p.a(j, i) = s;
    }
  return p;
}

std::vector<Problem> make_inputs(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Problem> out;
  if (w.batch == 0) {
    out.push_back(make_problem(w.n, rng));
    return out;
  }
  // Sizes are evenly spread over [nmin, nmax] so every seed carries the same
  // work; the seed decides their order and the matrices.
  std::vector<idx> sizes(static_cast<size_t>(w.batch));
  const idx span = w.batch_nmax - w.batch_nmin + 1;
  for (idx i = 0; i < w.batch; ++i)
    sizes[static_cast<size_t>(i)] = w.batch_nmin + i * span / w.batch;
  for (idx i = w.batch - 1; i > 0; --i)
    std::swap(sizes[static_cast<size_t>(i)],
              sizes[rng.below(static_cast<std::uint64_t>(i + 1))]);
  for (idx n : sizes) out.push_back(make_problem(n, rng));
  return out;
}

// ---------------------------------------------------------------------------
// Calls under test.

struct CallResult {
  std::vector<solver::SyevResult> results;  // one per problem
  solver::BatchStats stats;                 // batch workload only
};

CallResult call(const Workload& w, const std::vector<Problem>& in, int workers) {
  CallResult r;
  if (w.batch == 0) {
    solver::SyevOptions o = w.opts;
    o.num_workers = workers;
    const Matrix& a = in[0].a;
    r.results.push_back(solver::syev(a.rows(), a.data(), a.ld(), o));
    return r;
  }
  std::vector<solver::BatchProblem> ps;
  for (const Problem& p : in)
    ps.push_back({p.a.rows(), p.a.data(), p.a.ld(), w.opts});
  solver::SyevBatchOptions bo;
  bo.num_workers = workers;
  solver::SyevBatchResult br = solver::syev_batch(ps, bo);
  r.results = std::move(br.results);
  r.stats = std::move(br.stats);
  return r;
}

/// Bitwise fingerprint of a call's outputs: eigenvalues kept verbatim, each
/// Z reduced to a 64-bit hash so no second copy inflates peak RSS.
struct Fingerprint {
  std::vector<std::vector<double>> w;
  std::vector<std::uint64_t> zhash;
  bool operator==(const Fingerprint&) const = default;
};

std::uint64_t hash_doubles(const double* x, idx count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (idx i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, x + i, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

Fingerprint fingerprint(const std::vector<solver::SyevResult>& rs) {
  Fingerprint f;
  for (const solver::SyevResult& r : rs) {
    f.w.push_back(r.eigenvalues);
    f.zhash.push_back(hash_doubles(r.z.data(), r.z.rows() * r.z.cols()));
  }
  return f;
}

// ---------------------------------------------------------------------------
// Output checks: LAPACK-style scaled oracles.

double fro(const Matrix& m) {
  return lapack::lange(lapack::norm::fro, m.rows(), m.cols(), m.data(), m.ld());
}

struct Check {
  double residual = 0.0, orthogonality = 0.0, eig_error = 0.0;
  void merge(const Check& c) {
    residual = std::max(residual, c.residual);
    orthogonality = std::max(orthogonality, c.orthogonality);
    eig_error = std::max(eig_error, c.eig_error);
  }
  bool ok() const {
    return residual <= kCheckTol && orthogonality <= kCheckTol &&
           eig_error <= kCheckTol;
  }
};

/// max_i |w_i - spectrum_i| / (n eps max|spectrum|): eigenvalues against the
/// generated spectrum (the m smallest when only a subset was computed).
double eig_error(const Problem& p, const std::vector<double>& w) {
  if (w.size() > p.spectrum.size() || !std::is_sorted(w.begin(), w.end()))
    return std::numeric_limits<double>::infinity();
  double wmax = 0.0, err = 0.0;
  for (double v : p.spectrum) wmax = std::max(wmax, std::fabs(v));
  for (size_t i = 0; i < w.size(); ++i)
    err = std::max(err, std::fabs(w[i] - p.spectrum[i]));
  return err / (static_cast<double>(p.spectrum.size()) * kEps * wmax);
}

Check check(const Problem& p, const solver::SyevResult& r) {
  const idx n = p.a.rows();
  const idx m = r.z.cols();
  Check c;
  c.eig_error = eig_error(p, r.eigenvalues);
  if (m == 0) return c;
  if (static_cast<idx>(r.eigenvalues.size()) != m || r.z.rows() != n) {
    c.residual = std::numeric_limits<double>::infinity();
    return c;
  }
  Matrix res(n, m);
  blas::gemm(op::none, op::none, n, m, n, 1.0, p.a.data(), p.a.ld(),
             r.z.data(), r.z.ld(), 0.0, res.data(), res.ld());
  for (idx j = 0; j < m; ++j)
    for (idx i = 0; i < n; ++i)
      res(i, j) -= r.eigenvalues[static_cast<size_t>(j)] * r.z(i, j);
  c.residual = fro(res) / (static_cast<double>(n) * kEps * fro(p.a));
  Matrix gram(m, m);
  blas::gemm(op::trans, op::none, m, m, n, 1.0, r.z.data(), r.z.ld(),
             r.z.data(), r.z.ld(), 0.0, gram.data(), gram.ld());
  for (idx j = 0; j < m; ++j) gram(j, j) -= 1.0;
  c.orthogonality = fro(gram) / (static_cast<double>(n) * kEps);
  return c;
}

Check check_all(const std::vector<Problem>& in, const CallResult& r) {
  Check c;
  for (size_t i = 0; i < in.size(); ++i) c.merge(check(in[i], r.results[i]));
  return c;
}

// ---------------------------------------------------------------------------
// Peak RSS: writing 5 to /proc/self/clear_refs resets VmHWM; where that is
// unavailable the process-lifetime ru_maxrss is reported instead.

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  return static_cast<bool>(f << "5") && static_cast<bool>(f.flush());
}

double peak_rss_mib(bool from_hwm) {
  if (from_hwm) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Staged call: the layer sequence of solve_two_stage (solver/syev.cpp) with
// the same options, one span per layer call.

enum Layer { kSy2sb, kSb2st, kSolve, kQ2, kQ1, kLayers };
const char* const kLayerName[kLayers] = {
    "twostage.sy2sb", "twostage.sb2st", "tridiag.solve", "twostage.apply_q2",
    "twostage.apply_q1"};

struct LayerCost {
  double s[kLayers] = {};
  double flops[kLayers] = {};  // nominal paper counts (computed, not measured)
};

template <class F>
void span(double& acc, F&& f) {
  const double t0 = now_s();
  f();
  acc += now_s() - t0;
}

/// With values_only there is no back-transformation inside syev; the update
/// layers are then timed as a probe, this input's Q2 and Q1 applied to n
/// identity columns, outside the result.
solver::SyevResult staged(const Problem& p, const solver::SyevOptions& o,
                          int workers, LayerCost& lc) {
  const idx n = p.a.rows();
  const blas::ScopedKernelWorkers kernel_budget(workers);
  const idx nb = std::min(std::min(o.nb, n), std::max<idx>(1, n - 1));
  const double dn = static_cast<double>(n);
  solver::SyevResult res;

  twostage::Sy2sbResult s1;
  span(lc.s[kSy2sb], [&] {
    twostage::Sy2sbOptions o1;
    o1.num_workers = workers;
    o1.lookahead = o.lookahead;
    s1 = twostage::sy2sb(n, p.a.data(), p.a.ld(), nb, o1);
  });
  lc.flops[kSy2sb] += 4.0 / 3.0 * dn * dn * dn;

  twostage::Sb2stResult s2;
  span(lc.s[kSb2st], [&] {
    twostage::Sb2stOptions o2;
    o2.num_workers = workers;
    o2.stage2_workers = o.stage2_workers;
    o2.group = o.group;
    s2 = twostage::sb2st(s1.band, o2);
  });
  lc.flops[kSb2st] += 6.0 * dn * dn * static_cast<double>(nb);

  std::vector<double>& d = s2.d;
  std::vector<double>& e = s2.e;
  Matrix probe;
  Matrix* z = &res.z;
  if (o.job == solver::jobz::values_only) {
    span(lc.s[kSolve], [&] { lapack::sterf(n, d.data(), e.data()); });
    res.eigenvalues = d;
    probe.reshape(n, n);
    lapack::laset(n, n, 0.0, 1.0, probe.data(), probe.ld());
    z = &probe;
  } else {
    const idx m =
        std::max<idx>(1, static_cast<idx>(std::llround(o.fraction * dn)));
    if (o.solver == solver::eig_solver::bisect) {
      span(lc.s[kSolve], [&] {
        res.eigenvalues = tridiag::stebz_index(n, d.data(), e.data(), 0, m - 1);
        res.z.reshape(n, static_cast<idx>(res.eigenvalues.size()));
        tridiag::stein(n, d.data(), e.data(), res.eigenvalues, res.z.data(),
                       res.z.ld());
      });
    } else {
      Matrix evec(n, n);
      span(lc.s[kSolve], [&] {
        tridiag::StedcOptions so;
        so.crossover = o.dc_crossover;
        so.num_workers = workers;
        tridiag::stedc(n, d.data(), e.data(), evec.data(), evec.ld(), so);
      });
      res.eigenvalues.assign(d.begin(), d.begin() + m);
      res.z.reshape(n, m);
      lapack::lacpy(n, m, evec.data(), evec.ld(), res.z.data(), res.z.ld());
    }
  }

  const idx m = z->cols();
  span(lc.s[kQ2], [&] {
    twostage::apply_q2(op::none, s2.v2, z->data(), z->ld(), m, o.ell, workers);
  });
  span(lc.s[kQ1], [&] {
    twostage::apply_q1(op::none, s1.q1, z->data(), z->ld(), m, workers);
  });
  const double dm = static_cast<double>(m);
  lc.flops[kQ2] += 2.0 * dn * dn * dm *
                   (1.0 + static_cast<double>(o.ell) / static_cast<double>(nb));
  lc.flops[kQ1] += 2.0 * dn * dn * dm;
  return res;
}

/// Staged counterpart of call(): batch problems run one after another with
/// one worker each, as syev_batch's whole-problem tasks do.
CallResult staged_call(const Workload& w, const std::vector<Problem>& in,
                       int workers, LayerCost& lc) {
  CallResult r;
  for (const Problem& p : in)
    r.results.push_back(staged(p, w.opts, w.batch == 0 ? workers : 1, lc));
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Every reported time is the lower quartile of its samples.  The host is
/// shared: episodes of neighbour load slow whole stretches of calls by up to
/// a third, which moves a run's median but rarely its fastest quarter.
double typical(const std::vector<double>& v) { return quantile(v, 0.25); }

void print_series(const char* name, const char* unit,
                  const std::vector<double>& v) {
  std::printf("%-34s q1 %.6g %s  median %.6g  q3 %.6g  p90 %.6g  n=%zu\n",
              name, quantile(v, 0.25), unit, median(v), quantile(v, 0.75),
              quantile(v, 0.9), v.size());
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

void print_result(bool correct, long attempted, long failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < m.items.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.items[i].first.c_str(),
                m.items[i].second.first, m.items[i].second.second.c_str());
  std::printf("}}\n");
}

/// Roofline probes, measured in the same run as the layers: GEMM at n = 512
/// with the workload's worker budget, and GEMV at n = 2048 (32 MiB, resident
/// in this host's 300 MiB LLC).
void kernel_probes(int workers, Metrics& m) {
  const blas::ScopedKernelWorkers kernel_budget(workers);
  Rng rng(1);
  {
    const idx n = 512;
    Matrix a(n, n), b(n, n), c(n, n);
    rng.fill_uniform(a.data(), n * n);
    rng.fill_uniform(b.data(), n * n);
    std::vector<double> t;
    for (int rep = 0; rep < 31; ++rep) {
      const double t0 = now_s();
      blas::gemm(op::none, op::none, n, n, n, 1.0, a.data(), n, b.data(), n,
                 0.0, c.data(), n);
      t.push_back(now_s() - t0);
    }
    m.add("blas.gemm.gflops", 2.0 * n * n * n / typical(t) * 1e-9, "GFLOP/s");
  }
  {
    const idx n = 2048;
    Matrix a(n, n);
    std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
    rng.fill_uniform(a.data(), n * n);
    rng.fill_uniform(x.data(), n);
    std::vector<double> t;
    for (int rep = 0; rep < 31; ++rep) {
      const double t0 = now_s();
      blas::gemv(op::none, n, n, 1.0, a.data(), n, x.data(), 1, 0.0, y.data(),
                 1);
      t.push_back(now_s() - t0);
    }
    m.add("blas.gemv.gbps", 8.0 * n * n / typical(t) * 1e-9, "GB/s");
  }
}

int run(const Args& args) {
  Workload w;
  if (!make_workload(args.workload, args.smoke, w)) {
    std::fprintf(stderr, "syevbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int workers = args.workers;
  std::vector<Problem> in;
  {
    const blas::ScopedKernelWorkers kernel_budget(workers);
    in = make_inputs(w, args.seed);
  }
  const bool hwm = reset_peak_rss();

  long attempted = 1, failed = 0;
  const double c0 = now_s();
  CallResult first = call(w, in, workers);
  const double setup_s = now_s() - c0;
  if (args.setup_only) {
    Metrics m;
    m.add("setup_s", setup_s, "s");
    print_result(true, 1, 0, m);
    return 0;
  }
  const Fingerprint ref = fingerprint(first.results);
  first = {};

  std::printf("workload %s  seed %llu  workers %d  kernel %s  problems %zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), workers,
              blas::kernels::active_kernel_name(), in.size());
  auto& pool = rt::ThreadPool::instance();
  const rt::PoolStats p0 = pool.stats();
  Metrics m;
  std::vector<double> call_s, jobs, parks;
  CallResult last;
  const double start = now_s();
  // The library promises bitwise-identical outputs for identical inputs.
  // Mismatches are reported but not counted as failures: syev_batch breaks
  // the promise on rare calls (see README, "Known defect").
  long mismatches = 0, staged_mismatches = 0;
  std::vector<double> staged_s, layer_s[kLayers];
  double layer_flops[kLayers] = {};
  std::vector<double> occupancy, waits, solve_times;

  auto plain_call = [&] {
    last = {};
    const rt::PoolStats s0 = pool.stats();
    const double t0 = now_s();
    ++attempted;
    try {
      last = call(w, in, workers);
    } catch (const std::exception& ex) {
      std::printf("call failed: %s\n", ex.what());
      ++failed;
      return;
    }
    call_s.push_back(now_s() - t0);
    const rt::PoolStats s1 = pool.stats();
    jobs.push_back(static_cast<double>(s1.jobs_executed - s0.jobs_executed));
    parks.push_back(static_cast<double>(s1.parks - s0.parks));
    if (!(fingerprint(last.results) == ref)) ++mismatches;
    double err = 0.0;
    for (size_t i = 0; i < in.size(); ++i)
      err = std::max(err, eig_error(in[i], last.results[i].eigenvalues));
    if (!(err <= kCheckTol)) {
      std::printf("call %ld: scaled eigenvalue error %.3g\n", attempted, err);
      ++failed;
    }
    if (w.batch > 0) {
      occupancy.push_back(last.stats.occupancy());
      for (const auto& ps : last.stats.problems) {
        waits.push_back(ps.queue_wait_seconds());
        solve_times.push_back(ps.solve_seconds());
      }
    }
  };

  if (!args.trace) {
    do plain_call();
    while (call_s.size() < 3 || now_s() - start < args.seconds);
  } else {
    kernel_probes(workers, m);
    do {
      plain_call();
      LayerCost lc;
      const double t0 = now_s();
      const CallResult st = staged_call(w, in, workers, lc);
      const double probe =
          w.opts.job == solver::jobz::values_only ? lc.s[kQ2] + lc.s[kQ1] : 0.0;
      staged_s.push_back(now_s() - t0 - probe);
      for (int l = 0; l < kLayers; ++l) {
        layer_s[l].push_back(lc.s[l]);
        layer_flops[l] = lc.flops[l];
      }
      if (!(fingerprint(st.results) == ref)) ++staged_mismatches;
    } while (staged_s.size() < 3 || now_s() - start < args.seconds);
  }
  const rt::PoolStats p1 = pool.stats();
  const double rss = peak_rss_mib(hwm);
  std::printf("runtime.pool.threads_created after warm-up %llu\n",
              static_cast<unsigned long long>(p1.threads_created -
                                              p0.threads_created));
  std::printf("bitwise mismatches against the first call: %ld of %zu calls\n",
              mismatches, call_s.size());

  Check c;
  if (last.results.size() == in.size()) c = check_all(in, last);
  else c.residual = std::numeric_limits<double>::infinity();
  if (!c.ok()) ++failed;
  std::printf("check: residual %.3g  orthogonality %.3g  eig_error %.3g  "
              "(limit %g)  %s\n",
              c.residual, c.orthogonality, c.eig_error, kCheckTol,
              c.ok() ? "OK" : "FAIL");

  const double problems = static_cast<double>(in.size());
  print_series("solve_s (per call)", "s", call_s);
  if (!args.trace) {
    m.add("solve_s", typical(call_s), "s");
    m.add("throughput_pps", problems / typical(call_s), "problems/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mib", rss, "MiB");
    std::printf("setup_s %.6g s (this process)  peak_rss_mib %.6g MiB (%s)\n",
                setup_s, rss, hwm ? "VmHWM after clear_refs" : "ru_maxrss");
  } else {
    double sum = 0.0;
    for (int l = 0; l < kLayers; ++l) {
      const double s = typical(layer_s[l]);
      const std::string name = kLayerName[l];
      print_series((name + ".s").c_str(), "s", layer_s[l]);
      m.add(name + ".s", s, "s");
      if (l != kSolve) m.add(name + ".gflops", layer_flops[l] / s * 1e-9, "GFLOP/s");
      // Update layers probed on a values-only workload are not part of syev.
      const bool in_syev = l < kQ2 || w.opts.job == solver::jobz::vectors;
      if (in_syev) sum += s;
    }
    const double plain = typical(call_s);
    // Batch problems run concurrently inside syev_batch, so their layer sum
    // is compared with the summed per-problem solve intervals instead.
    const double base =
        w.batch > 0 ? std::accumulate(solve_times.begin(), solve_times.end(),
                                      0.0) /
                          static_cast<double>(call_s.size())
                    : plain;
    const double coverage = sum / base;
    m.add("runtime.pool.jobs_per_call", median(jobs), "count");
    m.add("runtime.pool.parks_per_call", median(parks), "count");
    m.add("solver.syev.coverage", coverage, "ratio");
    const double staged_per_call =
        w.batch > 0
            ? std::accumulate(staged_s.begin(), staged_s.end(), 0.0) /
                  static_cast<double>(staged_s.size())
            : typical(staged_s);
    m.add("trace.overhead", staged_per_call / base - 1.0, "ratio");
    m.add("solver.check.eig_error", c.eig_error, "ratio");
    print_series("staged call", "s", staged_s);
    std::printf("coverage %.4f  unattributed_s %.6g  staged!=syev bitwise: "
                "%ld of %zu staged calls\n",
                coverage, base - sum, staged_mismatches, staged_s.size());
    if (w.batch > 0) {
      print_series("solver.syev_batch.occupancy", "", occupancy);
      print_series("solver.syev_batch.queue_wait_s", "s", waits);
      std::printf("solver.syev_batch.queue_wait_s.p99 %.6g s  "
                  "makespan_s.p90 %.6g s\n",
                  quantile(waits, 0.99), quantile(call_s, 0.9));
    } else {
      // Parallel efficiency per layer: one extra single-worker staged call.
      LayerCost serial;
      staged_call(w, in, 1, serial);
      for (int l = 0; l < kLayers; ++l)
        std::printf("%s.par_eff %.3f\n", kLayerName[l],
                    serial.s[l] / (workers * typical(layer_s[l])));
    }
    // The guard keeps the layer numbers tied to what syev runs; it covers
    // the single solves (batch layers run on one thread, the batch on all).
    // Smoke sizes run for milliseconds, too short for a stable coverage.
    const bool single = w.batch == 0;
    const bool covered =
        args.smoke || (coverage >= 0.85 && coverage <= 1.15);
    if (single && (staged_mismatches > 0 || !covered)) {
      std::printf("INVALID %s\n", args.workload.c_str());
      return 3;
    }
  }
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--setup-only") args.setup_only = true;
    else if (a == "--smoke") args.smoke = true;
    else if (v && a == "--workload") args.workload = argv[++i];
    else if (v && a == "--seed") args.seed = std::stoull(argv[++i]);
    else if (v && a == "--seconds") args.seconds = std::stod(argv[++i]);
    else if (v && a == "--trace") args.trace = std::stoi(argv[++i]) != 0;
    else if (v && a == "--workers") args.workers = std::stoi(argv[++i]);
    else {
      std::fprintf(stderr, "syevbench: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (args.workers < 1) args.workers = 1;
  try {
    return run(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "syevbench: %s\n", ex.what());
    return 1;
  }
}
