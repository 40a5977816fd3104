#include "tridiag/stedc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/parallel.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::tridiag {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Secular roots / Gu-Eisenstat rows per parallel_for chunk (each iteration
// is O(k) work).
constexpr idx kSecularGrain = 8;

/// Root of the secular equation f(x) = 1 + sum_i zsq[i]/(delta[i] - x) in
/// interval j, represented as delta[anchor] + tau for accuracy.
struct SecularRoot {
  idx anchor;
  double tau;
};

/// f evaluated at delta[a] + tau.
double secular_g(idx k, const double* delta, const double* zsq, idx a,
                 double tau, double* gprime) {
  double g = 1.0;
  double gp = 0.0;
  const double da = delta[a];
  for (idx i = 0; i < k; ++i) {
    const double den = (delta[i] - da) - tau;
    const double r = zsq[i] / den;
    g += r;
    gp += r / den;
  }
  if (gprime != nullptr) *gprime = gp;
  return g;
}

/// Bisection-safeguarded Newton iteration for the root in interval j:
/// (delta[j], delta[j+1]) for j < k-1, (delta[k-1], delta[k-1] + ||z||^2]
/// for j = k-1.  f is strictly increasing on each interval.  Pure function
/// of its arguments -- the merge loop calls it concurrently for distinct j.
SecularRoot solve_secular(idx k, const double* delta, const double* zsq,
                          idx j) {
  if (k == 1) return {0, zsq[0]};

  idx a;
  double lo, hi;  // bracket in tau-space relative to delta[a]
  if (j == k - 1) {
    a = k - 1;
    double total = 0.0;
    for (idx i = 0; i < k; ++i) total += zsq[i];
    lo = 0.0;
    hi = total;
  } else {
    // Pick the anchor nearest the root by the sign of f at the midpoint.
    const double width = delta[j + 1] - delta[j];
    const double gmid = secular_g(k, delta, zsq, j, 0.5 * width, nullptr);
    if (gmid >= 0.0) {
      a = j;  // root in the left half
      lo = 0.0;
      hi = 0.5 * width;
    } else {
      a = j + 1;  // root in the right half
      lo = -0.5 * width;
      hi = 0.0;
    }
  }

  double tau = 0.5 * (lo + hi);
  for (int it = 0; it < 100; ++it) {
    double gp = 0.0;
    const double g = secular_g(k, delta, zsq, a, tau, &gp);
    if (g == 0.0) break;
    if (g > 0.0) {
      hi = tau;
    } else {
      lo = tau;
    }
    double next = tau - g / gp;  // Newton (f increasing, convex pieces)
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);  // safeguard
    const double spacing =
        2.0 * kEps * std::max({std::fabs(lo), std::fabs(hi), 1e-300});
    if (hi - lo <= spacing || next == tau) {
      tau = next;
      break;
    }
    tau = next;
  }
  return {a, tau};
}

/// Rank-one merge: eigen-decomposes diag(dd) + z z^T where the current
/// eigenbasis columns of `q` are given through `cols` (already sorted so
/// that dd is ascending).  Outputs eigenvalues (ascending) in `dout` and the
/// updated basis in `qout` (n-by-kall, rows = q.rows()).  With nw > 1 the
/// independent secular roots, Gu-Eisenstat rows and eigenvector columns run
/// under parallel_for, and the back-multiplication GEMM splits its row
/// blocks under the caller's kernel budget; the operations per index are
/// identical to the serial path, so the results agree to the last bit.
/// Returns the merge's statistics.
StedcStats rank_one_merge(std::vector<double>& dd, std::vector<double>& zz,
                          Matrix& q, std::vector<idx>& cols, double* dout,
                          Matrix& qout, int nw) {
  const idx kall = static_cast<idx>(dd.size());
  const idx rows = q.rows();
  StedcStats local;
  local.merges = 1;
  local.total_size = kall;

  double zsum = 0.0;
  double dmax = 0.0;
  for (idx i = 0; i < kall; ++i) {
    zsum += zz[i] * zz[i];
    dmax = std::max(dmax, std::fabs(dd[i]));
  }
  const double scale = dmax + zsum;
  const double told = 8.0 * kEps * std::max(scale, 1e-300);
  const double tolz =
      8.0 * kEps * std::max(scale, 1e-300) / std::max(std::sqrt(zsum), 1e-150);

  // --- Deflation (xLAED2 role).  Inherently sequential scan: each decision
  // depends on the previous kept entry, so it stays on one thread. ---
  std::vector<idx> kept;          // indices into dd/zz/cols
  std::vector<idx> defl;          // ditto
  std::vector<double> defl_val;
  for (idx i = 0; i < kall; ++i) {
    if (std::fabs(zz[i]) <= tolz) {
      defl.push_back(i);
      defl_val.push_back(dd[i]);
      continue;
    }
    if (!kept.empty()) {
      const idx p = kept.back();
      const double t = dd[i] - dd[p];
      const double r = lapack::lapy2(zz[p], zz[i]);
      const double c = zz[i] / r;
      const double s = zz[p] / r;
      if (std::fabs(t * c * s) <= told) {
        // Rotate columns (p, i) with G = [[c, s], [-s, c]] so the z weight
        // concentrates in slot i; slot p deflates (dropped coupling c*s*t).
        double* cp = q.col(cols[static_cast<size_t>(p)]);
        double* ci = q.col(cols[static_cast<size_t>(i)]);
        blas::rot(rows, ci, 1, cp, 1, c, s);
        const double dp = dd[p];
        const double di = dd[i];
        dd[p] = dp * c * c + di * s * s;
        dd[i] = dp * s * s + di * c * c;
        zz[i] = r;
        zz[p] = 0.0;
        kept.pop_back();
        defl.push_back(p);
        defl_val.push_back(dd[p]);
        // dd[i] may now be below the previous kept entry only within told;
        // fall through to keep i.
      }
    }
    kept.push_back(i);
  }
  const idx k = static_cast<idx>(kept.size());
  local.deflated = kall - k;
  local.secular_solves = k;

  // --- Secular equation + Gu-Eisenstat vectors (xLAED3 role). ---
  std::vector<double> lam_val;
  Matrix g;  // rows x k back-multiplied block
  if (k > 0) {
    std::vector<double> delta(static_cast<size_t>(k)),
        zsq(static_cast<size_t>(k));
    for (idx j = 0; j < k; ++j) {
      delta[static_cast<size_t>(j)] = dd[kept[static_cast<size_t>(j)]];
      const double zj = zz[kept[static_cast<size_t>(j)]];
      zsq[static_cast<size_t>(j)] = zj * zj;
    }
    // Every root is an independent Newton iteration on read-only data.
    std::vector<SecularRoot> roots(static_cast<size_t>(k));
    parallel_for(nw, 0, k, kSecularGrain, [&](idx j) {
      roots[static_cast<size_t>(j)] =
          solve_secular(k, delta.data(), zsq.data(), j);
    });
    lam_val.resize(static_cast<size_t>(k));
    for (idx j = 0; j < k; ++j)
      lam_val[static_cast<size_t>(j)] =
          delta[static_cast<size_t>(roots[static_cast<size_t>(j)].anchor)] +
          roots[static_cast<size_t>(j)].tau;

    // lam_minus_delta(j, i) computed through the anchor for accuracy.
    auto lam_minus_delta = [&](idx j, idx i) {
      const SecularRoot& r = roots[static_cast<size_t>(j)];
      return (delta[static_cast<size_t>(r.anchor)] - delta[static_cast<size_t>(i)]) + r.tau;
    };

    // Gu-Eisenstat recomputed z: zhat_i^2 = (lam_i - delta_i) *
    //   prod_{j != i} (lam_j - delta_i) / (delta_j - delta_i).
    std::vector<double> zhat(static_cast<size_t>(k));
    parallel_for(nw, 0, k, kSecularGrain, [&](idx i) {
      double prod = lam_minus_delta(i, i);
      for (idx j = 0; j < k; ++j) {
        if (j == i) continue;
        prod *= lam_minus_delta(j, i) /
                (delta[static_cast<size_t>(j)] - delta[static_cast<size_t>(i)]);
      }
      const double zi = zz[kept[static_cast<size_t>(i)]];
      zhat[static_cast<size_t>(i)] =
          std::copysign(std::sqrt(std::max(prod, 0.0)), zi);
    });

    // Eigenvectors of the rank-one system (one independent column each),
    // then the back-multiply.
    Matrix u(k, k);
    parallel_for(nw, 0, k, kSecularGrain, [&](idx j) {
      double nrm = 0.0;
      for (idx i = 0; i < k; ++i) {
        const double v = zhat[static_cast<size_t>(i)] / (-lam_minus_delta(j, i));
        u(i, j) = v;
        nrm += v * v;
      }
      nrm = 1.0 / std::sqrt(nrm);
      for (idx i = 0; i < k; ++i) u(i, j) *= nrm;
    });
    // G = Q(:, kept) * U.
    Matrix qk(rows, k);
    for (idx j = 0; j < k; ++j)
      lapack::lacpy(rows, 1, q.col(cols[static_cast<size_t>(kept[static_cast<size_t>(j)])]),
                    q.ld(), qk.col(j), qk.ld());
    g.reshape(rows, k);
    blas::gemm(op::none, op::none, rows, k, k, 1.0, qk.data(), qk.ld(),
               u.data(), u.ld(), 0.0, g.data(), g.ld());
  }

  // --- Assemble ascending eigenvalues and matching columns. ---
  struct Entry {
    double value;
    bool from_secular;
    idx index;  // column of g, or defl position
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<size_t>(kall));
  for (idx j = 0; j < k; ++j)
    entries.push_back({lam_val[static_cast<size_t>(j)], true, j});
  for (size_t j = 0; j < defl.size(); ++j)
    entries.push_back({defl_val[j], false, static_cast<idx>(j)});
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.value < b.value; });

  qout.reshape(rows, kall);
  for (idx j = 0; j < kall; ++j) {
    const Entry& en = entries[static_cast<size_t>(j)];
    dout[j] = en.value;
    const double* src =
        en.from_secular
            ? g.col(en.index)
            : q.col(cols[static_cast<size_t>(defl[static_cast<size_t>(en.index)])]);
    lapack::lacpy(rows, 1, src, rows, qout.col(j), qout.ld());
  }
  return local;
}

/// One node of the flattened D&C recursion: the subproblem (d, e)[off ..
/// off+n) and, once solved, its eigenbasis `q`.  The rank-one tears (d[m-1],
/// d[m] -= |beta|) are applied while the tree is built, before any node is
/// solved, so sibling subtrees touch disjoint slices of d and e.
struct Node {
  idx off = 0;
  idx n = 0;
  idx left = -1;
  idx right = -1;
  int depth = 0;
  double absb = 0.0;  // |beta| of this node's rank-one correction
  double sgn = 1.0;   // sign(beta)
  Matrix q;           // eigenbasis once solved; freed after the parent merge
  StedcStats stats;   // this node's own merge (zero for leaves)
};

idx build_tree(std::vector<Node>& nodes, idx off, idx n, int depth, double* d,
               double* e, idx crossover) {
  const idx id = static_cast<idx>(nodes.size());
  nodes.push_back({});
  nodes[static_cast<size_t>(id)].off = off;
  nodes[static_cast<size_t>(id)].n = n;
  nodes[static_cast<size_t>(id)].depth = depth;
  if (n <= crossover) return id;

  const idx m = n / 2;
  const double beta = e[off + m - 1];
  const double absb = std::fabs(beta);
  d[off + m - 1] -= absb;
  d[off + m] -= absb;
  const idx l = build_tree(nodes, off, m, depth + 1, d, e, crossover);
  const idx r = build_tree(nodes, off + m, n - m, depth + 1, d, e, crossover);
  Node& nd = nodes[static_cast<size_t>(id)];  // re-fetch: children reallocate
  nd.absb = absb;
  nd.sgn = beta >= 0.0 ? 1.0 : -1.0;
  nd.left = l;
  nd.right = r;
  return id;
}

/// Leaf solve: QL/QR iteration on the subproblem slice.
void solve_leaf(Node& nd, double* d, double* e) {
  const idx n = nd.n;
  nd.q.reshape(n, n);
  lapack::laset(n, n, 0.0, 1.0, nd.q.data(), nd.q.ld());
  lapack::steqr(n, d + nd.off, e + nd.off, nd.q.data(), nd.q.ld(), n);
}

/// Merge: combines the children's eigensystems through the rank-one
/// correction, writing eigenvalues into d[off..off+n) and the basis into
/// nd.q.  Children bases are released afterwards.
void merge_node(Node& nd, Node& lch, Node& rch, double* d, int nw) {
  const idx n = nd.n;
  const idx m = lch.n;
  Matrix& q1 = lch.q;
  Matrix& q2 = rch.q;

  // z = sqrt(rho) * [last row of Q1 ; sgn * first row of Q2].
  std::vector<double> dd(static_cast<size_t>(n)), zz(static_cast<size_t>(n));
  const double srho = std::sqrt(nd.absb);
  for (idx j = 0; j < m; ++j) zz[static_cast<size_t>(j)] = srho * q1(m - 1, j);
  for (idx j = 0; j < n - m; ++j)
    zz[static_cast<size_t>(m + j)] = srho * nd.sgn * q2(0, j);
  for (idx i = 0; i < n; ++i) dd[static_cast<size_t>(i)] = d[nd.off + i];

  // Assemble the block-diagonal basis and sort by dd.
  Matrix qblk(n, n);
  for (idx j = 0; j < m; ++j)
    lapack::lacpy(m, 1, q1.col(j), q1.ld(), qblk.col(j), qblk.ld());
  for (idx j = 0; j < n - m; ++j)
    lapack::lacpy(n - m, 1, q2.col(j), q2.ld(), qblk.col(m + j) + m,
                  qblk.ld());
  q1 = Matrix();
  q2 = Matrix();

  std::vector<idx> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), idx{0});
  std::stable_sort(order.begin(), order.end(), [&](idx a, idx b) {
    return dd[static_cast<size_t>(a)] < dd[static_cast<size_t>(b)];
  });
  std::vector<double> dsort(static_cast<size_t>(n)), zsort(static_cast<size_t>(n));
  std::vector<idx> cols(static_cast<size_t>(n));
  for (idx i = 0; i < n; ++i) {
    dsort[static_cast<size_t>(i)] = dd[static_cast<size_t>(order[static_cast<size_t>(i)])];
    zsort[static_cast<size_t>(i)] = zz[static_cast<size_t>(order[static_cast<size_t>(i)])];
    cols[static_cast<size_t>(i)] = order[static_cast<size_t>(i)];
  }

  if (nd.absb == 0.0) {
    // No coupling: just interleave the two sorted spectra.
    nd.q.reshape(n, n);
    for (idx j = 0; j < n; ++j) {
      d[nd.off + j] = dsort[static_cast<size_t>(j)];
      lapack::lacpy(n, 1, qblk.col(cols[static_cast<size_t>(j)]), qblk.ld(),
                    nd.q.col(j), nd.q.ld());
    }
    return;
  }
  nd.stats = rank_one_merge(dsort, zsort, qblk, cols, d + nd.off, nd.q, nw);
}

}  // namespace

StedcStats stedc(idx n, double* d, double* e, double* z, idx ldz,
                 const StedcOptions& opts) {
  require(n >= 0, "stedc: negative n");
  if (n == 0) return {};

  int workers = rt::resolve_num_workers(opts.num_workers);
  // Nested call (stedc itself running inside a pool worker): the outer
  // construct owns the machine, run serially.
  if (rt::ThreadPool::in_parallel_region()) workers = 1;
  // Level-3 kernels issued from this thread (root-merge GEMMs) get the same
  // budget — they must not fan out past what this call resolved to.
  const blas::ScopedKernelWorkers kernel_budget(workers);

  std::vector<Node> nodes;
  build_tree(nodes, 0, n, 0, d, e, std::max<idx>(opts.crossover, 4));

  int max_depth = 0;
  for (const Node& nd : nodes) max_depth = std::max(max_depth, nd.depth);
  std::vector<std::vector<idx>> by_depth(static_cast<size_t>(max_depth) + 1);
  for (idx id = 0; id < static_cast<idx>(nodes.size()); ++id)
    by_depth[static_cast<size_t>(nodes[static_cast<size_t>(id)].depth)]
        .push_back(id);

  auto is_leaf = [&](idx id) {
    return nodes[static_cast<size_t>(id)].left < 0;
  };
  auto solve_node = [&](idx id, int nw) {
    Node& nd = nodes[static_cast<size_t>(id)];
    if (is_leaf(id)) {
      obs::Span span("dc_leaf");
      solve_leaf(nd, d, e);
    } else {
      obs::Span span("dc_merge");
      merge_node(nd, nodes[static_cast<size_t>(nd.left)],
                 nodes[static_cast<size_t>(nd.right)], d, nw);
    }
  };

  // Level-synchronous bottom-up walk.  Within a level every node is
  // independent (disjoint d/e slices, own q): leaves always fan out across
  // workers; merge levels fan out while they are wide enough, and the last
  // few large merges run on the calling thread with intra-merge parallelism
  // (secular roots, Gu-Eisenstat vectors, row-split GEMM) instead.
  for (int depth = max_depth; depth >= 0; --depth) {
    const std::vector<idx>& level = by_depth[static_cast<size_t>(depth)];
    const auto nleaves = std::count_if(level.begin(), level.end(), is_leaf);
    const auto nmerges = static_cast<std::ptrdiff_t>(level.size()) - nleaves;
    const bool leaves_across = workers > 1 && nleaves > 1;
    const bool merges_across = workers > 1 && nmerges >= workers;
    std::vector<idx> fanned, serial;
    for (idx id : level)
      ((is_leaf(id) ? leaves_across : merges_across) ? fanned : serial)
          .push_back(id);

    // Larger subproblems first, so the longest items do not start last.
    std::stable_sort(fanned.begin(), fanned.end(), [&](idx a, idx b) {
      return nodes[static_cast<size_t>(a)].n > nodes[static_cast<size_t>(b)].n;
    });
    std::atomic<size_t> next{0};
    run_self_scheduled(
        static_cast<int>(std::min<size_t>(workers, fanned.size())), [&] {
          // Intra-merge constructs self-serialize on pool workers.
          for (size_t i = next++; i < fanned.size(); i = next++)
            solve_node(fanned[i], 1);
        });
    for (idx id : serial) solve_node(id, workers);
  }

  const Matrix& q = nodes[0].q;
  lapack::lacpy(n, n, q.data(), q.ld(), z, ldz);

  StedcStats stats;
  for (const Node& nd : nodes) {
    stats.merges += nd.stats.merges;
    stats.total_size += nd.stats.total_size;
    stats.deflated += nd.stats.deflated;
    stats.secular_solves += nd.stats.secular_solves;
  }
  return stats;
}

}  // namespace tseig::tridiag
