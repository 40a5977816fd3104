#include "tridiag/stedc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/lanes.hpp"
#include "common/parallel.hpp"
#include "lapack/aux.hpp"
#include "lapack/steqr.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::tridiag {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Secular roots / eigenvector columns per parallel_for chunk (each
// iteration is O(k) work).
constexpr idx kSecularGrain = 8;

// Gu-Eisenstat rows per block (the inner, vectorised loop of the product).
constexpr idx kRowBlock = 64;

// Evaluation budget per secular root: a safety net, as the model steps
// converge in about five.
constexpr idx kMaxSecularEvals = 100;

// Partial sums per side of the secular function, in the lane order of
// common/lanes.hpp: pole i always goes to lane i % kLanes and the lanes
// combine in lane_total's fixed tree, so the sums vectorise without their
// result depending on the buffer alignment.  The pole arrays are padded to
// a multiple of kLanes with (delta, zsq) = (+inf, 0), which add exact zeros,
// so no pass has a scalar tail.

/// Root of the secular equation f(x) = 1 + sum_i zsq[i]/(delta[i] - x) in
/// interval j, represented as delta[anchor] + tau for accuracy.
struct SecularRoot {
  idx anchor;
  double tau;
  idx evals;  // evaluations of f: the midpoint plus the model steps
};

/// f at x = delta[a] + tau, split into psi (poles <= j) and phi (poles > j)
/// with their derivatives.
struct SecularEval {
  double psi, dpsi;
  double phi, dphi;
  double f() const { return (1.0 + psi) + phi; }
  /// xLAED4's stopping test: f is zero to within its rounding error.
  bool converged(double tau) const {
    return std::fabs(f()) <=
           8.0 * kEps * ((1.0 + (phi - psi)) + std::fabs(tau) * (dpsi + dphi));
  }
};

/// One pass over the kpad padded poles: the terms zsq[i] / (delta[i] - x)
/// and their derivatives go elementwise into `terms` (2 * kpad scratch),
/// then into the lanes of their side.
SecularEval secular_eval(idx kpad, const double* delta, const double* zsq,
                         idx j, idx a, double tau, double* terms) {
  const double da = delta[a];
  double* r = terms;
  double* dr = terms + kpad;
  for (idx i = 0; i < kpad; ++i) {
    const double inv = 1.0 / ((delta[i] - da) - tau);
    r[i] = zsq[i] * inv;
    dr[i] = r[i] * inv;
  }
  double psi[kLanes] = {}, dpsi[kLanes] = {}, phi[kLanes] = {},
         dphi[kLanes] = {};
  // Whole chunks left of the split, the chunk holding it, the rest.
  const idx split = (j + 1) / kLanes * kLanes;
  for (idx i = 0; i < split; i += kLanes) {
    for (idx l = 0; l < kLanes; ++l) {
      psi[l] += r[i + l];
      dpsi[l] += dr[i + l];
    }
  }
  if (split < kpad) {
    for (idx l = 0; l < kLanes; ++l) {
      const bool left = split + l <= j;
      psi[l] += left ? r[split + l] : 0.0;
      dpsi[l] += left ? dr[split + l] : 0.0;
      phi[l] += left ? 0.0 : r[split + l];
      dphi[l] += left ? 0.0 : dr[split + l];
    }
  }
  for (idx i = split + kLanes; i < kpad; i += kLanes) {
    for (idx l = 0; l < kLanes; ++l) {
      phi[l] += r[i + l];
      dphi[l] += dr[i + l];
    }
  }
  return {lane_total(psi), lane_total(dpsi), lane_total(phi),
          lane_total(dphi)};
}

/// Step from x to the root of the two-pole ("middle way", LAWN 89) model
/// psi ~ A + B/(delta[j] - y), phi ~ C + D/(delta[j+1] - y), both matched in
/// value and slope at x.  dl = delta[j] - x, dr = delta[j+1] - x.  The last
/// interval has no pole on its right and models psi alone.
double model_step(const SecularEval& ev, double dl, double dr, bool last) {
  const double w = ev.f();
  if (last) return dl + dl * dl * ev.dpsi / (w - dl * ev.dpsi);
  const double c = w - dl * ev.dpsi - dr * ev.dphi;
  const double a = (dl + dr) * w - dl * dr * (ev.dpsi + ev.dphi);
  const double b = dl * dr * w;
  if (c == 0.0) return b / a;
  const double disc = std::sqrt(std::fabs(a * a - 4.0 * b * c));
  return a <= 0.0 ? (a - disc) / (2.0 * c) : 2.0 * b / (a + disc);
}

/// Root in interval j: (delta[j], delta[j+1]) for j < k-1, (delta[k-1],
/// delta[k-1] + ||z||^2] for j = k-1.  f is strictly increasing on each
/// interval.  One midpoint evaluation picks the anchor pole and a half
/// bracket, then model steps run until the stopping test; a step that
/// leaves the bracket is replaced by bisection.  Pure function of its
/// arguments -- the merge loop calls it concurrently for distinct j, each
/// call with its own `terms` (2 * kpad scratch).  The k poles are padded to
/// kpad (see kLanes).
SecularRoot solve_secular(idx k, idx kpad, const double* delta,
                          const double* zsq, idx j, double* terms) {
  if (k == 1) return {0, zsq[0], 0};
  const bool last = j == k - 1;

  idx a;
  double lo, hi, tau;  // bracket and iterate in tau-space relative to delta[a]
  SecularEval ev;
  if (last) {
    double total = 0.0;
    for (idx i = 0; i < k; ++i) total += zsq[i];
    a = k - 1;
    tau = 0.5 * total;
    ev = secular_eval(kpad, delta, zsq, j, a, tau, terms);
    lo = ev.f() >= 0.0 ? 0.0 : tau;
    hi = ev.f() >= 0.0 ? tau : total;
  } else {
    const double half = 0.5 * (delta[j + 1] - delta[j]);
    ev = secular_eval(kpad, delta, zsq, j, j, half, terms);
    if (ev.f() >= 0.0) {
      a = j;  // root in the left half
      lo = 0.0;
      hi = tau = half;
    } else {
      a = j + 1;  // root in the right half
      lo = tau = -half;
      hi = 0.0;
    }
  }

  idx evals = 1;
  while (!ev.converged(tau) && evals < kMaxSecularEvals) {
    const double dl = (delta[j] - delta[a]) - tau;
    const double dr = last ? 0.0 : (delta[j + 1] - delta[a]) - tau;
    double next = tau + model_step(ev, dl, dr, last);
    if (!(next > lo && next < hi)) {
      next = 0.5 * (lo + hi);
      if (!(next > lo && next < hi)) break;  // bracket exhausted
    }
    tau = next;
    ev = secular_eval(kpad, delta, zsq, j, a, tau, terms);
    ++evals;
    (ev.f() > 0.0 ? hi : lo) = tau;
  }
  return {a, tau, evals};
}

/// Per-call storage.  Every node of the merge tree owns the diagonal block
/// [off, off+n)^2 of the n-by-n basis z, the entries [off, off+n) of d and
/// perm, and the columns [off, off+n) of the n-row scratch, so nodes of one
/// level never share memory.  Off-diagonal blocks of z stay zero until the
/// merge that owns them.
struct Workspace {
  idx n;
  double* z;
  idx ldz;
  double* d;              // eigenvalues of each node, in its column order
  std::vector<idx> perm;  // node-local ascending order -> block column
  // n x (n + 1), uninitialised: packed basis columns, then the deflated
  // columns or the rows of U one GEMM needs (see merge_node).
  std::unique_ptr<double[]> scratch;
  double* panel(idx col) { return scratch.get() + col * n; }
};

/// One node of the flattened D&C recursion: the subproblem (d, e)[off ..
/// off+n).  The rank-one tears (d[m-1], d[m] -= |beta|) are applied while
/// the tree is built, before any node is solved, so sibling subtrees touch
/// disjoint slices of d and e.
struct Node {
  idx off = 0;
  idx n = 0;
  idx left = -1;
  idx right = -1;
  int depth = 0;
  double absb = 0.0;  // |beta| of this node's rank-one correction
  double sgn = 1.0;   // sign(beta)
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

/// Leaf solve: QL/QR iteration on the node's identity block of z.
void solve_leaf(const Node& nd, Workspace& ws, double* e) {
  lapack::steqr(nd.n, ws.d + nd.off, e + nd.off,
                ws.z + nd.off + nd.off * ws.ldz, ws.ldz, nd.n);
  idx* perm = ws.perm.data() + nd.off;
  std::iota(perm, perm + nd.n, idx{0});
}

/// Merge (xLAED1-3 roles): combines the children's eigensystems, held in the
/// node's block of z, through the rank-one correction.  On exit the block
/// holds the secular eigenvectors in columns [0, k) and the deflated ones in
/// [k, n), d their eigenvalues and perm the ascending order.  With nw > 1
/// the independent secular roots, Gu-Eisenstat rows and eigenvector columns
/// run under parallel_for and the GEMMs split their row blocks under the
/// caller's kernel budget; the operations per index are identical to the
/// serial path, so the results agree to the last bit.
StedcStats merge_node(const Node& nd, idx m, Workspace& ws, int nw) {
  const idx n = nd.n;
  const idx ldz = ws.ldz;
  double* q = ws.z + nd.off + nd.off * ldz;
  double* d = ws.d + nd.off;
  idx* perm = ws.perm.data() + nd.off;

  // Merge the children's ascending orders (left first on ties).
  std::vector<idx> cols(static_cast<size_t>(n));
  {
    idx l = 0, r = m, o = 0;
    while (l < m && r < n) {
      if (d[perm[r] + m] < d[perm[l]]) {
        cols[static_cast<size_t>(o++)] = perm[r++] + m;
      } else {
        cols[static_cast<size_t>(o++)] = perm[l++];
      }
    }
    while (l < m) cols[static_cast<size_t>(o++)] = perm[l++];
    while (r < n) cols[static_cast<size_t>(o++)] = perm[r++] + m;
  }
  StedcStats local;
  if (nd.absb == 0.0) {
    // No coupling: the block is already diagonal, only the order merges.
    std::copy(cols.begin(), cols.end(), perm);
    return local;
  }
  local.merges = 1;
  local.total_size = n;

  // z = sqrt(rho) * [last row of Q1 ; sgn * first row of Q2], in merged
  // order.  Column class: 1 = nonzero in rows [0, m) only, 3 = rows [m, n)
  // only, 2 = dense (mixed across the halves by a deflation rotation).
  std::vector<double> dd(static_cast<size_t>(n)), zz(static_cast<size_t>(n));
  std::vector<int> cls(static_cast<size_t>(n));
  const double srho = std::sqrt(nd.absb);
  for (idx i = 0; i < n; ++i) {
    const idx c = cols[static_cast<size_t>(i)];
    dd[i] = d[c];
    zz[i] = c < m ? srho * q[(m - 1) + c * ldz]
                  : srho * nd.sgn * q[m + c * ldz];
    cls[i] = c < m ? 1 : 3;
  }

  double zsum = 0.0;
  double dmax = 0.0;
  for (idx i = 0; i < n; ++i) {
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
  for (idx i = 0; i < n; ++i) {
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
        // Only the rows either column can be nonzero in are touched.
        const idx r0 = cls[p] == 3 && cls[i] == 3 ? m : 0;
        const idx r1 = cls[p] == 1 && cls[i] == 1 ? m : n;
        double* cp = q + r0 + cols[static_cast<size_t>(p)] * ldz;
        double* ci = q + r0 + cols[static_cast<size_t>(i)] * ldz;
        blas::rot(r1 - r0, ci, 1, cp, 1, c, s);
        if (cls[p] != cls[i]) cls[i] = 2;
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
  local.deflated = n - k;
  local.secular_solves = k;

  // --- Pack the basis into the node's scratch columns: the kept columns by
  // class (rows [0, m) of classes 1 and 2, then rows [m, n) of classes 2
  // and 3), then the deflated columns, which go straight back to block
  // columns [k, n).  At most n * k + n * (n - k) entries.  Every kept
  // column of class 1 or 2 holds at least one Q1 column of its own (a
  // rotation moves the deflated column's share into the kept one), so
  // n12 <= m, and likewise n23 <= n - m. ---
  idx count[4] = {0, 0, 0, 0};
  for (idx j : kept) ++count[cls[static_cast<size_t>(j)]];
  const idx c1 = count[1];
  const idx n12 = count[1] + count[2];
  const idx n23 = count[2] + count[3];
  std::vector<idx> slot(static_cast<size_t>(k));  // row of U for kept root j
  {
    idx next[4] = {0, 0, c1, n12};
    for (idx j = 0; j < k; ++j)
      slot[static_cast<size_t>(j)] =
          next[cls[static_cast<size_t>(kept[static_cast<size_t>(j)])]]++;
  }
  double* upper = ws.panel(nd.off);       // m x n12
  double* lower = upper + m * n12;        // (n - m) x n23
  double* dcols = lower + (n - m) * n23;  // n x (n - k), then U rows
  for (idx j = 0; j < k; ++j) {
    const auto kj = static_cast<size_t>(kept[static_cast<size_t>(j)]);
    const double* src = q + cols[kj] * ldz;
    const idx s = slot[static_cast<size_t>(j)];
    if (cls[kj] != 3) lapack::lacpy(m, 1, src, ldz, upper + s * m, m);
    if (cls[kj] != 1)
      lapack::lacpy(n - m, 1, src + m, ldz, lower + (s - c1) * (n - m), n - m);
  }
  for (idx t = 0; t < n - k; ++t) {
    const idx c = cols[static_cast<size_t>(defl[static_cast<size_t>(t)])];
    lapack::lacpy(n, 1, q + c * ldz, ldz, dcols + t * n, n);
  }
  lapack::lacpy(n, n - k, dcols, n, q + k * ldz, ldz);

  // --- Secular equation + Gu-Eisenstat vectors (xLAED3/4 roles). ---
  if (k > 0) {
    const idx kpad = (k + kLanes - 1) / kLanes * kLanes;
    std::vector<double> delta(static_cast<size_t>(kpad),
                              std::numeric_limits<double>::infinity()),
        zsq(static_cast<size_t>(kpad), 0.0);
    for (idx j = 0; j < k; ++j) {
      const auto kj = static_cast<size_t>(kept[static_cast<size_t>(j)]);
      delta[static_cast<size_t>(j)] = dd[kj];
      zsq[static_cast<size_t>(j)] = zz[kj] * zz[kj];
    }
    // Every root is an independent iteration on read-only data; each
    // chunk of roots shares one evaluation scratch.
    std::vector<SecularRoot> roots(static_cast<size_t>(k));
    const idx nchunks = (k + kSecularGrain - 1) / kSecularGrain;
    parallel_for(nw, 0, nchunks, 1, [&](idx c) {
      std::vector<double> terms(static_cast<size_t>(2 * kpad));
      for (idx j = c * kSecularGrain; j < std::min(k, (c + 1) * kSecularGrain);
           ++j)
        roots[static_cast<size_t>(j)] =
            solve_secular(k, kpad, delta.data(), zsq.data(), j, terms.data());
    });

    // Gu-Eisenstat recomputed z: zhat_i^2 = (lam_i - delta_i) *
    //   prod_{j != i} (lam_j - delta_i) / (delta_j - delta_i),
    // every lam_j - delta_i computed through lam_j's anchor for accuracy.
    // Rows in blocks with the roots outer: every row's product still runs
    // over j in order, and the inner loop over a block's rows vectorises.
    std::vector<double> zhat(static_cast<size_t>(k));
    parallel_for(nw, 0, (k + kRowBlock - 1) / kRowBlock, 1, [&](idx b) {
      const idx i0 = b * kRowBlock;
      const idx i1 = std::min(k, i0 + kRowBlock);
      double* w = zhat.data();
      for (idx i = i0; i < i1; ++i) {
        const SecularRoot& r = roots[static_cast<size_t>(i)];
        w[i] = (delta[static_cast<size_t>(r.anchor)] -
                delta[static_cast<size_t>(i)]) +
               r.tau;
      }
      for (idx j = 0; j < k; ++j) {
        const SecularRoot& r = roots[static_cast<size_t>(j)];
        const double da = delta[static_cast<size_t>(r.anchor)];
        const double dj = delta[static_cast<size_t>(j)];
        auto rows = [&](idx lo, idx hi) {
          for (idx i = lo; i < hi; ++i)
            w[i] *= ((da - delta[static_cast<size_t>(i)]) + r.tau) /
                    (dj - delta[static_cast<size_t>(i)]);
        };
        rows(i0, std::min(i1, j));
        rows(std::max(i0, j + 1), i1);
      }
      for (idx i = i0; i < i1; ++i) {
        const double zi = zz[static_cast<size_t>(kept[static_cast<size_t>(i)])];
        w[i] = std::copysign(std::sqrt(std::max(w[i], 0.0)), zi);
      }
    });

    // Eigenvectors U of the rank-one system, one independent column each,
    // into block columns [0, k) (free since the packing), with the rows in
    // class order: (delta, zhat) permuted once so that a column is one
    // contiguous elementwise pass.
    std::vector<double> dcls(static_cast<size_t>(k)),
        zcls(static_cast<size_t>(k));
    for (idx i = 0; i < k; ++i) {
      const auto si = static_cast<size_t>(slot[static_cast<size_t>(i)]);
      dcls[si] = delta[static_cast<size_t>(i)];
      zcls[si] = zhat[static_cast<size_t>(i)];
    }
    parallel_for(nw, 0, k, kSecularGrain, [&](idx j) {
      const SecularRoot& r = roots[static_cast<size_t>(j)];
      const double da = delta[static_cast<size_t>(r.anchor)];
      double* uj = q + j * ldz;
      for (idx i = 0; i < k; ++i)
        uj[i] = zcls[static_cast<size_t>(i)] /
                -((da - dcls[static_cast<size_t>(i)]) + r.tau);
      double sq[kLanes] = {};
      idx i = 0;
      for (; i + kLanes <= k; i += kLanes)
        for (idx l = 0; l < kLanes; ++l) sq[l] += uj[i + l] * uj[i + l];
      for (idx l = 0; i < k; ++i, ++l) sq[l] += uj[i] * uj[i];
      const double scale = 1.0 / std::sqrt(lane_total(sq));
      for (i = 0; i < k; ++i) uj[i] *= scale;
    });

    // Back-multiply by column class (xLAED3): rows [m, n) see only classes
    // 2 and 3, rows [0, m) only classes 1 and 2.  Each GEMM reads its rows
    // of U from a copy after the packed columns and writes G over U; the
    // lower one goes first, as it overwrites U's rows from m on, and the
    // upper one reads rows below n12 <= m only.
    double* urows = dcols;
    if (n23 > 0) {
      lapack::lacpy(n23, k, q + c1, ldz, urows, n23);
      blas::gemm(op::none, op::none, n - m, k, n23, 1.0, lower, n - m, urows,
                 n23, 0.0, q + m, ldz);
    } else {
      lapack::laset(n - m, k, 0.0, 0.0, q + m, ldz);
    }
    if (n12 > 0) {
      lapack::lacpy(n12, k, q, ldz, urows, n12);
      blas::gemm(op::none, op::none, m, k, n12, 1.0, upper, m, urows, n12,
                 0.0, q, ldz);
    } else {
      lapack::laset(m, k, 0.0, 0.0, q, ldz);
    }
    for (idx j = 0; j < k; ++j) {
      const SecularRoot& r = roots[static_cast<size_t>(j)];
      d[j] = delta[static_cast<size_t>(r.anchor)] + r.tau;
      local.secular_iterations += r.evals;
    }
  }
  for (idx t = 0; t < n - k; ++t) d[k + t] = defl_val[static_cast<size_t>(t)];

  // Ascending order; ties keep secular roots ahead of deflated values.
  std::iota(perm, perm + n, idx{0});
  std::stable_sort(perm, perm + n, [&](idx a, idx b) { return d[a] < d[b]; });
  return local;
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

  lapack::laset(n, n, 0.0, 1.0, z, ldz);
  Workspace ws{n, z, ldz, d, std::vector<idx>(static_cast<size_t>(n)), {}};
  if (nodes.size() > 1)
    ws.scratch = std::make_unique_for_overwrite<double[]>(
        static_cast<size_t>(n * (n + 1)));

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
      solve_leaf(nd, ws, e);
    } else {
      obs::Span span("dc_merge");
      nd.stats = merge_node(nd, nodes[static_cast<size_t>(nd.left)].n, ws, nw);
    }
  };

  // Level-synchronous bottom-up walk.  Within a level every node is
  // independent (disjoint blocks of the workspace): leaves always fan out
  // across workers; merge levels fan out while they are wide enough, and the
  // last few large merges run on the calling thread with intra-merge
  // parallelism (secular roots, Gu-Eisenstat vectors, row-split GEMMs)
  // instead.
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
        static_cast<int>(std::min<size_t>(workers, fanned.size())), [&](int) {
          // Intra-merge constructs self-serialize on pool workers.
          for (size_t i = next++; i < fanned.size(); i = next++)
            solve_node(fanned[i], 1);
        });
    for (idx id : serial) solve_node(id, workers);
  }

  // The root's columns into ascending order, through the scratch.
  if (nodes.size() > 1) {
    const idx* perm = ws.perm.data();
    std::vector<double> dsorted(static_cast<size_t>(n));
    for (idx j = 0; j < n; ++j) {
      lapack::lacpy(n, 1, z + perm[j] * ldz, ldz, ws.panel(j), n);
      dsorted[static_cast<size_t>(j)] = d[perm[j]];
    }
    lapack::lacpy(n, n, ws.panel(0), n, z, ldz);
    std::copy(dsorted.begin(), dsorted.end(), d);
  }

  StedcStats stats;
  for (const Node& nd : nodes) {
    stats.merges += nd.stats.merges;
    stats.total_size += nd.stats.total_size;
    stats.deflated += nd.stats.deflated;
    stats.secular_solves += nd.stats.secular_solves;
    stats.secular_iterations += nd.stats.secular_iterations;
  }
  return stats;
}

}  // namespace tseig::tridiag
