#include "twostage/sy2sb.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "blas/blas3.hpp"
#include "common/parallel.hpp"
#include "lapack/aux.hpp"
#include "lapack/householder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::twostage {
namespace {

/// Per-thread scratch: loop items run back-to-back on pool threads, so a
/// thread_local buffer amortizes the workspace allocation.
double* scratch(idx count) {
  thread_local std::vector<double> buf;
  if (static_cast<idx>(buf.size()) < count)
    buf.resize(static_cast<size_t>(count));
  return buf.data();
}

/// Smallest number of rows or columns in one loop item: with a narrow band
/// an item spans several nb-wide blocks, so tiny blocks do not turn into
/// one GEMM call each.
constexpr idx kMinItem = 64;

/// Runs f(b0, b1) over [first, last) cut into ranges of `group` blocks, on
/// up to `workers` pool bodies that take ranges from a shared counter in
/// increasing order.
template <class F>
void for_each_group(int workers, idx first, idx last, idx group, F&& f) {
  const idx items = (last - first + group - 1) / group;
  std::atomic<idx> next{0};
  const int bodies = static_cast<int>(std::min<idx>(workers, items));
  run_self_scheduled(bodies, [&](int) {
    for (idx it = next++; it < items; it = next++) {
      const idx b0 = first + it * group;
      f(b0, std::min(last, b0 + group));
    }
  });
}

/// The reduction's state.  The trailing matrix is held block column by
/// block column c (nb wide): the diagonal block d[c] with both triangles
/// kept equal, and the rows below it, l[c].  The l blocks are Q1's panel
/// storage, so once panel j is factored l[j] is its reflector block.
struct Reduction {
  Sy2sbResult& res;
  const idx n;
  const idx nb;
  const idx nt;     // block columns
  const idx group;  // blocks per loop item
  std::vector<double> dstore;
  std::vector<MatrixView> d;
  std::vector<MatrixView> l;
  /// Per panel: [V | W | V] on the trailing rows, so the update's two
  /// rank-k products are one k = 2nb GEMM of [V W] by [W V]^T.
  Matrix z;
  /// Per row item of the current panel: V_i^T X_i over its rows.
  std::vector<Matrix> s;
  Matrix u;  // T^T V^T X

  Reduction(Sy2sbResult& r, idx n_, idx nb_)
      : res(r),
        n(n_),
        nb(nb_),
        nt((n_ + nb_ - 1) / nb_),
        group(std::max<idx>(1, kMinItem / nb_)) {}

  idx width(idx c) const { return std::min(nb, n - c * nb); }
  /// First row of block c within panel j's trailing matrix.
  idx row(idx j, idx c) const { return (c - j - 1) * nb; }

  /// Copies the lower triangle of `a` into d and l.  Both stores are single
  /// allocations made here on the caller; the copy runs on the pool.
  void load(const double* a, idx lda, int workers) {
    Q1Factor& q1 = res.q1;
    q1.v.resize(static_cast<size_t>(q1.panel_offset(nt - 1)));
    dstore.resize(static_cast<size_t>(nb * n));
    for (idx c = 0; c < nt; ++c) {
      d.push_back({dstore.data() + c * nb * nb, width(c), width(c), width(c)});
      if (c + 1 < nt)
        l.push_back({q1.v.data() + q1.panel_offset(c), q1.rows(c), nb,
                     q1.rows(c)});
    }
    for_each_group(workers, 0, nt, group, [&](idx c0, idx c1) {
      for (idx c = c0; c < c1; ++c) {
        const double* ac = a + c * nb * (lda + 1);
        const MatrixView& dc = d[static_cast<size_t>(c)];
        for (idx jj = 0; jj < dc.n; ++jj)
          for (idx r = jj; r < dc.m; ++r)
            dc(r, jj) = dc(jj, r) = ac[r + jj * lda];
        if (c + 1 < nt) {
          const MatrixView& lc = l[static_cast<size_t>(c)];
          lapack::lacpy(lc.m, nb, ac + nb, lda, lc.a, lc.ld);
        }
      }
    });
  }

  /// Copies the (final) lower triangle of diagonal block c into the band.
  void diag_to_band(idx c) {
    const MatrixView& dc = d[static_cast<size_t>(c)];
    for (idx jj = 0; jj < dc.n; ++jj)
      for (idx r = jj; r < dc.m; ++r)
        res.band.at(c * nb + r, c * nb + jj) = dc(r, jj);
  }

  /// QR of panel j (the rows of block column j below the band): R joins the
  /// band; l[j] becomes the explicit reflectors and T joins Q1.
  void factor_panel(idx j) {
    obs::Span span("sy2sb_panel", static_cast<std::int32_t>(j));
    diag_to_band(j);
    const MatrixView& v = l[static_cast<size_t>(j)];
    const idx m = v.m;
    const idx k = std::min(m, nb);
    Matrix& t = res.q1.t[static_cast<size_t>(j)];
    t.reshape(k, k);
    Matrix r(k, nb);
    lapack::geqrt3(m, k, v.a, v.ld, r.data(), r.ld(), t.data(), t.ld());
    if (k < nb) {
      // Fewer rows than columns (the last panel of a ragged n): the
      // remaining columns are Q^T times themselves, all of them R.
      double* rest = v.a + k * v.ld;
      lapack::larfb(side::left, op::trans, m, nb - k, k, v.a, v.ld, t.data(),
                    t.ld(), rest, v.ld, scratch(k * (nb - k)));
      lapack::lacpy(k, nb - k, rest, v.ld, r.data() + k * r.ld(), r.ld());
    }
    const idx r0 = (j + 1) * nb;
    for (idx c = 0; c < nb; ++c)
      for (idx i = 0; i <= std::min(c, k - 1); ++i)
        res.band.at(r0 + i, j * nb + c) = r(i, c);
  }

  /// Rows of blocks [i0, i1) of panel j's products.  P = A22(rows, :) V
  /// gathers, for each row of block i, the stored blocks left of the
  /// diagonal (block column c ascending), the diagonal block, then the
  /// transposed blocks below it: one k-order per element, whatever the
  /// item bounds.  Then X = P T, V and X into z, and s = V^T X over the
  /// rows.
  void x_rows(idx j, idx i0, idx i1, Matrix& si) {
    obs::Span span("sy2sb_x", static_cast<std::int32_t>(i0));
    const MatrixView& v = l[static_cast<size_t>(j)];
    const Matrix& t = res.q1.t[static_cast<size_t>(j)];
    const idx k = t.cols();
    const idx ldv = v.ld;
    const idx rows = std::min(i1 * nb, n) - i0 * nb;
    double* p = scratch(rows * k);
    std::fill(p, p + rows * k, 0.0);
    for (idx c = j + 1; c < i1; ++c) {
      const double* vc = v.a + row(j, c);
      if (c < i0) {
        const MatrixView& lc = l[static_cast<size_t>(c)];
        gemm_acc(op::none, rows, k, nb, lc.a + (i0 - c - 1) * nb, lc.ld, vc,
                 ldv, p, rows);
        continue;
      }
      double* pc = p + (c - i0) * nb;
      const MatrixView& dc = d[static_cast<size_t>(c)];
      gemm_acc(op::none, dc.m, k, dc.n, dc.a, dc.ld, vc, ldv, pc, rows);
      if (c + 1 < i1) {
        const MatrixView& lc = l[static_cast<size_t>(c)];
        gemm_acc(op::none, std::min(i1 * nb, n) - (c + 1) * nb, k, nb, lc.a,
                 lc.ld, vc, ldv, pc + nb, rows);
      }
    }
    for (idx i = i0; i < i1 && i + 1 < nt; ++i) {
      const MatrixView& li = l[static_cast<size_t>(i)];
      gemm_acc(op::trans, nb, k, li.m, li.a, li.ld, v.a + row(j, i + 1), ldv,
               p + (i - i0) * nb, rows);
    }
    const idx ldz = z.ld();
    double* zr = z.data() + row(j, i0);
    const double* vr = v.a + row(j, i0);
    blas::gemm(op::none, op::none, rows, k, k, 1.0, p, rows, t.data(),
               t.ld(), 0.0, zr + k * ldz, ldz);
    lapack::lacpy(rows, k, vr, ldv, zr, ldz);
    lapack::lacpy(rows, k, vr, ldv, zr + 2 * k * ldz, ldz);
    blas::gemm(op::trans, op::none, k, k, rows, 1.0, vr, ldv, zr + k * ldz,
               ldz, 0.0, si.data(), si.ld());
  }

  /// C += op(A) B, the accumulation step of x_rows.
  static void gemm_acc(op ta, idx m, idx k, idx inner, const double* a,
                       idx lda, const double* b, idx ldb, double* c,
                       idx ldc) {
    blas::gemm(ta, op::none, m, k, inner, 1.0, a, lda, b, ldb, 1.0, c, ldc);
  }

  /// A22 -= V W^T + W V^T on block column c: its diagonal block (both
  /// triangles, then the lower one mirrored so they stay equal) and the
  /// rows below it.
  void update(idx j, idx c) {
    obs::Span span("sy2sb_update", static_cast<std::int32_t>(c));
    const idx k = res.q1.t[static_cast<size_t>(j)].cols();
    const idx bc = width(c);
    const idx ldz = z.ld();
    const double* zc = z.data() + row(j, c);
    const MatrixView& dc = d[static_cast<size_t>(c)];
    blas::gemm(op::none, op::trans, bc, bc, 2 * k, -1.0, zc, ldz,
               zc + k * ldz, ldz, 1.0, dc.a, dc.ld);
    for (idx jj = 0; jj < bc; ++jj)
      for (idx r = 0; r < jj; ++r) dc(r, jj) = dc(jj, r);
    if (c + 1 < nt) {
      const MatrixView& lc = l[static_cast<size_t>(c)];
      blas::gemm(op::none, op::trans, lc.m, bc, 2 * k, -1.0, zc + bc, ldz,
                 zc + k * ldz, ldz, 1.0, lc.a, lc.ld);
    }
  }

  /// X = A22 V T and W = X - 1/2 V (T^T (V^T X)) for panel j, into z.
  void products(idx j, int workers) {
    const MatrixView& v = l[static_cast<size_t>(j)];
    const Matrix& t = res.q1.t[static_cast<size_t>(j)];
    const idx k = t.cols();
    for_each_group(workers, j + 1, nt, group, [&](idx i0, idx i1) {
      x_rows(j, i0, i1, s[static_cast<size_t>((i0 - j - 1) / group)]);
    });
    // V^T X as the item sums in row order: a fixed k-order.
    Matrix& vtx = s[0];
    const idx items = (nt - j - 1 + group - 1) / group;
    for (idx it = 1; it < items; ++it) {
      const Matrix& si = s[static_cast<size_t>(it)];
      for (idx c = 0; c < k; ++c)
        for (idx r = 0; r < k; ++r) vtx(r, c) += si(r, c);
    }
    blas::gemm(op::trans, op::none, k, k, k, 1.0, t.data(), t.ld(),
               vtx.data(), vtx.ld(), 0.0, u.data(), u.ld());
    for_each_group(workers, j + 1, nt, group, [&](idx i0, idx i1) {
      const idx r = row(j, i0);
      blas::gemm(op::none, op::none, std::min(i1 * nb, n) - i0 * nb, k, k,
                 -0.5, v.a + r, v.ld, u.data(), u.ld(), 1.0,
                 z.data() + r + k * z.ld(), z.ld());
    });
  }
};

}  // namespace

int resolve_lookahead(int requested) {
  if (requested >= 0) return requested;
  static const int cached = [] {
    long v = 1;  // default depth: one panel ahead of the trailing update
    (void)rt::parse_env_long("TSEIG_LOOKAHEAD", 0, 1L << 20, &v);
    return static_cast<int>(v);
  }();
  return cached;
}

Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb, int num_workers) {
  Sy2sbOptions opts;
  opts.num_workers = num_workers;
  return sy2sb(n, a, lda, nb, opts);
}

Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  const Sy2sbOptions& opts) {
  // nb >= n leaves a single block column: the "band" is the full lower
  // triangle and Q1 is the identity (no panels to reduce).
  require(n >= 1 && nb >= 1, "sy2sb: bad dimensions");
  const int workers = rt::resolve_num_workers(opts.num_workers);
  const bool ahead = resolve_lookahead(opts.lookahead) >= 1;

  Sy2sbResult result;
  result.band = BandMatrix(n, std::min<idx>(nb, n - 1));
  Reduction red(result, n, nb);
  const idx nt = red.nt;
  const idx panels = nt - 1;
  result.q1.n = n;
  result.q1.nb = nb;
  result.q1.t.resize(static_cast<size_t>(panels));
  red.load(a, lda, workers);
  if (panels > 0) {
    red.z.reshape(n - nb, 3 * nb);
    red.s.resize(static_cast<size_t>((panels + red.group - 1) / red.group));
    for (Matrix& si : red.s) si.reshape(nb, nb);
    red.u.reshape(nb, nb);
    red.factor_panel(0);
  }
  for (idx j = 0; j < panels; ++j) {
    red.products(j, workers);
    // Look-ahead: body 0 brings block column j + 1 up to date and factors
    // panel j + 1 while the other bodies update the rest.
    const bool next_panel = j + 1 < panels;
    const bool overlap = ahead && next_panel;
    const idx first = j + 1 + (overlap ? 1 : 0);
    const idx items = (nt - first + red.group - 1) / red.group;
    std::atomic<idx> next{0};
    const int bodies = static_cast<int>(
        std::min<idx>(workers, std::max<idx>(1, items + (overlap ? 1 : 0))));
    run_self_scheduled(bodies, [&](int body) {
      if (overlap && body == 0) {
        red.update(j, j + 1);
        red.factor_panel(j + 1);
      }
      for (idx it = next++; it < items; it = next++) {
        const idx c0 = first + it * red.group;
        for (idx c = c0; c < std::min(nt, c0 + red.group); ++c)
          red.update(j, c);
      }
    });
    if (next_panel && !overlap) red.factor_panel(j + 1);
  }
  red.diag_to_band(nt - 1);
  return result;
}

void apply_q1(op trans, const Q1Factor& q1, double* g, idx ldg, idx ncols,
              int num_workers) {
  // Q1 G = H_0 (H_1 (... H_last G)); Q1^T G = H_last^T (... (H_0^T G)).
  const idx panels = static_cast<idx>(q1.t.size());
  std::vector<lapack::BlockReflector> list;
  list.reserve(static_cast<size_t>(panels));
  for (idx step = 0; step < panels; ++step) {
    const idx j = trans == op::none ? panels - 1 - step : step;
    const idx m = q1.rows(j);
    const Matrix& t = q1.t[static_cast<size_t>(j)];
    list.push_back({q1.n - m, m, t.cols(), q1.v.data() + q1.panel_offset(j),
                    m, t.data(), t.ld()});
  }
  lapack::apply_block_reflectors(trans, list, g, ldg, ncols,
                                 rt::resolve_num_workers(num_workers),
                                 "q1_cols");
}

}  // namespace tseig::twostage
