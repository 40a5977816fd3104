#include "twostage/sy2sb.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/parallel.hpp"
#include "lapack/aux.hpp"
#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/validate.hpp"
#include "twostage/tile_kernels.hpp"

namespace tseig::twostage {
namespace {

// Region-key tags for the runtime's data translation layer.
constexpr std::uint32_t kTagTile = 1;   // tiles of the working matrix
constexpr std::uint32_t kTagVg = 2;     // GEQRT reflector blocks
constexpr std::uint32_t kTagVts = 3;    // TSQRT reflector blocks

std::uint64_t tile_key(idx i, idx j) {
  return rt::region_key(kTagTile, static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j));
}

/// Per-worker scratch: tasks run back-to-back on pool threads, so a
/// thread_local buffer amortizes the workspace allocation that would
/// otherwise dominate small-tile kernels.
double* scratch(idx count) {
  thread_local std::vector<double> buf;
  if (static_cast<idx>(buf.size()) < count)
    buf.resize(static_cast<size_t>(count));
  return buf.data();
}

/// Whole-buffer footprint of a Matrix (reflector/T-factor blocks are owned
/// allocations, so the allocation is the region).
void add_matrix(rt::RegionExtent& e, const Matrix& m) {
  e.add(m.data(), static_cast<std::size_t>(m.ld() * m.cols()) *
                      sizeof(double));
}

/// Region resolvers of the stage-1 reduction for the GraphValidator's
/// static audit: tile keys map onto the tile's contiguous block, reflector
/// keys onto the (V, T) buffers of the panel / TS pair.
void register_sy2sb_regions(rt::RegionMap& map, SymTileMatrix& tiles,
                            const Q1Factor& q1) {
  map.add_resolver(kTagTile, [&tiles](std::uint32_t i, std::uint32_t j) {
    rt::RegionExtent e;
    e.add(tiles.tile(static_cast<idx>(i), static_cast<idx>(j)),
          static_cast<std::size_t>(tiles.rows_of(static_cast<idx>(i)) *
                                   tiles.cols_of(static_cast<idx>(j))) *
              sizeof(double));
    return e;
  });
  map.add_resolver(kTagVg, [&q1](std::uint32_t j, std::uint32_t) {
    rt::RegionExtent e;
    add_matrix(e, q1.vg[j]);
    add_matrix(e, q1.tg[j]);
    return e;
  });
  map.add_resolver(kTagVts, [&q1](std::uint32_t i, std::uint32_t j) {
    const auto tsi = static_cast<size_t>(
        q1.ts_index(static_cast<idx>(i), static_cast<idx>(j)));
    rt::RegionExtent e;
    add_matrix(e, q1.vts[tsi]);
    add_matrix(e, q1.tts[tsi]);
    return e;
  });
}

/// op(Q_j)'s GEQRT block on rows of tile j+1 of the column block gc.
void apply_q1_panel(op trans, const Q1Factor& q1, idx j, double* gc, idx ldg,
                    idx nc, double* work) {
  const Matrix& v = q1.vg[static_cast<size_t>(j)];
  const Matrix& t = q1.tg[static_cast<size_t>(j)];
  ormqr_tile(side::left, trans, q1.rows_of(j + 1), nc, q1.kk(j), v.data(),
             v.ld(), t.data(), t.ld(), gc + (j + 1) * q1.nb, ldg, work);
}

/// op(Q_j)'s TSQRT block coupling tiles j+1 and i of the column block gc.
void apply_q1_coupled(op trans, const Q1Factor& q1, idx i, idx j, double* gc,
                      idx ldg, idx nc, double* work) {
  const idx tsi = q1.ts_index(i, j);
  const Matrix& v = q1.vts[static_cast<size_t>(tsi)];
  const Matrix& t = q1.tts[static_cast<size_t>(tsi)];
  tsmqr_left(trans, nc, q1.nb, q1.rows_of(i), v.data(), v.ld(), t.data(),
             t.ld(), gc + (j + 1) * q1.nb, ldg, gc + i * q1.nb, ldg, work);
}

/// Applies the whole factored op(Q1) to the nc columns of G that start at
/// column c0, in the order the reduction produced the reflectors:
///   op::none : Q1 G   = Q_0 (Q_1 (... Q_{nt-2} G)),
///   op::trans: Q1^T G = Q_{nt-2}^T (... (Q_0^T G)),
/// where Q_j is panel j's GEQRT block times the TSQRT blocks below it.
/// Named functions, not lambdas: a column block is not a task, so it
/// declares no region touches.
void apply_q1_block(op trans, const Q1Factor& q1, double* g, idx ldg, idx c0,
                    idx nc) {
  const idx nt = q1.nt;
  double* gc = g + c0 * ldg;
  double* work = scratch(q1.nb * nc);
  if (trans == op::none) {
    for (idx j = nt - 2; j >= 0; --j) {
      for (idx i = nt - 1; i >= j + 2; --i)
        apply_q1_coupled(trans, q1, i, j, gc, ldg, nc, work);
      apply_q1_panel(trans, q1, j, gc, ldg, nc, work);
    }
  } else {
    for (idx j = 0; j + 1 < nt; ++j) {
      apply_q1_panel(trans, q1, j, gc, ldg, nc, work);
      for (idx i = j + 2; i < nt; ++i)
        apply_q1_coupled(trans, q1, i, j, gc, ldg, nc, work);
    }
  }
}

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

idx Q1Factor::kk(idx j) const { return std::min(rows_of(j + 1), nb); }

idx Q1Factor::ts_index(idx i, idx j) const {
  // Panels 0..j-1 contribute (nt - jj - 2) TS blocks each.
  idx off = 0;
  for (idx jj = 0; jj < j; ++jj) off += std::max<idx>(0, nt - jj - 2);
  return off + (i - j - 2);
}

Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb, int num_workers) {
  Sy2sbOptions opts;
  opts.num_workers = num_workers;
  return sy2sb(n, a, lda, nb, opts);
}

Sy2sbResult sy2sb(idx n, const double* a, idx lda, idx nb,
                  const Sy2sbOptions& opts) {
  // nb >= n degenerates to a single tile: the "band" is the full lower
  // triangle and Q1 is the identity (no panels to reduce).
  require(n >= 1 && nb >= 1, "sy2sb: bad dimensions");
  const int num_workers = rt::resolve_num_workers(opts.num_workers);
  const int lookahead = resolve_lookahead(opts.lookahead);

  SymTileMatrix tiles(n, nb);
  tiles.from_dense(a, lda);
  const idx nt = tiles.nt();

  Sy2sbResult result;
  Q1Factor& q1 = result.q1;
  q1.n = n;
  q1.nb = nb;
  q1.nt = nt;
  q1.vg.resize(static_cast<size_t>(std::max<idx>(0, nt - 1)));
  q1.tg.resize(static_cast<size_t>(std::max<idx>(0, nt - 1)));
  idx nts = 0;
  for (idx j = 0; j + 2 < nt; ++j) nts += nt - j - 2;
  q1.vts.resize(static_cast<size_t>(nts));
  q1.tts.resize(static_cast<size_t>(nts));

  rt::TaskGraph graph;
  const bool parallel = num_workers > 1;
  rt::RegionMap region_map;
  if (parallel && graph.validation_enabled()) {
    register_sy2sb_regions(region_map, tiles, q1);
    graph.set_region_map(&region_map);
  }
  // In sequential mode run each "task" immediately; in parallel mode submit
  // to the hazard-tracking graph.  Both paths execute the identical kernel
  // sequence, which tests exploit.
  auto run = [&](std::function<void()> fn,
                 const std::vector<rt::Access>& accesses, int priority,
                 const char* label) -> idx {
    if (parallel) {
      rt::TaskGraph::Options topts;
      topts.priority = priority;
      topts.label = label;
      return graph.submit(std::move(fn), accesses, topts);
    }
    // Sequential path: same kernels, same order; the span keeps the
    // serial timeline comparable with the parallel one.
    obs::Span span(label);
    fn();
    return -1;
  };

  // Look-ahead bookkeeping: every task id of panel j, so the chain head of
  // panel j + lookahead + 1 can be gated on the panel's completion.  The
  // hazard edges alone already let a panel factorize as soon as its own
  // columns are up to date (the maximal, unbounded look-ahead); the gate
  // edges are what *bound* the pipeline depth, keeping the working set and
  // the ready queue proportional to lookahead + 1 panels.  Gates only add
  // ordering on top of the hazards, so every schedule stays a valid
  // topological order of the same kernel sequence (bitwise contract).
  std::vector<std::vector<idx>> panel_tasks(
      static_cast<size_t>(std::max<idx>(0, nt - 1)));

  for (idx j = 0; j + 1 < nt; ++j) {
    auto panel_task = [&, j](idx id) {
      if (parallel) panel_tasks[static_cast<size_t>(j)].push_back(id);
      return id;
    };
    const idx m1 = tiles.rows_of(j + 1);
    const idx kj = std::min(m1, nb);
    Matrix& vgj = q1.vg[static_cast<size_t>(j)];
    Matrix& tgj = q1.tg[static_cast<size_t>(j)];
    vgj.reshape(m1, kj);
    tgj.reshape(kj, kj);

    // --- Panel: GEQRT on tile (j+1, j). ---
    const idx chain_head = panel_task(run(
        [&tiles, &vgj, &tgj, j, m1, kj, nb] {
          rt::touch_write(tile_key(j + 1, j));
          rt::touch_write(
              rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0));
          double* work = scratch(nb);
          geqrt(m1, nb, tiles.tile(j + 1, j), m1, vgj.data(), vgj.ld(),
                tgj.data(), tgj.ld(), work);
        },
        {rt::wr(tile_key(j + 1, j)),
         rt::wr(rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0))},
        /*priority=*/3, "geqrt"));
    // Depth gate: the whole factorization chain of panel j (this GEQRT and
    // its TSQRT tree, which the tile (j+1, j) hazards serialize behind it)
    // may only start once panel j - lookahead - 1 has completely finished.
    if (parallel && j >= static_cast<idx>(lookahead) + 1) {
      const auto& gate =
          panel_tasks[static_cast<size_t>(j - lookahead - 1)];
      for (idx before : gate) graph.add_dependency(before, chain_head);
    }

    // --- Two-sided application of the GEQRT reflector. ---
    panel_task(run(
        [&tiles, &vgj, &tgj, j, m1, kj] {
          rt::touch_read(
              rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0));
          rt::touch_write(tile_key(j + 1, j + 1));
          double* work = scratch(m1 * m1 + m1 * kj);
          syrfb(m1, kj, vgj.data(), vgj.ld(), tgj.data(), tgj.ld(),
                tiles.tile(j + 1, j + 1), m1, work);
        },
        {rt::rd(rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0)),
         rt::wr(tile_key(j + 1, j + 1))},
        /*priority=*/2, "syrfb"));
    for (idx k = j + 2; k < nt; ++k) {
      panel_task(run(
          [&tiles, &vgj, &tgj, j, k, m1, kj] {
            rt::touch_read(
                rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0));
            rt::touch_write(tile_key(k, j + 1));
            const idx mk = tiles.rows_of(k);
            double* work = scratch(mk * kj);
            ormqr_tile(side::right, op::none, mk, m1, kj, vgj.data(),
                       vgj.ld(), tgj.data(), tgj.ld(), tiles.tile(k, j + 1),
                       mk, work);
          },
          {rt::rd(rt::region_key(kTagVg, static_cast<std::uint32_t>(j), 0)),
           rt::wr(tile_key(k, j + 1))},
          /*priority=*/1, "ormqr"));
    }

    // --- Flat TSQRT tree coupling tile (j+1, j) with each tile below. ---
    for (idx i = j + 2; i < nt; ++i) {
      const idx m2 = tiles.rows_of(i);
      const idx tsi = q1.ts_index(i, j);
      Matrix& vts = q1.vts[static_cast<size_t>(tsi)];
      Matrix& tts = q1.tts[static_cast<size_t>(tsi)];
      vts.reshape(m2, nb);
      tts.reshape(nb, nb);

      const auto vkey = rt::region_key(kTagVts, static_cast<std::uint32_t>(i),
                                       static_cast<std::uint32_t>(j));

      panel_task(run(
          [&tiles, &vts, &tts, i, j, m1, m2, nb, vkey] {
            rt::touch_write(tile_key(j + 1, j));
            rt::touch_write(tile_key(i, j));
            rt::touch_write(vkey);
            double* work = scratch(nb);
            tsqrt(m2, nb, tiles.tile(j + 1, j), m1, tiles.tile(i, j), m2,
                  tts.data(), tts.ld(), work);
            // V2 lives in tile (i, j) after tsqrt; keep a copy with the
            // factor so Q1 survives the band extraction.
            lapack::lacpy(m2, nb, tiles.tile(i, j), m2, vts.data(), vts.ld());
          },
          {rt::wr(tile_key(j + 1, j)), rt::wr(tile_key(i, j)),
           rt::wr(vkey)},
          /*priority=*/3, "tsqrt"));

      // Corner: tiles (j+1, j+1), (i, j+1), (i, i).
      panel_task(run(
          [&tiles, &vts, &tts, i, j, m1, m2, nb, vkey] {
            rt::touch_read(vkey);
            rt::touch_write(tile_key(j + 1, j + 1));
            rt::touch_write(tile_key(i, j + 1));
            rt::touch_write(tile_key(i, i));
            const idx m = m1 + m2;
            double* work = scratch(m * m + m * nb);
            tsmqr_corner(m1, m2, vts.data(), vts.ld(), tts.data(), tts.ld(),
                         tiles.tile(j + 1, j + 1), m1, tiles.tile(i, j + 1),
                         m2, tiles.tile(i, i), m2, work);
          },
          {rt::rd(vkey), rt::wr(tile_key(j + 1, j + 1)),
           rt::wr(tile_key(i, j + 1)), rt::wr(tile_key(i, i))},
          /*priority=*/2, "tsmqr_corner"));

      // Remaining pairs in the trailing submatrix.
      for (idx k2 = j + 2; k2 < nt; ++k2) {
        if (k2 == i) continue;
        if (k2 > i) {
          // Right update of the stored pair (k2, j+1), (k2, i).
          panel_task(run(
              [&tiles, &vts, &tts, i, j, k2, m1, m2, nb, vkey] {
                rt::touch_read(vkey);
                rt::touch_write(tile_key(k2, j + 1));
                rt::touch_write(tile_key(k2, i));
                const idx mk = tiles.rows_of(k2);
                double* work = scratch(mk * m1);
                tsmqr_right(op::none, mk, m1, m2, vts.data(), vts.ld(),
                            tts.data(), tts.ld(), tiles.tile(k2, j + 1), mk,
                            tiles.tile(k2, i), mk, work);
              },
              {rt::rd(vkey), rt::wr(tile_key(k2, j + 1)),
               rt::wr(tile_key(k2, i))},
              /*priority=*/1, "tsmqr_right"));
        } else {
          // Left update where the block-row-(j+1) tile is stored transposed
          // (the symmetric-layout "hetra" case).
          panel_task(run(
              [&tiles, &vts, &tts, i, j, k2, m1, m2, nb, vkey] {
                rt::touch_read(vkey);
                rt::touch_write(tile_key(k2, j + 1));
                rt::touch_write(tile_key(i, k2));
                const idx mk = tiles.rows_of(k2);
                double* work = scratch(2 * m1 * mk);
                tsmqr_left_hetra(op::trans, mk, m1, m2, vts.data(), vts.ld(),
                                 tts.data(), tts.ld(),
                                 tiles.tile(k2, j + 1), mk,
                                 tiles.tile(i, k2), m2, work);
              },
              {rt::rd(vkey), rt::wr(tile_key(k2, j + 1)),
               rt::wr(tile_key(i, k2))},
              /*priority=*/1, "tsmqr_left"));
        }
      }
    }
  }

  if (parallel) {
    if (lookahead >= 1) {
      // Depth-aware priorities: the height of each task in the gated DAG
      // (longest chain of tasks it still heads, the obs critical-path DP).
      // The panel chains tower over their trailing updates, so ready-queue
      // order drives the next panel's GEQRT/TSQRT forward while tsmqr
      // updates stream on the remaining workers.  Depth 0 keeps the legacy
      // static 3/2/1 scheme -- with a single panel in flight there is no
      // chain to favor.
      graph.apply_critical_path_priorities();
    }
    graph.set_schedule_info(lookahead,
                            lookahead >= 1 ? "critical-path" : "static");
    graph.run(num_workers);
  }

  // Extract the band: diagonal tiles plus the R factors left in the
  // subdiagonal tiles.
  result.band = BandMatrix(n, std::min<idx>(nb, n - 1));
  for (idx tj = 0; tj < nt; ++tj) {
    const idx cols = tiles.cols_of(tj);
    const double* dt = tiles.tile(tj, tj);
    const idx dl = tiles.rows_of(tj);
    for (idx c = 0; c < cols; ++c)
      for (idx r = c; r < dl; ++r)
        result.band.at(tj * nb + r, tj * nb + c) = dt[r + c * dl];
    if (tj + 1 < nt) {
      const double* st = tiles.tile(tj + 1, tj);
      const idx sl = tiles.rows_of(tj + 1);
      const idx kj = std::min(sl, cols);
      for (idx c = 0; c < cols; ++c)
        for (idx r = 0; r < std::min(kj, c + 1); ++r)
          result.band.at((tj + 1) * nb + r, tj * nb + c) = st[r + c * sl];
    }
  }
  return result;
}

void apply_q1(op trans, const Q1Factor& q1, double* g, idx ldg, idx ncols,
              int num_workers, idx col_block) {
  if (q1.nt <= 1 || ncols == 0) return;
  num_workers = rt::resolve_num_workers(num_workers);
  // The split apply_q2 uses: a narrow G still gets one block per worker, in
  // multiples of 8 columns.  Each column's arithmetic does not depend on its
  // block, so the result does not either.
  const idx per_worker = (ncols + num_workers - 1) / num_workers;
  col_block = std::min(col_block, (per_worker + 7) / 8 * 8);

  const idx nblocks = (ncols + col_block - 1) / col_block;
  std::atomic<idx> next{0};
  const int bodies = static_cast<int>(std::min<idx>(num_workers, nblocks));
  run_self_scheduled(bodies, [&](int) {
    for (idx b = next++; b < nblocks; b = next++) {
      obs::Span span("q1_cols");
      const idx c0 = b * col_block;
      apply_q1_block(trans, q1, g, ldg, c0, std::min(col_block, ncols - c0));
    }
  });
}

}  // namespace tseig::twostage
