#include "twostage/q2_apply.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/parallel.hpp"
#include "lapack/householder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig::twostage {
namespace {

/// A precomputed diamond: the compact WY factor of `w` reflectors from
/// consecutive sweeps at the same hop level (Figure 3b), one block
/// reflector of the list apply_block_reflectors sweeps over E.
struct Diamond {
  idx r0 = 0;  // first row of E it touches
  Matrix v;    // rows touched x w staircase with explicit zeros
  Matrix t;    // w x w triangular factor
};

/// Number of sweeps in group [s0, s1) that actually have hop b.
idx group_width(const V2Factor& v2, idx s0, idx s1, idx b) {
  // nblocks(s) is non-increasing in s, so eligible sweeps form a prefix.
  idx s = s0;
  while (s < s1 && b < v2.nblocks(s)) ++s;
  return s - s0;
}

/// Where a diamond sits in V2: sweeps [s0, s0 + w) at hop b.
struct DiamondKey {
  idx s0 = 0;
  idx w = 0;
  idx b = 0;
};

/// Copies the diamond's reflectors into its staircase V and forms T with
/// larft.  d.v and d.t are already allocated; taus holds at least w slots.
void fill_diamond(const V2Factor& v2, const DiamondKey& k, Diamond& d,
                  double* taus) {
  for (idx c = 0; c < k.w; ++c) {
    const idx len = v2.len(k.s0 + c, k.b);
    const double* v = v2.v(k.s0 + c, k.b);
    double* col = d.v.col(c);
    // Column c sits one row below column c-1 (the staircase).  v[0] == 1
    // for generated reflectors; trivial (tau == 0) slots may hold zeros,
    // which larft maps to an identity factor regardless.
    for (idx i = 0; i < len; ++i) col[c + i] = v[i];
    taus[c] = v2.tau(k.s0 + c, k.b);
  }
  lapack::larft(d.v.rows(), k.w, d.v.data(), d.v.ld(), taus, d.t.data(),
                d.t.ld());
}

/// Builds every diamond in the order they must be applied for op(Q2)
/// (see the ordering discussion in the header).  The caller allocates every
/// V and T, so their pages come from its thread as in a serial build; the
/// staircase copies and larfts, independent per diamond, run on
/// `num_workers` bodies.
std::vector<Diamond> build_diamonds(op trans, const V2Factor& v2, idx ell,
                                    int num_workers) {
  const idx nsweeps = v2.nsweeps();
  const idx ngroups = (nsweeps + ell - 1) / ell;
  const idx maxblocks = v2.nblocks(0);
  std::vector<DiamondKey> keys;
  auto emit = [&](idx s0, idx s1, idx b) {
    const idx w = group_width(v2, s0, s1, b);
    if (w > 0) keys.push_back({s0, w, b});
  };
  auto emit_group = [&](idx g) {
    const idx s0 = g * ell;
    const idx s1 = std::min(nsweeps, s0 + ell);
    if (trans == op::none) {
      for (idx b = 0; b < maxblocks; ++b) emit(s0, s1, b);
    } else {
      for (idx b = maxblocks - 1; b >= 0; --b) emit(s0, s1, b);
    }
  };
  if (trans == op::none) {
    for (idx g = ngroups - 1; g >= 0; --g) emit_group(g);
  } else {
    for (idx g = 0; g < ngroups; ++g) emit_group(g);
  }

  const idx count = static_cast<idx>(keys.size());
  std::vector<Diamond> out(keys.size());
  for (idx j = 0; j < count; ++j) {
    const DiamondKey& k = keys[static_cast<size_t>(j)];
    Diamond& d = out[static_cast<size_t>(j)];
    d.r0 = v2.start(k.s0, k.b);
    const idx last = k.s0 + k.w - 1;
    d.v.reshape(v2.start(last, k.b) + v2.len(last, k.b) - d.r0, k.w);
    d.t.reshape(k.w, k.w);
  }
  std::atomic<idx> next{0};
  run_self_scheduled(static_cast<int>(std::min<idx>(num_workers, count)),
                     [&](int) {
                       obs::Span span("q2_build");
                       std::vector<double> taus(static_cast<size_t>(ell));
                       for (idx j = next++; j < count; j = next++)
                         fill_diamond(v2, keys[static_cast<size_t>(j)],
                                      out[static_cast<size_t>(j)],
                                      taus.data());
                     });
  return out;
}

}  // namespace

void apply_q2_naive(op trans, const V2Factor& v2, double* e, idx lde,
                    idx ncols) {
  std::vector<double> work(static_cast<size_t>(ncols));
  if (trans == op::none) {
    // E <- Q2 E: reverse generation order.
    for (idx s = v2.nsweeps() - 1; s >= 0; --s) {
      for (idx b = v2.nblocks(s) - 1; b >= 0; --b) {
        const double tau = v2.tau(s, b);
        if (tau == 0.0) continue;
        lapack::larf(side::left, v2.len(s, b), ncols, v2.v(s, b), 1, tau,
                     e + v2.start(s, b), lde, work.data());
      }
    }
  } else {
    // E <- Q2^T E: generation order (reflectors are symmetric, H^T = H).
    for (idx s = 0; s < v2.nsweeps(); ++s) {
      for (idx b = 0; b < v2.nblocks(s); ++b) {
        const double tau = v2.tau(s, b);
        if (tau == 0.0) continue;
        lapack::larf(side::left, v2.len(s, b), ncols, v2.v(s, b), 1, tau,
                     e + v2.start(s, b), lde, work.data());
      }
    }
  }
}

void apply_q2(op trans, const V2Factor& v2, double* e, idx lde, idx ncols,
              idx ell, int num_workers) {
  if (v2.nsweeps() == 0 || ncols == 0) return;
  num_workers = rt::resolve_num_workers(num_workers);
  // Build every diamond's WY factor once (shared read-only by all bodies),
  // then sweep them over each column block of E (Figure 3c: communication-
  // free column blocks, each taken whole by one worker).
  const std::vector<Diamond> diamonds =
      build_diamonds(trans, v2, std::max<idx>(1, ell), num_workers);
  std::vector<lapack::BlockReflector> list;
  list.reserve(diamonds.size());
  for (const Diamond& d : diamonds)
    list.push_back({d.r0, d.v.rows(), d.v.cols(), d.v.data(), d.v.ld(),
                    d.t.data(), d.t.ld()});
  lapack::apply_block_reflectors(trans, list, e, lde, ncols, num_workers,
                                 "q2_cols");
}

}  // namespace tseig::twostage
