// Flop and byte-traffic accounting used to reproduce Table 1 (complexity of
// the TRD / Gen Q / Eig of T / Update Z phases for each method) and to feed
// the roofline analyzer (obs/report.hpp) with per-phase arithmetic intensity.
//
// Counters are plain thread-local accumulators: each BLAS-like kernel adds
// its nominal flop count on entry, and its nominal operand traffic in bytes
// (`byte_count::` formulas assume every operand element is touched once from
// memory; packers and blocked drivers additionally report the real packing
// traffic they generate).  `FlopScope` / `ByteScope` snapshot the counters so
// callers can attribute work to a phase without instrumenting every call
// site.
//
// Work that a thread *delegates* to the shared pool still lands in that
// thread's counters: ThreadPool::fork_join measures the flops and bytes each
// forked body executes on its worker and credits the sums back to the forking
// thread when the join completes.  Every parallel construct (parallel_for,
// run_self_scheduled) funnels through fork_join, so a FlopScope around a parallel
// solve sees the whole solve -- and *only* that solve, even when other host
// threads are running their own solves on the same pool concurrently.  (The
// previous process-global counter cross-attributed concurrent clients' work,
// which made per-problem phase breakdowns meaningless under syev_batch.)
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace tseig {

namespace detail {
/// Per-thread flop counter (see the delegation note above).
inline std::uint64_t& flop_counter() {
  thread_local std::uint64_t counter = 0;
  return counter;
}
/// Per-thread byte-traffic counter (same delegation contract).
inline std::uint64_t& byte_counter() {
  thread_local std::uint64_t counter = 0;
  return counter;
}
}  // namespace detail

/// Adds `n` flops to the calling thread's counter.  No-op for negative values.
inline void count_flops(std::int64_t n) {
  if (n > 0) detail::flop_counter() += static_cast<std::uint64_t>(n);
}

/// Current flop count of the calling thread (including joined pool work).
inline std::uint64_t flops_now() { return detail::flop_counter(); }

/// RAII scope measuring the flops executed by the calling thread -- plus any
/// pool work it forked and joined -- between its construction and count().
class FlopScope {
public:
  FlopScope() : start_(flops_now()) {}
  /// Flops executed since construction.
  std::uint64_t count() const { return flops_now() - start_; }

private:
  std::uint64_t start_;
};

/// Adds `n` bytes of memory traffic to the calling thread's counter.
inline void count_bytes(std::int64_t n) {
  if (n > 0) detail::byte_counter() += static_cast<std::uint64_t>(n);
}

/// Current byte count of the calling thread (including joined pool work).
inline std::uint64_t bytes_now() { return detail::byte_counter(); }

/// RAII scope measuring the bytes moved by the calling thread -- plus any
/// pool work it forked and joined -- between its construction and count().
class ByteScope {
public:
  ByteScope() : start_(bytes_now()) {}
  /// Bytes moved since construction.
  std::uint64_t count() const { return bytes_now() - start_; }

private:
  std::uint64_t start_;
};

/// Nominal flop formulas for the standard kernels (LAPACK working note 41
/// conventions: one multiply + one add = 2 flops).
namespace flop_count {
inline std::int64_t gemm(idx m, idx n, idx k) { return 2 * m * n * k; }
inline std::int64_t gemv(idx m, idx n) { return 2 * m * n; }
inline std::int64_t symv(idx n) { return 2 * n * n; }
inline std::int64_t syr2k(idx n, idx k) { return 2 * n * n * k + n * k; }
inline std::int64_t syrk(idx n, idx k) { return n * n * k + n * k; }
inline std::int64_t trsm(side s, idx m, idx n) {
  return s == side::left ? m * m * n : m * n * n;
}
inline std::int64_t ger(idx m, idx n) { return 2 * m * n; }
inline std::int64_t syr2(idx n) { return 2 * n * n; }
/// Root-free QL/QR (lapack::sterf): 13 flops per rotation and 14 for each
/// sweep's shift; the closed-form 2x2 blocks (at most n/2) are not counted.
inline std::int64_t sterf(idx sweeps, idx rotations) {
  return 14 * sweeps + 13 * rotations;
}
}  // namespace flop_count

/// Nominal memory-traffic formulas (double precision, 8 bytes/element): every
/// operand element touched once, destinations read+written.  These feed the
/// arithmetic-intensity column of the roofline report; blocked drivers add
/// their real packing traffic on top at the pack sites.
namespace byte_count {
constexpr std::int64_t kElem = 8;  ///< sizeof(double)
inline std::int64_t gemm(idx m, idx n, idx k) {
  return kElem * (m * k + k * n + 2 * m * n);
}
inline std::int64_t gemv(idx m, idx n) {
  return kElem * (m * n + n + 2 * m);
}
inline std::int64_t symv(idx n) {
  return kElem * (n * (n + 1) / 2 + 4 * n);  // stored triangle + x + y r/w
}
inline std::int64_t syrk(idx n, idx k) {
  return kElem * (n * k + n * (n + 1));  // A + triangle of C read+written
}
inline std::int64_t syr2k(idx n, idx k) {
  return kElem * (2 * n * k + n * (n + 1));
}
inline std::int64_t trsm(side s, idx m, idx n) {
  const idx t = s == side::left ? m : n;
  return kElem * (t * (t + 1) / 2 + 2 * m * n);
}
inline std::int64_t ger(idx m, idx n) {
  return kElem * (2 * m * n + m + n);
}
inline std::int64_t syr2(idx n) {
  return kElem * (n * (n + 1) + 4 * n);
}
/// One reflector H = I - tau v v^T of length m applied from one side to an
/// m-by-n block (xLARF, the bulge chase's one-sided hop updates): the block
/// read+written, v read, the n-vector w = C^T v written and read.
inline std::int64_t larf(idx m, idx n) {
  return kElem * (2 * m * n + m + 2 * n);
}
/// One reflector of length n applied from both sides to a symmetric n-by-n
/// block stored as its lower triangle (xLARFY, the chase's two-sided
/// update): the triangle read+written, v read, w written and read.
inline std::int64_t larfy(idx n) { return kElem * (n * (n + 1) + 3 * n); }
/// Plain m-by-n copy / pack traffic: source read + destination write.
inline std::int64_t copy(idx m, idx n) { return 2 * kElem * m * n; }
}  // namespace byte_count

}  // namespace tseig
