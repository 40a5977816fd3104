// Fixed-order partial sums: the one summation order of every Level-1/2
// reduction (blas::dot, gemv(op::trans), the A^T x half of symv), of the
// bulge chase's hop kernels and of the D&C secular sums.
//
// Term k of a sum (k = 0, 1, ... in the order the sum runs) goes to lane
// k % kLanes -- chosen by the index, never by the address -- each lane adds
// its terms in increasing k starting from +0, and the lanes combine in one
// fixed tree (lane_total).  A loop may then take kLanes consecutive terms as
// one vector and still round exactly like the plain reference loop
//
//   double s[kLanes] = {};
//   for (idx k = 0; k < n; ++k) s[k % kLanes] += x[k] * y[k];
//   return lane_total(s);
//
// so no sum depends on buffer alignment, vector width, worker count, kernel
// tier or build.  lane_total's tree is invariant under a cyclic shift of
// the lanes (its pairs are 4, 2 and 1 lanes apart, and every addition is
// commutative), so lane (k + c) % kLanes for any fixed c gives the same
// bits: a loop may index lanes by an absolute row index.
//
// Products must round before they are added: the whole library, and every
// target that links it, builds with -ffp-contract=off (src/CMakeLists.txt),
// and scripts/check_isa_leak.sh fails if an object outside the kernel tiers
// holds a fused multiply-add.  lane_madd and lane_dot are always inlined, so
// each caller gets its own TU's flags and no contracted copy can stand in
// for them at link time.
#pragma once

#include <cstring>

#include "common/types.hpp"

namespace tseig {

constexpr idx kLanes = 8;

/// Doubles per hardware vector register, and the LaneVec accumulators a
/// loop over several columns keeps live next to its operands (the register
/// file holds 32 vectors with AVX-512, 16 otherwise).  Both only shape the
/// machine code: every choice gives the same bits.
#if defined(__AVX512F__)
constexpr idx kLaneWidth = 8;
constexpr idx kLaneGroup = 8;
#elif defined(__AVX__)
constexpr idx kLaneWidth = 4;
constexpr idx kLaneGroup = 4;
#else
constexpr idx kLaneWidth = 2;
constexpr idx kLaneGroup = 2;
#endif

/// One hardware vector of kLaneWidth doubles (GCC/Clang vector extension).
typedef double LanePart
    __attribute__((vector_size(kLaneWidth * sizeof(double))));

/// kLanes doubles as kLanes / kLaneWidth hardware vectors: element l is
/// lane l.  A single 64-byte vector type would do on AVX-512, but GCC keeps
/// one that is wider than the hardware's on the stack.  A LaneVec only
/// travels by reference: a vector by value has a different calling
/// convention at different widths (-Wpsabi).
struct LaneVec {
  LanePart part[kLanes / kLaneWidth];
};

/// v <- p[0 .. kLanes), at any alignment.
inline void lane_load(LaneVec& v, const double* p) {
  for (idx k = 0; k < kLanes / kLaneWidth; ++k)
    std::memcpy(&v.part[k], p + k * kLaneWidth, sizeof(LanePart));
}

/// p[0 .. kLanes) <- v, at any alignment.
inline void lane_store(double* p, const LaneVec& v) {
  for (idx k = 0; k < kLanes / kLaneWidth; ++k)
    std::memcpy(p + k * kLaneWidth, &v.part[k], sizeof(LanePart));
}

/// acc <- acc + a * b, lane by lane.
[[gnu::always_inline]] inline void lane_madd(LaneVec& acc, const LaneVec& a,
                                             const LaneVec& b) {
  for (idx k = 0; k < kLanes / kLaneWidth; ++k)
    acc.part[k] += a.part[k] * b.part[k];
}

/// acc <- acc + s * b, lane by lane.
[[gnu::always_inline]] inline void lane_madd(LaneVec& acc, double s,
                                             const LaneVec& b) {
  for (idx k = 0; k < kLanes / kLaneWidth; ++k) acc.part[k] += s * b.part[k];
}

/// ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)).
inline double lane_total(const double (&s)[kLanes]) {
  double t[kLanes];
  for (idx l = 0; l < kLanes; ++l) t[l] = s[l];
  for (idx w = kLanes / 2; w > 0; w /= 2)
    for (idx l = 0; l < w; ++l) t[l] += t[l + w];
  return t[0];
}

/// x^T y over unit-stride x[0..n), y[0..n) in lane order.
[[gnu::always_inline]] inline double lane_dot(idx n, const double* x,
                                              const double* y) {
  LaneVec acc = {};
  idx i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    LaneVec xv, yv;
    lane_load(xv, x + i);
    lane_load(yv, y + i);
    lane_madd(acc, xv, yv);
  }
  double s[kLanes];
  lane_store(s, acc);
  for (idx l = 0; i < n; ++i, ++l) s[l] += x[i] * y[i];
  return lane_total(s);
}

}  // namespace tseig
