// Tests for the element-wise (Givens) band tridiagonalization baseline.
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/steqr.hpp"
#include "test_support.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sbtrd_rot.hpp"

namespace tseig {
namespace {

twostage::BandMatrix random_band(idx n, idx bw, Rng& rng) {
  twostage::BandMatrix b(n, bw);
  for (idx j = 0; j < n; ++j)
    for (idx i = j; i < std::min(n, j + bw + 1); ++i)
      b.at(i, j) = 2.0 * rng.uniform() - 1.0;
  return b;
}

class SbtrdShapes : public ::testing::TestWithParam<std::tuple<idx, idx>> {};

TEST_P(SbtrdShapes, EigenvaluesMatchColumnWiseKernels) {
  const auto [n, bw] = GetParam();
  Rng rng(n * 13 + bw);
  auto band = random_band(n, bw, rng);

  // Element-wise baseline.
  std::vector<double> d_rot, e_rot;
  twostage::sbtrd_rotations(band, d_rot, e_rot);
  lapack::sterf(n, d_rot.data(), e_rot.data());

  // Column-wise kernels (the paper's algorithm).
  auto res = twostage::sb2st(band);
  std::vector<double> d = res.d, e = res.e;
  lapack::sterf(n, d.data(), e.data());

  for (idx i = 0; i < n; ++i)
    EXPECT_NEAR(d_rot[static_cast<size_t>(i)], d[static_cast<size_t>(i)],
                1e-10 * n)
        << i;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SbtrdShapes,
                         ::testing::Values(std::make_tuple<idx, idx>(3, 2),
                                           std::make_tuple<idx, idx>(10, 3),
                                           std::make_tuple<idx, idx>(24, 5),
                                           std::make_tuple<idx, idx>(40, 8),
                                           std::make_tuple<idx, idx>(64, 16),
                                           std::make_tuple<idx, idx>(50, 2),
                                           std::make_tuple<idx, idx>(33, 7)));

TEST(SbtrdRot, TridiagonalInputPassesThrough) {
  const idx n = 15;
  Rng rng(3);
  auto band = random_band(n, 1, rng);
  std::vector<double> d, e;
  const twostage::SbtrdStats stats = twostage::sbtrd_rotations(band, d, e);
  for (idx i = 0; i < n; ++i) EXPECT_EQ(d[static_cast<size_t>(i)], band.at(i, i));
  for (idx i = 0; i + 1 < n; ++i)
    EXPECT_EQ(e[static_cast<size_t>(i)], band.at(i + 1, i));
  EXPECT_EQ(stats.rotations, 0);
}

TEST(SbtrdRot, RotationCountScale) {
  // Peeling b..2 diagonals with per-column chases costs O(n^2) rotations
  // for fixed b; sanity check the counter is in the right ballpark.
  const idx n = 60, bw = 6;
  Rng rng(5);
  auto band = random_band(n, bw, rng);
  std::vector<double> d, e;
  const idx rot = twostage::sbtrd_rotations(band, d, e).rotations;
  EXPECT_GT(rot, n);                 // more than one sweep's worth
  EXPECT_LT(rot, 6 * n * n);         // but polynomially bounded
}

}  // namespace
}  // namespace tseig
