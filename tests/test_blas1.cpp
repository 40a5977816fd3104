// Unit tests for the Level-1 BLAS kernels against straightforward loops.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "common/rng.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

class Blas1Sizes : public ::testing::TestWithParam<idx> {};

TEST_P(Blas1Sizes, DotMatchesLoop) {
  const idx n = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(n));
  std::vector<double> x(n), y(n);
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  double expect = 0.0;
  for (idx i = 0; i < n; ++i) expect += x[i] * y[i];
  EXPECT_NEAR(blas::dot(n, x.data(), 1, y.data(), 1), expect, 1e-12 * (n + 1));
}

TEST_P(Blas1Sizes, DotStrided) {
  const idx n = GetParam();
  Rng rng(7);
  std::vector<double> x(3 * n + 1), y(2 * n + 1);
  rng.fill_uniform(x.data(), 3 * n + 1);
  rng.fill_uniform(y.data(), 2 * n + 1);
  double expect = 0.0;
  for (idx i = 0; i < n; ++i) expect += x[3 * i] * y[2 * i];
  EXPECT_NEAR(blas::dot(n, x.data(), 3, y.data(), 2), expect, 1e-12 * (n + 1));
}

TEST_P(Blas1Sizes, Nrm2MatchesSqrtDot) {
  const idx n = GetParam();
  Rng rng(11);
  std::vector<double> x(n);
  rng.fill_uniform(x.data(), n);
  const double expect = std::sqrt(blas::dot(n, x.data(), 1, x.data(), 1));
  EXPECT_NEAR(blas::nrm2(n, x.data(), 1), expect, 1e-12 * (n + 1));
}

TEST_P(Blas1Sizes, AxpyMatchesLoop) {
  const idx n = GetParam();
  Rng rng(13);
  std::vector<double> x(n), y(n), expect(n);
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  const double alpha = 0.37;
  for (idx i = 0; i < n; ++i) expect[i] = y[i] + alpha * x[i];
  blas::axpy(n, alpha, x.data(), 1, y.data(), 1);
  EXPECT_LE(testing::max_abs_diff(y.data(), expect.data(), n), 1e-15);
}

TEST_P(Blas1Sizes, ScalCopySwap) {
  const idx n = GetParam();
  Rng rng(17);
  std::vector<double> x(n), y(n);
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  std::vector<double> x0 = x, y0 = y;

  blas::swap(n, x.data(), 1, y.data(), 1);
  EXPECT_LE(testing::max_abs_diff(x.data(), y0.data(), n), 0.0);
  EXPECT_LE(testing::max_abs_diff(y.data(), x0.data(), n), 0.0);

  blas::copy(n, x.data(), 1, y.data(), 1);
  EXPECT_LE(testing::max_abs_diff(y.data(), x.data(), n), 0.0);

  blas::scal(n, -2.5, x.data(), 1);
  for (idx i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x[i], -2.5 * y0[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Blas1Sizes,
                         ::testing::Values<idx>(1, 2, 3, 7, 16, 33, 100, 257));

TEST(Blas1, Nrm2AvoidsOverflow) {
  std::vector<double> x = {1e300, 1e300};
  EXPECT_NEAR(blas::nrm2(2, x.data(), 1), std::sqrt(2.0) * 1e300, 1e288);
}

TEST(Blas1, Nrm2AvoidsUnderflow) {
  std::vector<double> x = {1e-300, 1e-300};
  EXPECT_NEAR(blas::nrm2(2, x.data(), 1), std::sqrt(2.0) * 1e-300, 1e-312);
}

TEST(Blas1, Nrm2EmptyAndSingle) {
  const double v = -3.5;
  EXPECT_EQ(blas::nrm2(0, &v, 1), 0.0);
  EXPECT_EQ(blas::nrm2(1, &v, 1), 3.5);
}

TEST(Blas1, IamaxFindsFirstMaximum) {
  std::vector<double> x = {1.0, -4.0, 2.0, 4.0, -1.0};
  EXPECT_EQ(blas::iamax(5, x.data(), 1), 1);  // first |max| wins
  EXPECT_EQ(blas::iamax(0, x.data(), 1), -1);
}

TEST(Blas1, RotIsOrthogonal) {
  Rng rng(19);
  const idx n = 64;
  std::vector<double> x(n), y(n);
  rng.fill_uniform(x.data(), n);
  rng.fill_uniform(y.data(), n);
  const double norm_before =
      blas::dot(n, x.data(), 1, x.data(), 1) + blas::dot(n, y.data(), 1, y.data(), 1);
  const double theta = 0.7;
  blas::rot(n, x.data(), 1, y.data(), 1, std::cos(theta), std::sin(theta));
  const double norm_after =
      blas::dot(n, x.data(), 1, x.data(), 1) + blas::dot(n, y.data(), 1, y.data(), 1);
  EXPECT_NEAR(norm_before, norm_after, 1e-12 * n);
}

// ---- Lane order (common/lanes.hpp) ----

/// Bit pattern of a double: == would not tell -0.0 from +0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Blas1Lanes, DotIsLaneOrderAtEveryLengthStrideAndAlignment) {
  // Lengths 0..67 give every tail 0..7 behind 0..8 whole lane chunks; the
  // same vectors copied to start offsets 0..7 doubles pass through every
  // alignment, and a strided copy takes the scalar path.  All must hold the
  // bits of the plain lane-order loop.
  const idx nmax = 67;
  Rng rng(23);
  std::vector<double> x0(nmax), y0(nmax);
  rng.fill_normal(x0.data(), nmax);
  rng.fill_normal(y0.data(), nmax);
  std::vector<double> xb(nmax + 8), yb(nmax + 8), xs(3 * nmax), ys(2 * nmax);
  for (idx n = 0; n <= nmax; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    const double ref = testing::lane_order_sum(
        n, [&](idx k) { return x0[k] * y0[k]; });
    for (idx off = 0; off < 8; ++off) {
      double* x = xb.data() + off;
      double* y = yb.data() + (off + 3) % 8;
      std::copy(x0.begin(), x0.begin() + n, x);
      std::copy(y0.begin(), y0.begin() + n, y);
      EXPECT_EQ(bits(blas::dot(n, x, 1, y, 1)), bits(ref)) << "offset " << off;
    }
    for (idx k = 0; k < n; ++k) {
      xs[3 * k] = x0[k];
      ys[2 * k] = y0[k];
    }
    EXPECT_EQ(bits(blas::dot(n, xs.data(), 3, ys.data(), 2)), bits(ref));
  }
}

TEST(Blas1Lanes, DotIsAccurateAgainstLongDouble) {
  // Every term passes one product rounding, at most ceil(n/8) - 1 lane
  // additions and the 3 tree levels: |error| <= (n/8 + 4) eps sum |x_k y_k|.
  constexpr double eps = std::numeric_limits<double>::epsilon();
  constexpr long double eps_ref = std::numeric_limits<long double>::epsilon();
  Rng rng(29);
  for (idx n : {idx{0}, idx{1}, idx{7}, idx{8}, idx{9}, idx{67}, idx{1000}}) {
    std::vector<double> x(n), y(n);
    rng.fill_normal(x.data(), n);
    rng.fill_normal(y.data(), n);
    long double exact = 0.0L, mag = 0.0L;
    for (idx k = 0; k < n; ++k) {
      exact += static_cast<long double>(x[k]) * y[k];
      mag += std::fabs(static_cast<long double>(x[k]) * y[k]);
    }
    const long double err =
        std::fabs(blas::dot(n, x.data(), 1, y.data(), 1) - exact);
    EXPECT_LE(err, ((n / 8 + 4) * eps + n * eps_ref) * mag) << "n " << n;
  }
}

TEST(Blas1, AsumMatchesLoop) {
  std::vector<double> x = {1.0, -2.0, 3.0, -4.0};
  EXPECT_DOUBLE_EQ(blas::asum(4, x.data(), 1), 10.0);
}

}  // namespace
}  // namespace tseig
