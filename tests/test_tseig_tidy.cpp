// Tests for the tseig-tidy token engine (tools/tseig-tidy/checks.cpp).
//
// Two layers: fixture files under tools/tseig-tidy/fixtures/ seed exactly
// the violations each check exists to catch (plus NOLINT suppressions and
// near-miss clean shapes), and the final test audits the real src/ tree --
// the three invariants are supposed to HOLD today, so any finding there is
// either a regression in the tree or a false positive in the engine, and
// both must fail CI.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.hpp"

namespace fs = std::filesystem;
using tseig::tidy::Finding;
using tseig::tidy::run_checks;
using tseig::tidy::run_checks_on_file;

namespace {

#ifndef TSEIG_TIDY_FIXTURES
#error "build must define TSEIG_TIDY_FIXTURES (see tests/CMakeLists.txt)"
#endif
#ifndef TSEIG_SOURCE_ROOT
#error "build must define TSEIG_SOURCE_ROOT (see tests/CMakeLists.txt)"
#endif

std::vector<Finding> on_fixture(const std::string& rel) {
  return run_checks_on_file(TSEIG_TIDY_FIXTURES, rel);
}

int count_check(const std::vector<Finding>& fs, const std::string& name) {
  return static_cast<int>(std::count_if(
      fs.begin(), fs.end(),
      [&](const Finding& f) { return f.check == name; }));
}

TEST(TseigTidy, RegistersThreeChecks) {
  const std::vector<std::string> names = tseig::tidy::check_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_NE(std::find(names.begin(), names.end(), "tseig-no-raw-thread"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tseig-kernel-fp-contract"),
            names.end());
  EXPECT_NE(
      std::find(names.begin(), names.end(), "tseig-no-wallclock-in-kernels"),
      names.end());
}

TEST(TseigTidy, NoRawThreadFixture) {
  const auto findings = on_fixture("src/solver/bad_thread.cpp");
  // Two spawns fire; hardware_concurrency() and the NOLINT line do not.
  EXPECT_EQ(count_check(findings, "tseig-no-raw-thread"), 2) << [&] {
    std::string all;
    for (const Finding& f : findings) all += f.format() + "\n";
    return all;
  }();
  for (const Finding& f : findings)
    EXPECT_EQ(f.check, "tseig-no-raw-thread") << f.format();
}

TEST(TseigTidy, RawThreadAllowedInRuntime) {
  // The same content under src/runtime/ is the pool's own business.
  tseig::tidy::FileInput in;
  in.path = "src/runtime/pool_impl.cpp";
  in.content = "#include <thread>\nstd::thread t;\n";
  EXPECT_TRUE(run_checks(in).empty());
}

std::string format_all(const std::vector<Finding>& fs) {
  std::string all;
  for (const Finding& f : fs) all += f.format() + "\n";
  return all;
}

TEST(TseigTidy, LaneTuFpContractFixture) {
  const auto findings = on_fixture("src/blas/blas1.cpp");
  // std::fma call + FP_CONTRACT ON pragma + omp simd reduction pragma; the
  // NOLINT'd fma and the plain a*b+c stay quiet.
  EXPECT_EQ(count_check(findings, "tseig-kernel-fp-contract"), 3)
      << format_all(findings);
}

TEST(TseigTidy, KernelTuAllowsFusedStepButNotPragmas) {
  const auto findings = on_fixture("src/blas/kernels/fused_step.cpp");
  // _mm512_fmadd_pd and std::fma are the contract; the FP_CONTRACT ON
  // pragma and the fast-math attribute fire.
  EXPECT_EQ(count_check(findings, "tseig-kernel-fp-contract"), 2)
      << format_all(findings);
  for (const Finding& f : findings)
    EXPECT_TRUE(f.line == 8 || f.line == 18) << f.format();
}

TEST(TseigTidy, FmaBannedInEveryUnfusedTu) {
  // Only src/blas/kernels/ may fuse: every other src/ file, header or
  // source, rounds each product.
  for (const char* path :
       {"src/blas/blas3.cpp", "src/blas/blas1.cpp", "src/common/lanes.hpp",
        "src/tridiag/steqr.cpp", "src/solver/syev_small.cpp",
        "src/lapack/aux.cpp", "src/blas/kernels_util.cpp"}) {
    tseig::tidy::FileInput in;
    in.path = path;
    in.content =
        "#include <cmath>\ndouble f(double a){return std::fma(a,a,a);}\n";
    EXPECT_EQ(count_check(run_checks(in), "tseig-kernel-fp-contract"), 1)
        << path;
  }
}

TEST(TseigTidy, FmaBannedInSrcButNotInTests) {
  // The fp-contract rule binds all of src/: a std::fma in steqr.cpp is a
  // finding.  Tests and tools stay unbound (their reference loops may spell
  // a fused step out).
  tseig::tidy::FileInput in;
  in.path = "src/tridiag/steqr.cpp";
  in.content = "#include <cmath>\ndouble f(double a){return std::fma(a,a,a);}\n";
  EXPECT_EQ(count_check(run_checks(in), "tseig-kernel-fp-contract"), 1);
  in.path = "tests/test_gemm_kernels.cpp";
  EXPECT_EQ(count_check(run_checks(in), "tseig-kernel-fp-contract"), 0);
}

TEST(TseigTidy, NoWallclockFixture) {
  const auto findings = on_fixture("src/solver/bad_wallclock.cpp");
  // system_clock + libc time(); steady_clock and the NOLINTNEXTLINE'd read
  // stay quiet.
  EXPECT_EQ(count_check(findings, "tseig-no-wallclock-in-kernels"), 2) << [&] {
    std::string all;
    for (const Finding& f : findings) all += f.format() + "\n";
    return all;
  }();
}

TEST(TseigTidy, WallclockAllowedInObs) {
  tseig::tidy::FileInput in;
  in.path = "src/obs/telemetry.cpp";
  in.content = "#include <chrono>\nauto t = std::chrono::system_clock::now();\n";
  EXPECT_TRUE(run_checks(in).empty());
}

TEST(TseigTidy, CleanFixtureIsClean) {
  EXPECT_TRUE(on_fixture("src/solver/clean.cpp").empty());
}

TEST(TseigTidy, FindingFormatIsClangShaped) {
  Finding f{"src/a.cpp", 12, 5, "tseig-no-raw-thread", "boom"};
  EXPECT_EQ(f.format(), "src/a.cpp:12:5: warning: boom [tseig-no-raw-thread]");
}

// The real tree must audit clean: every invariant the three checks encode
// already holds in src/ (threads only under src/runtime/, no contraction
// pragmas anywhere and no FMA outside src/blas/kernels/, steady clock
// everywhere outside src/obs/).  A finding here is a regression or an
// engine false positive -- both block.
TEST(TseigTidy, RealSourceTreeAuditsClean) {
  const fs::path src = fs::path(TSEIG_SOURCE_ROOT) / "src";
  ASSERT_TRUE(fs::exists(src)) << src;
  std::string report;
  int files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".inl") continue;
    const std::string rel =
        "src/" + fs::relative(entry.path(), src).generic_string();
    ++files;
    for (const Finding& f : run_checks_on_file(TSEIG_SOURCE_ROOT, rel))
      report += f.format() + "\n";
  }
  EXPECT_GT(files, 40) << "source enumeration looks broken";
  EXPECT_EQ(report, "");
}

}  // namespace
