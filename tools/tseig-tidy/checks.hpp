// tseig-tidy: project-specific static checks over tseig source files.
//
// These encode invariants no stock clang-tidy check knows:
//
//   tseig-no-raw-thread        -- std::thread / std::jthread / std::async are
//                                 the runtime's business; everything else in
//                                 src/ must go through the pool's fork-join
//                                 loops (parallel_for / run_self_scheduled),
//                                 or the pool's zero-thread-after-warmup and
//                                 nesting contracts silently break.
//   tseig-kernel-fp-contract   -- one floating-point contract for src/:
//                                 the microkernel tiers (src/blas/kernels/*)
//                                 fuse each k-step explicitly, and no other
//                                 src/ file calls fma() or an FMA
//                                 intrinsic.  No src/ file may use an
//                                 fp-contract, fast-math or reassociation
//                                 pragma or attribute.  One stray fused step
//                                 and TSEIG_KERNEL=scalar no longer
//                                 reproduces the SIMD tiers bit for bit, or
//                                 the native build no longer gives the
//                                 generic build's bits.
//   tseig-no-wallclock-in-kernels -- everything outside src/obs/ must stay
//                                 on the steady clock (obs::now_seconds);
//                                 system_clock/gettimeofday timestamps jump
//                                 under NTP and break trace merging.
//
// The checks run on a dependency-free token-level engine (checks.cpp), built
// with any C++20 compiler; it drives the blocking lint leg
// (scripts/run_tidy.sh) and the gtest fixtures.  Fixture files under
// fixtures/ seed one violation per check; the tests assert each check name
// fires on them.
#pragma once

#include <string>
#include <vector>

namespace tseig::tidy {

/// One diagnostic, clang-tidy shaped: path:line:col + check slug + message.
struct Finding {
  std::string file;
  int line = 0;
  int column = 0;
  std::string check;  ///< e.g. "tseig-no-raw-thread"
  std::string message;

  /// "src/foo.cpp:12:5: warning: <message> [<check>]"
  std::string format() const;
};

/// A source file presented to the checks.  `path` decides which checks
/// apply (it is matched against src/runtime/, src/blas/kernels/, ...), so
/// fixtures can present content under a virtual path.
struct FileInput {
  std::string path;     ///< repo-relative, '/'-separated
  std::string content;  ///< full file text
};

/// Names of all registered checks, in reporting order.
std::vector<std::string> check_names();

/// Runs every applicable check over one file.  Findings on lines carrying a
/// NOLINT / NOLINT(<check>) comment (or below a NOLINTNEXTLINE) are
/// suppressed, same contract as clang-tidy.
std::vector<Finding> run_checks(const FileInput& in);

/// Loads `path` (relative to `root`, which may be ".") and runs the checks
/// with the relative path as the classification key.  Throws
/// std::runtime_error when the file cannot be read.
std::vector<Finding> run_checks_on_file(const std::string& root,
                                        const std::string& rel_path);

}  // namespace tseig::tidy
