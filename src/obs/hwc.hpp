// Hardware-counter sampling for the performance sentinel (obs/report.hpp's
// roofline analyzer): per-thread cycles / instructions / LLC misses /
// stalled cycles, read at phase and fork_join body boundaries.
//
// Two backends, resolved once per process on first use:
//
//  * `perf`     -- one perf_event_open fd per event per thread (self-
//                  monitoring, user-space only).  Available on Linux when
//                  perf_event_paranoid permits; each event degrades
//                  individually (a kernel without a stalled-cycles PMU event
//                  simply leaves that field invalid).
//  * `fallback` -- cycles approximated by the time-stamp counter (rdtsc on
//                  x86, cntvct_el0 on aarch64, steady-clock nanoseconds
//                  elsewhere); the other events are unavailable.  This is
//                  what a perf-less CI container runs, and the whole report
//                  pipeline must stay functional on it -- only IPC and the
//                  miss columns go dark.
//
// Gated by TSEIG_HWC: unset/"0"/"off" disables sampling entirely (`off`
// backend, zero samples); "1"/"on"/"auto"/"perf" tries perf and falls back;
// "fallback"/"tsc" forces the fallback.  The resolved backend name is
// stamped into run metadata (`hwc_backend`) so a report always says where
// its counters came from.
//
// This header lives in src/obs/ on purpose: the tseig-tidy no-wallclock
// check bans raw time sources outside the observability layer.
#pragma once

#include <cstdint>

namespace tseig::obs::hwc {

/// Resolved sampling backend (see file comment).
enum class Backend : std::uint8_t { off = 0, perf, fallback };

// Validity bits for Sample::valid: a field is meaningful only when its bit
// is set (perf events degrade individually; the fallback sets only kCycles).
constexpr unsigned kCycles = 1u << 0;
constexpr unsigned kInstructions = 1u << 1;
constexpr unsigned kLlcMisses = 1u << 2;
constexpr unsigned kStalledCycles = 1u << 3;

/// One reading of the calling thread's counters.  Monotone per thread;
/// consumers subtract two samples and intersect the valid masks.
struct Sample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  unsigned valid = 0;

  /// Adds d's counts; the validity mask is left to the caller.
  void add(const Sample& d) {
    cycles += d.cycles;
    instructions += d.instructions;
    llc_misses += d.llc_misses;
    stalled_cycles += d.stalled_cycles;
  }
};

/// True when TSEIG_HWC enables sampling (one cached env probe).
bool enabled();

/// The resolved backend.  Resolves on first call (tries perf if allowed);
/// Backend::off when sampling is disabled.
Backend backend();

/// "off", "perf" or "fallback" -- the `hwc_backend` metadata stamp.
const char* backend_name();

/// Reads the calling thread's counters plus everything credit() added on
/// this thread.  All-zero (valid == 0) when disabled.  First call on a
/// thread opens its perf fds (perf backend).
Sample sample();

/// Adds `d`'s counts to the calling thread's later samples.  fork_join
/// credits the deltas its bodies ran on pool workers to the forking thread,
/// so a delta the forking thread takes around a fork_join covers the whole
/// forked work -- the rule flop and byte counts follow.
void credit(const Sample& d);

/// Returns `b - a` field-wise with the intersected validity mask.
Sample delta(const Sample& a, const Sample& b);

/// Test hook: forces the backend (and enables sampling for Backend::perf /
/// Backend::fallback, disables for Backend::off), discarding any per-thread
/// state already initialized.  Not thread-safe against concurrent sample()
/// callers; tests call it from a quiescent point.
void force_backend_for_testing(Backend b);

}  // namespace tseig::obs::hwc
