#include "obs/hwc.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tseig::obs::hwc {
namespace {

/// TSEIG_HWC modes (parsed once).
enum class Mode : std::uint8_t { off, prefer_perf, force_fallback };

Mode env_mode() {
  static const Mode mode = [] {
    const char* env = std::getenv("TSEIG_HWC");
    if (env == nullptr || env[0] == '\0') return Mode::off;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)
      return Mode::off;
    if (std::strcmp(env, "fallback") == 0 || std::strcmp(env, "tsc") == 0)
      return Mode::force_fallback;
    // "1", "on", "auto", "perf", anything else: try perf, degrade gracefully.
    return Mode::prefer_perf;
  }();
  return mode;
}

/// Process-wide resolved backend: -1 unresolved, else a Backend value.  The
/// first thread to sample resolves it (its perf-open success/failure decides
/// for everyone, so a report never mixes backends).
std::atomic<int> g_backend{-1};

/// Bumped by force_backend_for_testing; threads lazily rebuild their fd
/// state when their cached generation is stale.
std::atomic<unsigned> g_generation{0};

/// Timestamp-counter read for the fallback backend.
std::uint64_t read_tsc() {
#if defined(__x86_64__) || defined(__i386__)
  std::uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

#if defined(__linux__)
int perf_open(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // unprivileged self-monitoring
  attr.exclude_hv = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0 /*self*/, -1 /*any cpu*/,
              -1 /*no group: events degrade individually*/, 0));
}

std::uint64_t perf_read(int fd, bool& ok) {
  std::uint64_t v = 0;
  if (fd < 0 || read(fd, &v, sizeof v) != static_cast<ssize_t>(sizeof v)) {
    ok = false;
    return 0;
  }
  ok = true;
  return v;
}
#endif

/// Per-thread sampling state: the perf fds (perf backend) or nothing (the
/// fallback reads the TSC directly).  Leaked with the thread -- fds are
/// closed by the kernel at thread/process exit, and keeping destructors out
/// avoids ordering hazards with atexit exporters.
struct ThreadState {
  unsigned generation = 0;
  bool initialized = false;
  int fd_cycles = -1;
  int fd_instructions = -1;
  int fd_llc = -1;
  int fd_stalled = -1;

  void init() {
    initialized = true;
    generation = g_generation.load(std::memory_order_relaxed);
    int resolved = g_backend.load(std::memory_order_acquire);
    if (resolved == static_cast<int>(Backend::off) ||
        resolved == static_cast<int>(Backend::fallback))
      return;
#if defined(__linux__)
    if (env_mode() == Mode::prefer_perf ||
        resolved == static_cast<int>(Backend::perf)) {
      fd_cycles = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
      if (fd_cycles >= 0) {
        fd_instructions =
            perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
        fd_llc = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
        fd_stalled = perf_open(PERF_TYPE_HARDWARE,
                               PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
        g_backend.store(static_cast<int>(Backend::perf),
                        std::memory_order_release);
        return;
      }
    }
#endif
    // No perf (non-Linux, paranoid kernel, or forced): fall back to the TSC.
    g_backend.store(static_cast<int>(Backend::fallback),
                    std::memory_order_release);
  }

  void close_fds() {
#if defined(__linux__)
    for (int* fd : {&fd_cycles, &fd_instructions, &fd_llc, &fd_stalled}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
#endif
    initialized = false;
  }
};

/// Counts credit() added on this thread (validity unused).
thread_local Sample tl_credited;

ThreadState& this_thread_state() {
  thread_local ThreadState state;
  if (!state.initialized ||
      state.generation != g_generation.load(std::memory_order_relaxed))
    state.close_fds(), state.init();
  return state;
}

}  // namespace

bool enabled() {
  const int resolved = g_backend.load(std::memory_order_relaxed);
  if (resolved >= 0) return resolved != static_cast<int>(Backend::off);
  return env_mode() != Mode::off;
}

Backend backend() {
  int resolved = g_backend.load(std::memory_order_acquire);
  if (resolved >= 0) return static_cast<Backend>(resolved);
  if (env_mode() == Mode::off) {
    g_backend.store(static_cast<int>(Backend::off), std::memory_order_release);
    return Backend::off;
  }
  (void)this_thread_state();  // resolves perf vs fallback as a side effect
  resolved = g_backend.load(std::memory_order_acquire);
  return resolved >= 0 ? static_cast<Backend>(resolved) : Backend::fallback;
}

const char* backend_name() {
  switch (backend()) {
    case Backend::perf: return "perf";
    case Backend::fallback: return "fallback";
    case Backend::off: break;
  }
  return "off";
}

Sample sample() {
  Sample s;
  const Backend b = backend();
  if (b == Backend::off) return s;
  s.add(tl_credited);
  if (b == Backend::fallback) {
    s.cycles += read_tsc();
    s.valid = kCycles;
    return s;
  }
#if defined(__linux__)
  ThreadState& st = this_thread_state();
  bool ok = false;
  const std::uint64_t cycles = perf_read(st.fd_cycles, ok);
  // The thread lost its cycles fd (exotic, e.g. fd exhaustion): degrade
  // this sample to the TSC rather than reporting zero cycles.
  s.cycles += ok ? cycles : read_tsc();
  s.valid |= kCycles;
  s.instructions += perf_read(st.fd_instructions, ok);
  if (ok) s.valid |= kInstructions;
  s.llc_misses += perf_read(st.fd_llc, ok);
  if (ok) s.valid |= kLlcMisses;
  s.stalled_cycles += perf_read(st.fd_stalled, ok);
  if (ok) s.valid |= kStalledCycles;
#endif
  return s;
}

void credit(const Sample& d) { tl_credited.add(d); }

Sample delta(const Sample& a, const Sample& b) {
  Sample d;
  d.valid = a.valid & b.valid;
  if (d.valid & kCycles) d.cycles = b.cycles - a.cycles;
  if (d.valid & kInstructions) d.instructions = b.instructions - a.instructions;
  if (d.valid & kLlcMisses) d.llc_misses = b.llc_misses - a.llc_misses;
  if (d.valid & kStalledCycles)
    d.stalled_cycles = b.stalled_cycles - a.stalled_cycles;
  return d;
}

void force_backend_for_testing(Backend b) {
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace tseig::obs::hwc
