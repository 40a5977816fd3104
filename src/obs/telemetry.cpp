#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.hpp"
#include "obs/report.hpp"

namespace tseig::obs {
namespace {

using steady = std::chrono::steady_clock;

/// Single process-wide epoch.  Captured on first use, which is at latest the
/// first enabled span -- every later call shares the same origin.
steady::time_point epoch() {
  static const steady::time_point t0 = steady::now();
  return t0;
}

/// Ring capacity per lane.  ~64k spans (2 MiB) per thread by default covers
/// every solve in the test/bench suite; TSEIG_TRACE_CAPACITY overrides.
std::size_t ring_capacity() {
  static const std::size_t cap = [] {
    if (const char* env = std::getenv("TSEIG_TRACE_CAPACITY")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return static_cast<std::size_t>(1) << 16;
  }();
  return cap;
}

/// Single-producer ring of records: preallocated slots, a monotone push
/// count (slot = count % capacity) the writer publishes with a release
/// store, so a post-quiescence reader sees complete records.
template <class T>
struct Ring {
  std::vector<T> slots;
  std::atomic<std::uint64_t> count{0};

  explicit Ring(std::size_t capacity) : slots(capacity) {}

  void push(const T& rec) {
    const std::uint64_t c = count.load(std::memory_order_relaxed);
    slots[static_cast<std::size_t>(c % slots.size())] = rec;
    count.store(c + 1, std::memory_order_release);
  }

  /// Appends the kept records, oldest first; returns how many were lost.
  std::uint64_t copy_to(std::vector<T>& out) const {
    const std::uint64_t n = count.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(n, slots.size());
    for (std::uint64_t k = n - kept; k < n; ++k)
      out.push_back(slots[static_cast<std::size_t>(k % slots.size())]);
    return n - kept;
  }
};

/// Per-thread recording lane.  Owned by the global registry (never freed),
/// so snapshots may read it after the recording thread exited.  Phase
/// records are coarse (a few per solve, one per closed-form batch member),
/// so their ring is an eighth of the span ring.
struct Lane {
  std::uint16_t id;
  Ring<SpanRecord> spans;
  Ring<PhaseRecord> phases;

  explicit Lane(std::uint16_t lane_id)
      : id(lane_id), spans(ring_capacity()),
        phases(std::max<std::size_t>(1, ring_capacity() / 8)) {}
};

/// Global recorder state (cold paths only; the rings above are the hot
/// path).
struct Recorder {
  Mutex mu;
  /// Registered lanes (owned, never freed).  The vector is mu-guarded; the
  /// Lane objects themselves are single-producer rings written lock-free by
  /// their owning threads and read via acquire loads.
  std::vector<Lane*> lanes TSEIG_GUARDED_BY(mu);
  std::vector<WorkerMetric> workers TSEIG_GUARDED_BY(mu);
  RunMeta meta TSEIG_GUARDED_BY(mu);
  std::string trace_path TSEIG_GUARDED_BY(mu);
  std::string metrics_path TSEIG_GUARDED_BY(mu);
  bool atexit_registered TSEIG_GUARDED_BY(mu) = false;
};

/// Span-duration histogram: process-wide atomic buckets (lock-free adds,
/// never dropped -- the whole point is surviving ring overwrite).
std::atomic<std::uint64_t> g_hist[kHistogramBuckets];

/// The calling thread's current phase (see PhaseScope).
thread_local Phase tl_phase = Phase::none;

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during atexit
  return *r;
}

Lane& this_lane() {
  thread_local Lane* lane = [] {
    Recorder& r = recorder();
    LockGuard lock(r.mu);
    auto* l = new Lane(static_cast<std::uint16_t>(r.lanes.size()));
    r.lanes.push_back(l);
    return l;
  }();
  return *lane;
}

void export_at_exit() {
  Recorder& r = recorder();
  std::string trace, metrics;
  {
    LockGuard lock(r.mu);
    trace = r.trace_path;
    metrics = r.metrics_path;
  }
  if (trace.empty() && metrics.empty()) return;
  const Snapshot snap = snapshot();
  if (!trace.empty()) write_chrome_trace_file(snap, trace);
  if (!metrics.empty()) write_metrics_file(snap, metrics);
}

/// Environment probe, run during static initialization: TSEIG_TRACE /
/// TSEIG_METRICS turn recording on for the whole process and export at exit.
struct EnvInit {
  EnvInit() {
    (void)epoch();  // pin the epoch before any worker can race the init
    const char* trace = std::getenv("TSEIG_TRACE");
    const char* metrics = std::getenv("TSEIG_METRICS");
    if (trace != nullptr || metrics != nullptr)
      set_export_paths(trace != nullptr ? trace : "",
                       metrics != nullptr ? metrics : "");
  }
};
const EnvInit env_init;

}  // namespace

void set_enabled(bool on) {
  if (on) (void)epoch();
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

double now_seconds() {
  return std::chrono::duration<double>(steady::now() - epoch()).count();
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::none: return "none";
    case Phase::stage1: return "stage1";
    case Phase::stage2: return "stage2";
    case Phase::sytrd: return "sytrd";
    case Phase::solve: return "solve";
    case Phase::update: return "update";
    case Phase::batch: return "batch";
    case Phase::small_n: return "small_n";
    case Phase::count: break;
  }
  return "?";
}

Phase current_phase() { return tl_phase; }

PhaseScope::PhaseScope(Phase p) : saved_(tl_phase) { tl_phase = p; }

PhaseScope::~PhaseScope() { tl_phase = saved_; }

int log2_ns_bucket(double seconds) {
  const double ns = seconds * 1e9;
  if (!(ns > 1.0)) return 0;  // <= 1 ns, zero, negative and NaN: bucket 0
  // Clamp before the int cast: huge ns (or inf after the 1e9 scale) would
  // otherwise overflow the cast, which is undefined.
  const double b = std::log2(ns);
  if (b >= static_cast<double>(kHistogramBuckets)) return kHistogramBuckets - 1;
  return static_cast<int>(b);
}

double bucket_mid_seconds(int bucket) {
  if (bucket < 0) bucket = 0;
  if (bucket >= kHistogramBuckets) bucket = kHistogramBuckets - 1;
  return 1.5 * std::ldexp(1.0, bucket) * 1e-9;  // geometric-ish midpoint
}

void record_span(const char* label, double t0, double t1, std::int32_t arg) {
  if (!enabled()) return;
  Lane& lane = this_lane();
  SpanRecord rec;
  rec.label = label;
  rec.arg = arg;
  rec.lane = lane.id;
  rec.phase = tl_phase;
  rec.start_seconds = t0;
  rec.end_seconds = t1;
  lane.spans.push(rec);
  g_hist[log2_ns_bucket(t1 - t0)].fetch_add(1, std::memory_order_relaxed);
}

void record_phase(const char* label, Phase phase, double t0, double t1,
                  const PhaseCost& cost) {
  if (!enabled()) return;
  Lane& lane = this_lane();
  lane.phases.push({label, phase, lane.id, t0, t1, cost});
}

void publish_worker_metrics(const std::vector<WorkerMetric>& workers) {
  Recorder& r = recorder();
  LockGuard lock(r.mu);
  r.workers = workers;
}

void set_run_meta(const RunMeta& meta) {
  Recorder& r = recorder();
  LockGuard lock(r.mu);
  r.meta = meta;
}

Snapshot snapshot() {
  Recorder& r = recorder();
  Snapshot out;
  LockGuard lock(r.mu);
  for (const Lane* lane : r.lanes) {
    out.dropped_spans += lane->spans.copy_to(out.spans);
    out.dropped_spans += lane->phases.copy_to(out.phases);
  }
  const auto by_start = [](const auto& a, const auto& b) {
    return a.start_seconds < b.start_seconds;
  };
  std::stable_sort(out.spans.begin(), out.spans.end(), by_start);
  std::stable_sort(out.phases.begin(), out.phases.end(), by_start);
  out.workers = r.workers;
  out.meta = r.meta;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t c = g_hist[b].load(std::memory_order_relaxed);
    out.span_durations.buckets[static_cast<std::size_t>(b)] = c;
    out.span_durations.samples += c;
  }
  return out;
}

void reset() {
  Recorder& r = recorder();
  LockGuard lock(r.mu);
  for (Lane* lane : r.lanes) {
    lane->spans.count.store(0, std::memory_order_relaxed);
    lane->phases.count.store(0, std::memory_order_relaxed);
  }
  r.workers.clear();
  r.meta = RunMeta{};
  for (std::atomic<std::uint64_t>& b : g_hist)
    b.store(0, std::memory_order_relaxed);
}

void set_export_paths(const std::string& trace_path,
                      const std::string& metrics_path) {
  Recorder& r = recorder();
  bool need_atexit = false;
  {
    LockGuard lock(r.mu);
    r.trace_path = trace_path;
    r.metrics_path = metrics_path;
    if (!r.atexit_registered) {
      r.atexit_registered = true;
      need_atexit = true;
    }
  }
  // Registered outside the lock: atexit handlers run in reverse order, and
  // this registration happening before the pool's first use means the pool
  // publishes its final worker metrics before the export fires.
  if (need_atexit) std::atexit(export_at_exit);
  set_enabled(true);
}

}  // namespace tseig::obs
