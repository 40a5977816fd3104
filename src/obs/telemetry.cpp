#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.hpp"
#include "obs/hwc.hpp"
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

constexpr std::size_t kCounterCapacity = 1 << 14;

/// Per-thread recording lane: preallocated single-producer rings.  Owned by
/// the global registry (never freed), so snapshots may read them after the
/// recording thread exited.
struct Lane {
  std::uint16_t id = 0;
  std::vector<SpanRecord> spans;      // ring storage, size = capacity
  std::vector<CounterRecord> counters;
  // Monotone push counts; slot = count % capacity.  The writer publishes
  // with a release store so a post-quiescence reader sees complete records.
  std::atomic<std::uint64_t> span_count{0};
  std::atomic<std::uint64_t> counter_count{0};

  explicit Lane(std::uint16_t lane_id) : id(lane_id) {
    spans.resize(ring_capacity());
    counters.resize(kCounterCapacity);
  }

  void push_span(const SpanRecord& rec) {
    const std::uint64_t c = span_count.load(std::memory_order_relaxed);
    spans[static_cast<std::size_t>(c % spans.size())] = rec;
    span_count.store(c + 1, std::memory_order_release);
  }

  void push_counter(const CounterRecord& rec) {
    const std::uint64_t c = counter_count.load(std::memory_order_relaxed);
    counters[static_cast<std::size_t>(c % counters.size())] = rec;
    counter_count.store(c + 1, std::memory_order_release);
  }
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
  PhaseCost phase_costs[kPhaseCount] TSEIG_GUARDED_BY(mu);
  RunMeta meta TSEIG_GUARDED_BY(mu);
  std::string trace_path TSEIG_GUARDED_BY(mu);
  std::string metrics_path TSEIG_GUARDED_BY(mu);
  bool atexit_registered TSEIG_GUARDED_BY(mu) = false;
};

/// Histogram storage: process-wide atomic bucket arrays (lock-free adds,
/// never dropped -- the whole point is surviving ring overwrite).
std::atomic<std::uint64_t>
    g_hist[kHistogramCount][kHistogramBuckets];

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during atexit
  return *r;
}

std::atomic<std::uint8_t> g_phase{0};

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

Phase current_phase() {
  return static_cast<Phase>(g_phase.load(std::memory_order_relaxed));
}

PhaseScope::PhaseScope(Phase p) {
  if (!enabled()) return;
  active_ = true;
  saved_ = current_phase();
  g_phase.store(static_cast<std::uint8_t>(p), std::memory_order_relaxed);
}

PhaseScope::~PhaseScope() {
  if (active_)
    g_phase.store(static_cast<std::uint8_t>(saved_),
                  std::memory_order_relaxed);
}

std::uint16_t thread_lane() { return this_lane().id; }

void record_span(const char* label, double t0, double t1, std::int32_t arg) {
  if (!enabled()) return;
  Lane& lane = this_lane();
  SpanRecord rec;
  rec.label = label;
  rec.arg = arg;
  rec.lane = lane.id;
  rec.phase = current_phase();
  rec.start_seconds = t0;
  rec.end_seconds = t1;
  lane.push_span(rec);
  record_histogram(Histogram::span_duration, t1 - t0);
}

void record_phase_span(const char* label, Phase phase, double t0, double t1) {
  if (!enabled()) return;
  Lane& lane = this_lane();
  SpanRecord rec;
  rec.label = label;
  rec.lane = lane.id;
  rec.phase = phase;
  rec.is_phase = 1;
  rec.start_seconds = t0;
  rec.end_seconds = t1;
  lane.push_span(rec);
}

const char* histogram_name(Histogram h) {
  switch (h) {
    case Histogram::span_duration: return "span_duration";
    case Histogram::count: break;
  }
  return "?";
}

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

void record_histogram(Histogram h, double seconds) {
  if (!enabled()) return;
  const int which = static_cast<int>(h);
  if (which < 0 || which >= kHistogramCount) return;
  g_hist[which][log2_ns_bucket(seconds)].fetch_add(
      1, std::memory_order_relaxed);
}

void record_phase_cost(Phase p, const PhaseCost& delta) {
  if (!enabled()) return;
  const int which = static_cast<int>(p);
  if (which < 0 || which >= kPhaseCount) return;
  Recorder& r = recorder();
  LockGuard lock(r.mu);
  r.phase_costs[which].add(delta);
}

void record_counter(const char* name, double value) {
  if (!enabled()) return;
  Lane& lane = this_lane();
  lane.push_counter({name, now_seconds(), value});
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
    const std::uint64_t nspans =
        lane->span_count.load(std::memory_order_acquire);
    const std::uint64_t cap = lane->spans.size();
    const std::uint64_t kept = std::min(nspans, cap);
    out.dropped_spans += nspans - kept;
    for (std::uint64_t k = nspans - kept; k < nspans; ++k)
      out.spans.push_back(lane->spans[static_cast<std::size_t>(k % cap)]);

    const std::uint64_t nctr =
        lane->counter_count.load(std::memory_order_acquire);
    const std::uint64_t ccap = lane->counters.size();
    const std::uint64_t ckept = std::min(nctr, ccap);
    out.dropped_counters += nctr - ckept;
    for (std::uint64_t k = nctr - ckept; k < nctr; ++k)
      out.counters.push_back(
          lane->counters[static_cast<std::size_t>(k % ccap)]);
  }
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_seconds < b.start_seconds;
                   });
  std::stable_sort(out.counters.begin(), out.counters.end(),
                   [](const CounterRecord& a, const CounterRecord& b) {
                     return a.t_seconds < b.t_seconds;
                   });
  out.workers = r.workers;
  out.meta = r.meta;
  for (int p = 0; p < kPhaseCount; ++p)
    out.phase_costs[static_cast<std::size_t>(p)] = r.phase_costs[p];
  for (int h = 0; h < kHistogramCount; ++h) {
    HistogramSnapshot hs;
    hs.which = static_cast<Histogram>(h);
    for (int b = 0; b < kHistogramBuckets; ++b) {
      hs.buckets[static_cast<std::size_t>(b)] =
          g_hist[h][b].load(std::memory_order_relaxed);
      hs.samples += hs.buckets[static_cast<std::size_t>(b)];
    }
    out.histograms.push_back(hs);
  }
  out.hwc_backend = hwc::backend_name();
  return out;
}

void reset() {
  Recorder& r = recorder();
  LockGuard lock(r.mu);
  for (Lane* lane : r.lanes) {
    lane->span_count.store(0, std::memory_order_relaxed);
    lane->counter_count.store(0, std::memory_order_relaxed);
  }
  r.workers.clear();
  r.meta = RunMeta{};
  for (int p = 0; p < kPhaseCount; ++p) r.phase_costs[p] = PhaseCost{};
  for (int h = 0; h < kHistogramCount; ++h)
    for (int b = 0; b < kHistogramBuckets; ++b)
      g_hist[h][b].store(0, std::memory_order_relaxed);
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
