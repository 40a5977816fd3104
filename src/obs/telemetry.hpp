// Process-wide telemetry layer (`tseig::obs`): one solver-wide span/counter
// recorder that unifies every instrumentation path in the library.
//
// The paper's argument is read off execution traces (Figure 2's kernel
// timeline, Figure 1's phase breakdown); before this layer each producer
// (stage 1, the bulge chase, the back-transformations, stedc's merge tree,
// syev_batch) kept its own event vector with its own per-run epoch, so a
// full syev could not be inspected as one timeline.  Design, following StarNEig-style task-library
// tracing:
//
//  * ONE epoch: every timestamp is seconds since a single process-wide
//    steady_clock origin (epoch_seconds/now_seconds).  The pool's loop
//    bodies, the solver phases and the batch scheduler all stamp on this
//    clock, so spans from different subsystems line up without offset
//    splicing.
//  * Per-thread preallocated ring buffers: record_span/record_counter write
//    into a lock-free single-producer ring owned by the calling thread
//    (registered once, on first record).  No allocation and no locks on the
//    hot path; overflow overwrites the oldest records and is counted.
//  * A relaxed atomic enabled flag: when telemetry is off, every span
//    costs exactly one predictable branch (see Span) -- cheap enough to keep
//    the instrumentation compiled in everywhere, always.
//  * Pool metrics: ThreadPool reports per-worker busy/park time.
//    obs/report.hpp turns spans, phase costs and these into the
//    utilization and roofline analysis behind the tseig_prof report.
//
// Activation: set TSEIG_TRACE=<path> (Chrome/Perfetto trace) and/or
// TSEIG_METRICS=<path> (metrics JSON) in the environment -- recording starts
// at load and the files are written at process exit -- or programmatically
// via set_enabled()/set_export_paths(), or per solve via
// SyevOptions::trace_path / metrics_path.
//
// Label lifetime: labels are `const char*` pointers stored verbatim (no
// copy, no hash) and must outlive the process -- use string literals.  This
// is the label-interning contract that keeps tracing overhead bounded.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tseig::obs {

// ---------------------------------------------------------------------------
// Enable flag and clock.

namespace detail {
/// The process-wide enable flag.  Constant-initialized, flipped by the env
/// probe at load or by set_enabled(); hot paths read it relaxed.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when telemetry is recording.  One relaxed load; the caller's branch
/// on the result is the entire disabled-path cost of a span.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off (process-wide).
void set_enabled(bool on);

/// Seconds since the process-wide epoch (a steady_clock origin captured at
/// load).  All spans and counters share this time base.
double now_seconds();

// ---------------------------------------------------------------------------
// Phases.

/// Solver phase a span belongs to.  A small closed enum instead of free-form
/// strings so per-phase aggregation is an array index and the recorded
/// attribution maps one-to-one onto PhaseBreakdown.
enum class Phase : std::uint8_t {
  none = 0,   // outside any solver phase
  stage1,     // two-stage: dense -> band (sy2sb)
  stage2,     // two-stage: bulge chasing (sb2st)
  sytrd,      // one-stage reduction
  solve,      // eigen of T (stedc / steqr / bisect)
  update,     // back-transformation(s) (q2, q1, ormtr)
  batch,      // syev_batch scheduling region
  small_n,    // closed-form n <= 3 fast lane (solver::small)
  count
};
constexpr int kPhaseCount = static_cast<int>(Phase::count);
const char* phase_name(Phase p);

/// Current phase attribution for newly recorded spans.  Process-wide (the
/// solver's phases are sequential within a solve; concurrent batch clients
/// all record under Phase::batch), relaxed atomic.
Phase current_phase();

/// RAII phase scope: sets the process-wide current phase, restores the
/// previous one on destruction.  No-op (one branch) when disabled.
class PhaseScope {
public:
  explicit PhaseScope(Phase p);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

private:
  Phase saved_ = Phase::none;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Records.

/// One recorded span.  32 bytes; label is a borrowed static string.
struct SpanRecord {
  const char* label = "";
  std::int32_t arg = -1;        ///< optional instance id (sweep, problem, ...)
  std::uint16_t lane = 0;       ///< recording thread's lane (see thread_lane)
  Phase phase = Phase::none;
  std::uint8_t is_phase = 0;    ///< 1 for phase-level spans (syev's timed())
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// One counter sample (instantaneous value on the shared clock).
struct CounterRecord {
  const char* name = "";
  double t_seconds = 0.0;
  double value = 0.0;
};

/// Lane id of the calling thread (registered on first use).  Lane 0 is the
/// first recording thread (normally the caller/main thread); pool workers
/// get their own lanes.  Stable for the thread's lifetime.
std::uint16_t thread_lane();

/// Records a completed span on the calling thread's ring.  `t0`/`t1` are
/// now_seconds() stamps.  No-op when disabled.
void record_span(const char* label, double t0, double t1,
                 std::int32_t arg = -1);
void record_phase_span(const char* label, Phase phase, double t0, double t1);

/// Records a counter sample stamped now.  No-op when disabled.
void record_counter(const char* name, double value);

/// RAII span: stamps start on construction, records on destruction.  When
/// telemetry is disabled both ends cost one predictable branch.
class Span {
public:
  explicit Span(const char* label, std::int32_t arg = -1) {
    if (!enabled()) return;
    label_ = label;
    arg_ = arg;
    start_ = now_seconds();
  }
  ~Span() {
    if (label_ != nullptr) record_span(label_, start_, now_seconds(), arg_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* label_ = nullptr;
  std::int32_t arg_ = -1;
  double start_ = 0.0;
};

// ---------------------------------------------------------------------------
// Per-phase resource costs (fed by syev's timed() and the pool workers; the
// roofline analyzer in obs/report.hpp joins them with the phase wall time).

/// Accumulated resource deltas of one phase: flop/byte counters (FlopScope /
/// ByteScope around the phase body) plus hardware-counter deltas (obs/hwc).
/// Cycles sum over every sampling thread, so flops / (flops_per_cycle *
/// cycles) is the phase's fraction of peak regardless of worker count.
struct PhaseCost {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  unsigned hwc_valid = 0;  ///< union of hwc::Sample validity masks seen

  void add(const PhaseCost& d) {
    flops += d.flops;
    bytes += d.bytes;
    cycles += d.cycles;
    instructions += d.instructions;
    llc_misses += d.llc_misses;
    stalled_cycles += d.stalled_cycles;
    hwc_valid |= d.hwc_valid;
  }
};

/// Adds `delta` into the process-wide per-phase cost table (mutex-guarded;
/// called at phase boundaries and fork_join body boundaries -- cold).
/// No-op when disabled.
void record_phase_cost(Phase p, const PhaseCost& delta);

// ---------------------------------------------------------------------------
// Log-bucket duration histograms.
//
// The span/counter rings overwrite their oldest records on overflow, so the
// tail of a long run silently vanishes from raw exports.  These process-wide
// histograms never drop: one atomic increment per sample into 64 log2(ns)
// buckets (bucket i covers [2^i, 2^(i+1)) nanoseconds; <= 1 ns lands in
// bucket 0, overflow clamps to the last).  record_span feeds the
// span-duration histogram automatically.

constexpr int kHistogramBuckets = 64;

/// The tracked duration distributions.
enum class Histogram : std::uint8_t {
  span_duration = 0,  ///< every recorded span's end - start
  count
};
constexpr int kHistogramCount = static_cast<int>(Histogram::count);
const char* histogram_name(Histogram h);

/// Bucket index for a duration (exposed for the bucketing tests).
int log2_ns_bucket(double seconds);

/// Representative duration (seconds) of a bucket: the geometric midpoint of
/// [2^i, 2^(i+1)) ns.  Inverse-ish of log2_ns_bucket for rendering.
double bucket_mid_seconds(int bucket);

/// Adds one sample.  Lock-free (relaxed atomic increment); no-op when
/// disabled.
void record_histogram(Histogram h, double seconds);

/// One exported histogram: bucket counts plus the total sample count.
struct HistogramSnapshot {
  Histogram which = Histogram::span_duration;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t samples = 0;
};

// ---------------------------------------------------------------------------
// Pool metrics (fed by ThreadPool, cold paths).

/// Per-pool-worker time accounting, published by ThreadPool.  The hardware
/// counters accumulate over the worker's fork_join bodies when obs/hwc
/// sampling is on (hwc_valid == 0 otherwise).
struct WorkerMetric {
  int worker = 0;
  double busy_seconds = 0.0;  ///< executing fork_join bodies
  double park_seconds = 0.0;  ///< blocked waiting for work
  std::uint64_t jobs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  unsigned hwc_valid = 0;
};

/// Replaces the stored per-worker metrics (ThreadPool publishes a snapshot
/// whenever a fork_join completes and, finally, at pool shutdown, so exports
/// never need to touch the possibly-destroyed pool).
void publish_worker_metrics(const std::vector<WorkerMetric>& workers);

// ---------------------------------------------------------------------------
// Run metadata and snapshotting.

/// Metadata stamped into exports (n/nb/workers of the run; git revision is
/// added by the exporter from the build definition).
struct RunMeta {
  std::string label;  ///< e.g. "syev", "syev_batch", bench name
  idx n = 0;
  idx nb = 0;
  int num_workers = 0;
};
void set_run_meta(const RunMeta& meta);

/// A coherent copy of everything recorded so far.  Take it after the solve
/// (outside parallel regions); rings are single-producer, so a snapshot
/// while a worker is mid-record could tear that one newest entry.
struct Snapshot {
  std::vector<SpanRecord> spans;        ///< merged, sorted by start time
  std::vector<CounterRecord> counters;  ///< merged, sorted by time
  std::vector<WorkerMetric> workers;
  std::array<PhaseCost, static_cast<std::size_t>(kPhaseCount)> phase_costs{};
  std::vector<HistogramSnapshot> histograms;  ///< one per Histogram id
  RunMeta meta;
  std::string hwc_backend = "off";    ///< obs/hwc backend that sampled
  std::uint64_t dropped_spans = 0;    ///< ring overwrites (oldest lost)
  std::uint64_t dropped_counters = 0;
};
Snapshot snapshot();

/// Clears all recorded data (spans, counters, costs, meta).  Buffers
/// stay allocated.  Call between runs for per-run exports.
void reset();

/// Enables recording and registers an at-exit export of the current data to
/// the given paths (empty = skip that exporter).  The TSEIG_TRACE /
/// TSEIG_METRICS environment probe funnels through this.
void set_export_paths(const std::string& trace_path,
                      const std::string& metrics_path);

}  // namespace tseig::obs
