// Process-wide telemetry layer (`tseig::obs`): one solver-wide span and
// phase recorder that unifies every instrumentation path in the library.
//
// The paper's argument is read off execution traces (Figure 2's kernel
// timeline, Figure 1's phase breakdown); before this layer each producer
// (stage 1, the bulge chase, the back-transformations, stedc's merge tree,
// syev_batch) kept its own event vector with its own per-run epoch, so a
// full syev could not be inspected as one timeline.  Design, following
// StarNEig-style task-library tracing:
//
//  * ONE epoch: every timestamp is seconds since a single process-wide
//    steady_clock origin (epoch_seconds/now_seconds).  The pool's loop
//    bodies, the solver phases and the batch scheduler all stamp on this
//    clock, so spans from different subsystems line up without offset
//    splicing.
//  * Per-thread preallocated ring buffers: record_span/record_phase write
//    into lock-free single-producer rings owned by the calling thread
//    (registered once, on first record).  No allocation and no locks on the
//    hot path; overflow overwrites the oldest records and is counted.
//  * A relaxed atomic enabled flag: when telemetry is off, every span
//    costs exactly one predictable branch (see Span) -- cheap enough to keep
//    the instrumentation compiled in everywhere, always.
//  * Phases follow the forking thread: the current phase is per thread, and
//    ThreadPool::fork_join runs every body under the phase of the thread
//    that forked it -- the rule flop and byte counts already follow -- so
//    concurrent solves and batch members never tag each other's spans.
//  * Pool metrics: ThreadPool reports per-worker busy/park time.
//
// The library records and writes: obs/report.hpp turns spans, phase records
// and pool metrics into the utilization and roofline analysis and writes the
// Chrome trace and the metrics JSON.  Reading an export back (the report
// text, diff and gate) is tools/tseig_prof's job.
//
// Activation: set TSEIG_TRACE=<path> (Chrome/Perfetto trace) and/or
// TSEIG_METRICS=<path> (metrics JSON) in the environment -- recording starts
// at load and the files are written at process exit -- or programmatically
// via set_export_paths(), or set_enabled() + snapshot() + the write_*_file
// exporters of obs/report.hpp.  Recording is process-wide: a capture holds
// everything every thread did while it was on.
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
/// load).  All spans and phase records share this time base.
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

/// The calling thread's current phase, which newly recorded spans carry.
/// Pool workers run each fork_join body under the forking thread's phase.
Phase current_phase();

/// RAII phase scope: sets the calling thread's current phase, restores the
/// previous one on destruction.  Two thread-local stores, whether or not
/// telemetry is recording.
class PhaseScope {
public:
  explicit PhaseScope(Phase p);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

private:
  Phase saved_;
};

// ---------------------------------------------------------------------------
// Records.

/// One recorded item span.  32 bytes; label is a borrowed static string.
struct SpanRecord {
  const char* label = "";
  std::int32_t arg = -1;        ///< optional instance id (sweep, problem, ...)
  /// Recording thread's lane: registered on the thread's first record, in
  /// order (lane 0 is normally the caller/main thread), stable for the
  /// thread's lifetime.
  std::uint16_t lane = 0;
  Phase phase = Phase::none;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Resource deltas of one phase: the flop/byte counters (FlopScope /
/// ByteScope around the phase body).  They include the work of the pool
/// bodies the phase forked, which fork_join credits back to the forking
/// thread.
struct PhaseCost {
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;

  void add(const PhaseCost& d) {
    flops += d.flops;
    bytes += d.bytes;
  }
};

/// One phase of one solve on the thread that ran it: the record the
/// utilization and roofline analyses are built from.
struct PhaseRecord {
  const char* label = "";
  Phase phase = Phase::none;
  std::uint16_t lane = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  PhaseCost cost;
};

/// Records a completed item span on the calling thread's ring, under the
/// thread's current phase.  `t0`/`t1` are now_seconds() stamps.  No-op when
/// disabled.
void record_span(const char* label, double t0, double t1,
                 std::int32_t arg = -1);

/// Records one phase [t0, t1] with its cost on the calling thread's lane.
/// No-op when disabled.
void record_phase(const char* label, Phase phase, double t0, double t1,
                  const PhaseCost& cost);

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
// Span-duration histogram.
//
// The span rings overwrite their oldest records on overflow, so the tail of
// a long run silently vanishes from raw exports.  This process-wide
// histogram never drops: record_span adds one relaxed atomic increment per
// span into 64 log2(ns) buckets (bucket i covers [2^i, 2^(i+1))
// nanoseconds; <= 1 ns lands in bucket 0, overflow clamps to the last).

constexpr int kHistogramBuckets = 64;

/// Bucket index for a duration (exposed for the bucketing tests).
int log2_ns_bucket(double seconds);

/// Representative duration (seconds) of a bucket: the geometric midpoint of
/// [2^i, 2^(i+1)) ns.  Inverse-ish of log2_ns_bucket for rendering.
double bucket_mid_seconds(int bucket);

/// Bucket counts plus the total sample count.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t samples = 0;
};

// ---------------------------------------------------------------------------
// Pool metrics (fed by ThreadPool, cold paths).

/// Per-pool-worker time accounting, published by ThreadPool.
struct WorkerMetric {
  int worker = 0;
  double busy_seconds = 0.0;  ///< executing fork_join bodies
  double park_seconds = 0.0;  ///< blocked waiting for work
  std::uint64_t jobs = 0;
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
  /// Reduction that ran: "one_stage", "two_stage", "small_n" (closed-form
  /// lane), several joined by '+' for a batch; empty when not a solve.
  std::string method;
};
void set_run_meta(const RunMeta& meta);

/// A coherent copy of everything recorded so far.  Take it after the solve
/// (outside parallel regions); rings are single-producer, so a snapshot
/// while a worker is mid-record could tear that one newest entry.
struct Snapshot {
  std::vector<SpanRecord> spans;    ///< merged, sorted by start time
  std::vector<PhaseRecord> phases;  ///< merged, sorted by start time
  std::vector<WorkerMetric> workers;
  HistogramSnapshot span_durations;
  RunMeta meta;
  /// Item spans and phase records lost to ring overwrite (oldest first).
  std::uint64_t dropped_spans = 0;
};
Snapshot snapshot();

/// Clears all recorded data (spans, phase records, histogram, meta).
/// Buffers stay allocated.  Call between runs for per-run exports.
void reset();

/// Enables recording and registers an at-exit export of the current data to
/// the given paths (empty = skip that exporter).  The TSEIG_TRACE /
/// TSEIG_METRICS environment probe funnels through this.
void set_export_paths(const std::string& trace_path,
                      const std::string& metrics_path);

}  // namespace tseig::obs
