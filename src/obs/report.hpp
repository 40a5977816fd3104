// Analysis and export of recorded telemetry (see obs/telemetry.hpp):
//
//  * utilization analyzer -- the per-phase "where did the time go"
//    attribution: phase wall, work in task spans, serial remainder and
//    parallel efficiency;
//  * roofline analyzer -- joins the flop/byte/hardware-counter costs of
//    the phase records (obs::PhaseRecord) into achieved GFLOP/s,
//    arithmetic intensity, IPC, and %-of-kernel-tier-peak per phase;
//  * exporters -- a Perfetto/Chrome trace (phase records and item spans,
//    run metadata), a stable JSON metrics schema ("tseig-metrics-v2",
//    shared by all benches via bench_support), and a human-readable summary;
//  * report loader for tseig_prof -- rebuilds the summary from a metrics
//    document or the metrics object every exported trace embeds (metrics v1
//    documents still load);
//  * diff/gate -- compares two metrics or bench documents row by row with a
//    noise tolerance, for `tseig_prof diff`/`gate` and scripts/bench_ci.sh.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace tseig::obs {

/// Per-phase attribution of a run.
struct PhaseReport {
  Phase phase = Phase::none;
  std::string name;
  double seconds = 0.0;        ///< wall time of the phase (its records)
  double task_seconds = 0.0;   ///< sum of task-span durations inside it
  double work_seconds = 0.0;   ///< task work + serial (untasked) remainder
  /// Phase wall time not covered by task spans on the phase record's own
  /// lane: the serial remainder look-ahead scheduling attacks in stage 1.
  double serial_seconds = 0.0;
  /// work / (workers * seconds); 0 (never NaN/inf) for zero-duration phases.
  double parallel_efficiency = 0.0;
  idx tasks = 0;

  // Roofline attribution (schema v2).  Raw costs sum the phase records'
  // PhaseCost deltas; the derived ratios are 0 (never NaN/inf) when the
  // denominator is missing -- e.g. no bytes reported, or the hwc backend
  // was off so no cycles were sampled.
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;          ///< nominal operand + packing traffic
  std::uint64_t cycles = 0;         ///< summed over all sampling threads
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  unsigned hwc_valid = 0;           ///< union of hwc::Sample validity bits
  double gflops = 0.0;              ///< flops / phase wall seconds * 1e-9
  double arithmetic_intensity = 0.0;  ///< flops / bytes
  double ipc = 0.0;                 ///< instructions / cycles
  /// flops / (flops_per_cycle_peak * cycles), as a fraction.  Time cancels
  /// out of this identity, so it is correct regardless of how many threads
  /// contributed cycles.  Only meaningful under the perf backend (fallback
  /// "cycles" are clock ticks, not core cycles).
  double pct_of_peak = 0.0;
};

/// The full utilization/roofline report tseig_prof prints.
struct Report {
  RunMeta meta;
  std::string git;
  std::string kernel;  ///< SIMD microkernel tier the run dispatched to
  double wall_seconds = 0.0;          ///< span extent: max end - min start
  double work_seconds = 0.0;          ///< total useful CPU-seconds
  double parallel_efficiency = 0.0;   ///< work / (workers * phase wall)
  std::vector<PhaseReport> phases;    ///< phases with activity only
  std::vector<WorkerMetric> workers;
  HistogramSnapshot span_durations;
  std::string hwc_backend = "off";    ///< "off", "perf", or "fallback"
  double flops_per_cycle_peak = 0.0;  ///< active kernel tier's nominal peak
  idx span_count = 0;
  std::uint64_t dropped_spans = 0;
};

/// Builds the report from a snapshot.
Report analyze(const Snapshot& snap);

/// Chrome-tracing/Perfetto JSON: phase records and item spans as complete
/// events (one row per lane), run metadata, plus the full metrics object
/// embedded under the "tseigMetrics" key so tseig_prof can print the full
/// report from the trace file alone.
std::string to_chrome_trace_json(const Snapshot& snap);

/// The stable metrics document ("schema": "tseig-metrics-v2").
std::string to_metrics_json(const Snapshot& snap);

/// Human-readable summary of a report.
std::string format_report(const Report& report);

/// File writers (throw on I/O failure).
void write_chrome_trace_file(const Snapshot& snap, const std::string& path);
void write_metrics_file(const Snapshot& snap, const std::string& path);

/// Rebuilds a report from a parsed "tseig-metrics-v1" or "-v2" document (or
/// a trace document embedding one under "tseigMetrics").  Entries older
/// documents carry and this schema no longer has (critical_path_seconds,
/// dropped_counters) are ignored.
Report report_from_metrics_json(const JsonValue& doc);

/// Linear-interpolated quantile (q in [0, 1]) of a log-bucket histogram,
/// in seconds, using each bucket's geometric midpoint.  0 when empty.
double histogram_quantile(const HistogramSnapshot& h, double q);

// ---------------------------------------------------------------------------
// Diff / regression gate (tseig_prof diff|gate, scripts/bench_ci.sh).

/// One compared row.  For metrics documents the keys are "wall" and
/// "phase:<name>"; for bench documents, one row per
/// result name.
struct DiffRow {
  std::string key;
  double base_seconds = 0.0;
  double other_seconds = 0.0;
  double delta_pct = 0.0;  ///< (other - base) / base * 100; 0 when base == 0
  bool regression = false;
};

struct DocumentDiff {
  std::string base_label;
  std::string other_label;
  std::vector<DiffRow> rows;  ///< keys present in both documents, base order
  bool regression = false;    ///< any row regressed
};

/// Compares two parsed documents of the same kind: metrics ("tseig-metrics-
/// v1"/"-v2", or traces embedding one) or bench ("tseig-bench-v2").  A row
/// regresses when other > base * (1 + tolerance_frac) and the absolute
/// slowdown exceeds 1 microsecond (sub-us phases are pure timer noise).
/// Throws invalid_argument when either document is neither kind.
DocumentDiff diff_documents(const JsonValue& base, const JsonValue& other,
                            double tolerance_frac);

/// Human-readable diff table (marks regressed rows, prints the verdict).
std::string format_diff(const DocumentDiff& diff);

}  // namespace tseig::obs
