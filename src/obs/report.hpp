// Analysis and export of recorded telemetry (see obs/telemetry.hpp):
//
//  * utilization analyzer -- the per-phase "where did the time go"
//    attribution: phase wall, work in task spans, serial remainder and
//    parallel efficiency;
//  * roofline analyzer -- joins the flop/byte costs of the phase records
//    (obs::PhaseRecord) into achieved GFLOP/s and arithmetic intensity per
//    phase;
//  * exporters -- a Perfetto/Chrome trace (phase records and item spans,
//    run metadata) and a stable JSON metrics schema ("tseig-metrics-v2").
//
// The library only writes these documents; tools/tseig_prof reads them
// back, renders the report and diffs two of them.
#pragma once

#include <string>
#include <vector>

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
  // denominator is missing (no seconds or no bytes reported).
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;            ///< nominal operand + packing traffic
  double gflops = 0.0;                ///< flops / phase wall seconds * 1e-9
  double arithmetic_intensity = 0.0;  ///< flops / bytes
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

/// File writers (throw on I/O failure).
void write_chrome_trace_file(const Snapshot& snap, const std::string& path);
void write_metrics_file(const Snapshot& snap, const std::string& path);

}  // namespace tseig::obs
