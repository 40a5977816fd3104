#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "blas/kernels/registry.hpp"
#include "obs/json.hpp"

namespace tseig::obs {
namespace {

#ifndef TSEIG_GIT_DESCRIBE
#define TSEIG_GIT_DESCRIBE "unknown"
#endif

/// Formats a double with enough digits for microsecond-resolution
/// timestamps hours into a run.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  // JSON forbids bare nan/inf; clamp to null-ish zero (never produced by
  // healthy runs, but a defensive exporter must not emit invalid JSON).
  if (!std::isfinite(v)) return "0";
  return buf;
}

}  // namespace

Report analyze(const Snapshot& snap) {
  Report rep;
  rep.meta = snap.meta;
  rep.git = TSEIG_GIT_DESCRIBE;
  // The dispatch tier is process-wide and resolved by first use; recording
  // it makes every trace say which microkernels actually ran.
  rep.kernel = blas::kernels::active_kernel_name();
  rep.span_count = static_cast<idx>(snap.spans.size() + snap.phases.size());
  rep.dropped_spans = snap.dropped_spans;
  rep.workers = snap.workers;
  rep.span_durations = snap.span_durations;

  double lo = 0.0, hi = 0.0;
  bool any = false;
  const auto extend = [&](double t0, double t1) {
    lo = any ? std::min(lo, t0) : t0;
    hi = any ? std::max(hi, t1) : t1;
    any = true;
  };

  // Per-phase accumulation.  A task span is part of a phase's wall time when
  // a record of its phase on its own lane contains it; records of one
  // (lane, phase) never overlap, and snap.phases is sorted by start, so each
  // lookup is a binary search.
  struct Acc {
    double phase_seconds = 0.0;
    double task_seconds = 0.0;
    double contained_task_seconds = 0.0;
    idx tasks = 0;
    PhaseCost cost;
  };
  std::vector<Acc> acc(static_cast<size_t>(kPhaseCount));
  std::map<int, std::vector<std::pair<double, double>>> records;
  const auto key = [](std::uint16_t lane, Phase p) {
    return static_cast<int>(lane) * kPhaseCount + static_cast<int>(p);
  };
  for (const PhaseRecord& r : snap.phases) {
    Acc& a = acc[static_cast<size_t>(r.phase)];
    a.phase_seconds += r.end_seconds - r.start_seconds;
    a.cost.add(r.cost);
    records[key(r.lane, r.phase)].emplace_back(r.start_seconds,
                                               r.end_seconds);
    extend(r.start_seconds, r.end_seconds);
  }
  for (const SpanRecord& s : snap.spans) {
    Acc& a = acc[static_cast<size_t>(s.phase)];
    const double d = s.end_seconds - s.start_seconds;
    a.task_seconds += d;
    ++a.tasks;
    extend(s.start_seconds, s.end_seconds);
    const auto it = records.find(key(s.lane, s.phase));
    if (it == records.end()) continue;
    const auto& iv = it->second;
    const auto next = std::upper_bound(
        iv.begin(), iv.end(), s.start_seconds,
        [](double t, const std::pair<double, double>& r) { return t < r.first; });
    if (next != iv.begin() && std::prev(next)->second >= s.end_seconds)
      a.contained_task_seconds += d;
  }
  rep.wall_seconds = hi - lo;

  const int workers = std::max(1, rep.meta.num_workers);

  double phase_wall_total = 0.0;
  for (int p = 0; p < kPhaseCount; ++p) {
    const Acc& a = acc[static_cast<size_t>(p)];
    if (a.phase_seconds == 0.0 && a.tasks == 0) continue;
    PhaseReport pr;
    pr.phase = static_cast<Phase>(p);
    pr.name = phase_name(pr.phase);
    pr.seconds = a.phase_seconds;
    pr.task_seconds = a.task_seconds;
    pr.tasks = a.tasks;
    // Serial remainder: phase wall not covered by the task spans it
    // contains.
    const double serial =
        std::max(0.0, a.phase_seconds - a.contained_task_seconds);
    pr.serial_seconds = serial;
    pr.work_seconds = a.task_seconds + serial;
    // Guarded: a zero-duration phase must report 0, never a NaN/inf that
    // breaks JSON consumers.
    const double phase_capacity =
        static_cast<double>(workers) * a.phase_seconds;
    pr.parallel_efficiency =
        phase_capacity > 0.0 ? pr.work_seconds / phase_capacity : 0.0;
    // Roofline attribution.  Derived ratios stay 0 when the denominator is
    // missing (no bytes reported).
    pr.flops = a.cost.flops;
    pr.bytes = a.cost.bytes;
    if (pr.seconds > 0.0)
      pr.gflops = static_cast<double>(pr.flops) / pr.seconds * 1e-9;
    if (pr.bytes > 0)
      pr.arithmetic_intensity =
          static_cast<double>(pr.flops) / static_cast<double>(pr.bytes);
    rep.phases.push_back(pr);
    rep.work_seconds += pr.work_seconds;
    phase_wall_total += a.phase_seconds;
  }

  const double capacity =
      static_cast<double>(workers) *
      (phase_wall_total > 0.0 ? phase_wall_total : rep.wall_seconds);
  rep.parallel_efficiency = capacity > 0.0 ? rep.work_seconds / capacity : 0.0;
  return rep;
}

std::string to_metrics_json(const Snapshot& snap) {
  const Report rep = analyze(snap);
  std::ostringstream out;
  out << "{\"schema\":\"tseig-metrics-v2\"";
  out << ",\"run\":{\"label\":" << json_string(rep.meta.label)
      << ",\"n\":" << rep.meta.n << ",\"nb\":" << rep.meta.nb
      << ",\"workers\":" << rep.meta.num_workers
      << ",\"method\":" << json_string(rep.meta.method)
      << ",\"git\":" << json_string(rep.git)
      << ",\"kernel\":" << json_string(rep.kernel) << "}";
  out << ",\"totals\":{\"wall_seconds\":" << num(rep.wall_seconds)
      << ",\"work_seconds\":" << num(rep.work_seconds)
      << ",\"parallel_efficiency\":" << num(rep.parallel_efficiency)
      << ",\"spans\":" << rep.span_count
      << ",\"dropped_spans\":" << rep.dropped_spans << "}";
  out << ",\"phases\":[";
  bool first = true;
  for (const PhaseReport& p : rep.phases) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << json_string(p.name)
        << ",\"seconds\":" << num(p.seconds)
        << ",\"task_seconds\":" << num(p.task_seconds)
        << ",\"work_seconds\":" << num(p.work_seconds)
        << ",\"serial_seconds\":" << num(p.serial_seconds)
        << ",\"parallel_efficiency\":" << num(p.parallel_efficiency)
        << ",\"tasks\":" << p.tasks
        << ",\"flops\":" << p.flops << ",\"bytes\":" << p.bytes
        << ",\"gflops\":" << num(p.gflops)
        << ",\"arithmetic_intensity\":" << num(p.arithmetic_intensity)
        << "}";
  }
  out << "],\"histograms\":[";
  const HistogramSnapshot& h = rep.span_durations;
  if (h.samples > 0) {
    out << "{\"name\":\"span_duration\",\"samples\":" << h.samples
        << ",\"buckets\":[";
    for (int b = 0; b < kHistogramBuckets; ++b)
      out << (b > 0 ? "," : "") << h.buckets[static_cast<size_t>(b)];
    out << "]}";
  }
  out << "],\"pool\":[";
  first = true;
  for (const WorkerMetric& w : rep.workers) {
    if (!first) out << ",";
    first = false;
    out << "{\"worker\":" << w.worker
        << ",\"busy_seconds\":" << num(w.busy_seconds)
        << ",\"park_seconds\":" << num(w.park_seconds) << ",\"jobs\":" << w.jobs
        << "}";
  }
  out << "]}";
  return out.str();
}

std::string to_chrome_trace_json(const Snapshot& snap) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& record) {
    if (!first) out << ",";
    first = false;
    out << record;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
       "\"tseig\"}}");
  std::uint16_t max_lane = 0;
  for (const SpanRecord& s : snap.spans) max_lane = std::max(max_lane, s.lane);
  for (const PhaseRecord& r : snap.phases)
    max_lane = std::max(max_lane, r.lane);
  for (std::uint16_t lane = 0; lane <= max_lane; ++lane) {
    std::ostringstream ev;
    ev << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
       << ",\"args\":{\"name\":\"lane " << lane
       << (lane == 0 ? " (caller)" : "") << "\"}}";
    emit(ev.str());
  }

  // One complete event; arg < 0 omits the "arg" entry.
  const auto complete = [&](const char* label, const char* cat,
                            std::uint16_t lane, Phase phase, double t0,
                            double t1, std::int32_t arg) {
    std::ostringstream ev;
    ev << "{\"name\":" << json_string(label) << ",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane
       << ",\"ts\":" << num(t0 * 1e6) << ",\"dur\":" << num((t1 - t0) * 1e6)
       << ",\"args\":{\"phase\":" << json_string(phase_name(phase));
    if (arg >= 0) ev << ",\"arg\":" << arg;
    ev << "}}";
    emit(ev.str());
  };
  for (const PhaseRecord& r : snap.phases)
    complete(r.label, "phase", r.lane, r.phase, r.start_seconds,
             r.end_seconds, -1);
  for (const SpanRecord& s : snap.spans)
    complete(s.label, "task", s.lane, s.phase, s.start_seconds,
             s.end_seconds, s.arg);

  out << "],\"metadata\":{\"schema\":\"tseig-trace-v1\",\"label\":"
      << json_string(snap.meta.label) << ",\"n\":" << snap.meta.n
      << ",\"nb\":" << snap.meta.nb << ",\"workers\":" << snap.meta.num_workers
      << ",\"method\":" << json_string(snap.meta.method)
      << ",\"git\":" << json_string(TSEIG_GIT_DESCRIBE)
      << ",\"kernel\":" << json_string(blas::kernels::active_kernel_name())
      << ",\"dropped_spans\":" << snap.dropped_spans << "}";
  out << ",\"tseigMetrics\":" << to_metrics_json(snap) << "}";
  return out.str();
}

void write_chrome_trace_file(const Snapshot& snap, const std::string& path) {
  std::ofstream f(path);
  if (!f)
    throw invalid_argument("write_chrome_trace_file: cannot open " + path);
  f << to_chrome_trace_json(snap);
  if (!f) throw invalid_argument("write_chrome_trace_file: write failed");
}

void write_metrics_file(const Snapshot& snap, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw invalid_argument("write_metrics_file: cannot open " + path);
  f << to_metrics_json(snap);
  if (!f) throw invalid_argument("write_metrics_file: write failed");
}

}  // namespace tseig::obs
