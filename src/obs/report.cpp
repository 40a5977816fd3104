#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "blas/kernels/registry.hpp"
#include "obs/hwc.hpp"

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

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Phase from its exported name (report loaders).
Phase phase_from_name(const std::string& name) {
  for (int p = 0; p < kPhaseCount; ++p)
    if (name == phase_name(static_cast<Phase>(p)))
      return static_cast<Phase>(p);
  return Phase::none;
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
  rep.hwc_backend = snap.hwc_backend;
  rep.flops_per_cycle_peak = blas::kernels::active_kernel().flops_per_cycle;
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
    // missing (no bytes reported, hwc off).
    pr.flops = a.cost.flops;
    pr.bytes = a.cost.bytes;
    pr.cycles = a.cost.hw.cycles;
    pr.instructions = a.cost.hw.instructions;
    pr.llc_misses = a.cost.hw.llc_misses;
    pr.stalled_cycles = a.cost.hw.stalled_cycles;
    pr.hwc_valid = a.cost.hw.valid;
    if (pr.seconds > 0.0)
      pr.gflops = static_cast<double>(pr.flops) / pr.seconds * 1e-9;
    if (pr.bytes > 0)
      pr.arithmetic_intensity =
          static_cast<double>(pr.flops) / static_cast<double>(pr.bytes);
    if ((pr.hwc_valid & hwc::kCycles) != 0 && pr.cycles > 0) {
      if ((pr.hwc_valid & hwc::kInstructions) != 0)
        pr.ipc = static_cast<double>(pr.instructions) /
                 static_cast<double>(pr.cycles);
      if (rep.flops_per_cycle_peak > 0.0)
        pr.pct_of_peak = static_cast<double>(pr.flops) /
                         (rep.flops_per_cycle_peak *
                          static_cast<double>(pr.cycles));
    }
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

namespace {

/// Writes the metrics object body (shared between the metrics file and the
/// "tseigMetrics" key embedded in the Chrome trace).
std::string metrics_object(const Snapshot& snap) {
  const Report rep = analyze(snap);
  std::ostringstream out;
  out << "{\"schema\":\"tseig-metrics-v2\"";
  out << ",\"run\":{\"label\":" << json_string(rep.meta.label)
      << ",\"n\":" << rep.meta.n << ",\"nb\":" << rep.meta.nb
      << ",\"workers\":" << rep.meta.num_workers
      << ",\"method\":" << json_string(rep.meta.method)
      << ",\"git\":" << json_string(rep.git)
      << ",\"kernel\":" << json_string(rep.kernel)
      << ",\"hwc_backend\":" << json_string(rep.hwc_backend)
      << ",\"flops_per_cycle_peak\":" << num(rep.flops_per_cycle_peak) << "}";
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
        << ",\"cycles\":" << p.cycles
        << ",\"instructions\":" << p.instructions
        << ",\"llc_misses\":" << p.llc_misses
        << ",\"stalled_cycles\":" << p.stalled_cycles
        << ",\"hwc_valid\":" << p.hwc_valid
        << ",\"gflops\":" << num(p.gflops)
        << ",\"arithmetic_intensity\":" << num(p.arithmetic_intensity)
        << ",\"ipc\":" << num(p.ipc)
        << ",\"pct_of_peak\":" << num(p.pct_of_peak) << "}";
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

}  // namespace

std::string to_metrics_json(const Snapshot& snap) {
  return metrics_object(snap);
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
      << ",\"hwc_backend\":" << json_string(snap.hwc_backend)
      << ",\"dropped_spans\":" << snap.dropped_spans << "}";
  out << ",\"tseigMetrics\":" << metrics_object(snap) << "}";
  return out.str();
}

std::string format_report(const Report& rep) {
  std::ostringstream out;
  out << "tseig telemetry report";
  if (!rep.meta.label.empty()) out << " -- " << rep.meta.label;
  out << " (n=" << rep.meta.n << ", nb=" << rep.meta.nb
      << ", workers=" << rep.meta.num_workers;
  if (!rep.meta.method.empty()) out << ", method=" << rep.meta.method;
  out << ", git " << rep.git
      << ", kernel " << (rep.kernel.empty() ? "unknown" : rep.kernel)
      << ")\n";
  out << "  wall                " << fmt("%10.6f", rep.wall_seconds) << " s   ("
      << rep.span_count << " spans, " << rep.dropped_spans << " dropped)\n";
  if (rep.dropped_spans > 0)
    out << "  WARNING: " << rep.dropped_spans
        << " spans dropped (ring overwrite) -- raise TSEIG_TRACE_CAPACITY\n";
  out << "  work                " << fmt("%10.6f", rep.work_seconds)
      << " cpu-s\n";
  out << "  parallel efficiency " << fmt("%10.1f", rep.parallel_efficiency * 100)
      << " %\n";

  if (!rep.phases.empty()) {
    double total = 0.0;
    for (const PhaseReport& p : rep.phases) total += p.seconds;
    out << "\n  phase        wall s      %     work s   "
           "serial s   eff %   tasks\n";
    for (const PhaseReport& p : rep.phases) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "  %-10s %9.6f  %5.1f  %9.6f  %9.6f  %6.1f  %6lld\n",
                    p.name.c_str(), p.seconds,
                    total > 0.0 ? 100.0 * p.seconds / total : 0.0,
                    p.work_seconds, p.serial_seconds,
                    p.parallel_efficiency * 100.0,
                    static_cast<long long>(p.tasks));
      out << line;
    }
  }

  // Roofline attribution: printed when any phase reported flops.  The
  // %-of-peak and IPC columns need real core cycles, so they show "-" under
  // the fallback backend (clock ticks, not cycles) or when hwc was off.
  bool any_flops = false;
  for (const PhaseReport& p : rep.phases) any_flops |= p.flops > 0;
  if (any_flops) {
    out << "\n  roofline (hwc backend: "
        << (rep.hwc_backend.empty() ? "off" : rep.hwc_backend)
        << ", tier peak " << fmt("%.1f", rep.flops_per_cycle_peak)
        << " flops/cycle)\n";
    out << "  phase         gflop      bytes  gflop/s     AI  "
           "   IPC   peak %\n";
    const bool real_cycles = rep.hwc_backend == "perf";
    for (const PhaseReport& p : rep.phases) {
      if (p.flops == 0 && p.bytes == 0) continue;
      char line[200];
      std::snprintf(line, sizeof line, "  %-10s %8.3f  %9s  %7.2f  %5.2f",
                    p.name.c_str(), static_cast<double>(p.flops) * 1e-9,
                    fmt("%.3g", static_cast<double>(p.bytes)).c_str(),
                    p.gflops, p.arithmetic_intensity);
      out << line;
      if (real_cycles && (p.hwc_valid & hwc::kCycles) != 0) {
        char tail[64];
        std::snprintf(tail, sizeof tail, "  %5.2f  %6.1f\n", p.ipc,
                      p.pct_of_peak * 100.0);
        out << tail;
      } else {
        out << "      -       -\n";
      }
    }
  }

  if (const HistogramSnapshot& h = rep.span_durations; h.samples > 0) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "\n  duration histograms (log2-ns buckets):\n"
                  "    span_duration  %10llu samples  p50 %9.1fus  "
                  "p90 %9.1fus  p99 %9.1fus\n",
                  static_cast<unsigned long long>(h.samples),
                  histogram_quantile(h, 0.50) * 1e6,
                  histogram_quantile(h, 0.90) * 1e6,
                  histogram_quantile(h, 0.99) * 1e6);
    out << line;
  }

  if (!rep.workers.empty()) {
    out << "\n  pool workers:\n";
    for (const WorkerMetric& w : rep.workers) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "    worker %d: busy %.6fs park %.6fs jobs %llu\n",
                    w.worker, w.busy_seconds, w.park_seconds,
                    static_cast<unsigned long long>(w.jobs));
      out << line;
    }
  }
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

Report report_from_metrics_json(const JsonValue& doc) {
  const JsonValue* metrics = doc.find("tseigMetrics");
  const JsonValue& m = metrics != nullptr ? *metrics : doc;
  const std::string schema = m.string_or("schema", "");
  require(schema == "tseig-metrics-v1" || schema == "tseig-metrics-v2",
          "report_from_metrics_json: not a tseig-metrics-v1/v2 document");

  Report rep;
  if (const JsonValue* run = m.find("run")) {
    rep.meta.label = run->string_or("label", "");
    rep.meta.n = static_cast<idx>(run->number_or("n", 0));
    rep.meta.nb = static_cast<idx>(run->number_or("nb", 0));
    rep.meta.num_workers = static_cast<int>(run->number_or("workers", 0));
    rep.meta.method = run->string_or("method", "");
    rep.git = run->string_or("git", "unknown");
    rep.kernel = run->string_or("kernel", "unknown");
    rep.hwc_backend = run->string_or("hwc_backend", "off");
    rep.flops_per_cycle_peak = run->number_or("flops_per_cycle_peak", 0.0);
  }
  if (const JsonValue* t = m.find("totals")) {
    rep.wall_seconds = t->number_or("wall_seconds", 0.0);
    rep.work_seconds = t->number_or("work_seconds", 0.0);
    rep.parallel_efficiency = t->number_or("parallel_efficiency", 0.0);
    rep.span_count = static_cast<idx>(t->number_or("spans", 0));
    rep.dropped_spans =
        static_cast<std::uint64_t>(t->number_or("dropped_spans", 0));
  }
  if (const JsonValue* phases = m.find("phases")) {
    for (const JsonValue& p : phases->as_array()) {
      PhaseReport pr;
      pr.name = p.string_or("name", "?");
      pr.phase = phase_from_name(pr.name);
      pr.seconds = p.number_or("seconds", 0.0);
      pr.task_seconds = p.number_or("task_seconds", 0.0);
      pr.work_seconds = p.number_or("work_seconds", 0.0);
      pr.serial_seconds = p.number_or("serial_seconds", 0.0);
      pr.parallel_efficiency = p.number_or("parallel_efficiency", 0.0);
      pr.tasks = static_cast<idx>(p.number_or("tasks", 0));
      pr.flops = static_cast<std::uint64_t>(p.number_or("flops", 0));
      pr.bytes = static_cast<std::uint64_t>(p.number_or("bytes", 0));
      pr.cycles = static_cast<std::uint64_t>(p.number_or("cycles", 0));
      pr.instructions =
          static_cast<std::uint64_t>(p.number_or("instructions", 0));
      pr.llc_misses = static_cast<std::uint64_t>(p.number_or("llc_misses", 0));
      pr.stalled_cycles =
          static_cast<std::uint64_t>(p.number_or("stalled_cycles", 0));
      pr.hwc_valid = static_cast<unsigned>(p.number_or("hwc_valid", 0));
      pr.gflops = p.number_or("gflops", 0.0);
      pr.arithmetic_intensity = p.number_or("arithmetic_intensity", 0.0);
      pr.ipc = p.number_or("ipc", 0.0);
      pr.pct_of_peak = p.number_or("pct_of_peak", 0.0);
      rep.phases.push_back(pr);
    }
  }
  if (const JsonValue* hists = m.find("histograms")) {
    for (const JsonValue& h : hists->as_array()) {
      if (h.string_or("name", "") != "span_duration") continue;
      HistogramSnapshot& hs = rep.span_durations;
      hs.samples = static_cast<std::uint64_t>(h.number_or("samples", 0));
      if (const JsonValue* buckets = h.find("buckets")) {
        const auto& arr = buckets->as_array();
        for (size_t b = 0;
             b < arr.size() && b < static_cast<size_t>(kHistogramBuckets); ++b)
          hs.buckets[b] = static_cast<std::uint64_t>(arr[b].as_number());
      }
    }
  }
  if (const JsonValue* pool = m.find("pool")) {
    for (const JsonValue& w : pool->as_array()) {
      WorkerMetric wm;
      wm.worker = static_cast<int>(w.number_or("worker", 0));
      wm.busy_seconds = w.number_or("busy_seconds", 0.0);
      wm.park_seconds = w.number_or("park_seconds", 0.0);
      wm.jobs = static_cast<std::uint64_t>(w.number_or("jobs", 0));
      rep.workers.push_back(wm);
    }
  }
  return rep;
}

double histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.samples == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(h.samples);
  double seen = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const double c = static_cast<double>(h.buckets[static_cast<size_t>(b)]);
    if (seen + c >= target && c > 0.0) return bucket_mid_seconds(b);
    seen += c;
  }
  // All mass below target (rounding): last non-empty bucket.
  for (int b = kHistogramBuckets - 1; b >= 0; --b)
    if (h.buckets[static_cast<size_t>(b)] > 0) return bucket_mid_seconds(b);
  return 0.0;
}

namespace {

/// The comparable "name -> seconds" series of a document: either a metrics
/// report (wall, per-phase wall) or a tseig-bench-v2 results
/// list.  diff_documents joins two of these on key.
struct SeriesDoc {
  std::string label;
  std::vector<std::pair<std::string, double>> rows;
};

SeriesDoc series_from_document(const JsonValue& doc) {
  SeriesDoc s;
  const JsonValue* metrics = doc.find("tseigMetrics");
  const JsonValue& m = metrics != nullptr ? *metrics : doc;
  if (m.string_or("schema", "") == "tseig-bench-v2") {
    s.label = m.string_or("bench", "bench");
    if (const JsonValue* results = m.find("results"))
      for (const JsonValue& r : results->as_array())
        s.rows.emplace_back(r.string_or("name", "?"),
                            r.number_or("seconds", 0.0));
    return s;
  }
  const Report rep = report_from_metrics_json(doc);
  s.label = rep.meta.label.empty() ? "metrics" : rep.meta.label;
  s.rows.emplace_back("wall", rep.wall_seconds);
  for (const PhaseReport& p : rep.phases)
    s.rows.emplace_back("phase:" + p.name, p.seconds);
  return s;
}

}  // namespace

DocumentDiff diff_documents(const JsonValue& base, const JsonValue& other,
                            double tolerance_frac) {
  const SeriesDoc b = series_from_document(base);
  const SeriesDoc o = series_from_document(other);
  DocumentDiff diff;
  diff.base_label = b.label;
  diff.other_label = o.label;
  for (const auto& [key, base_s] : b.rows) {
    const double* other_s = nullptr;
    for (const auto& [okey, os] : o.rows) {
      if (okey == key) {
        other_s = &os;
        break;
      }
    }
    if (other_s == nullptr) continue;  // only rows present in both compare
    DiffRow row;
    row.key = key;
    row.base_seconds = base_s;
    row.other_seconds = *other_s;
    row.delta_pct =
        base_s > 0.0 ? (*other_s - base_s) / base_s * 100.0 : 0.0;
    // Noise floor: a "regression" below 1us absolute is timer jitter on a
    // sub-microsecond phase, not a real slowdown.
    row.regression = base_s > 0.0 &&
                     *other_s > base_s * (1.0 + tolerance_frac) &&
                     *other_s - base_s > 1e-6;
    diff.regression |= row.regression;
    diff.rows.push_back(row);
  }
  return diff;
}

std::string format_diff(const DocumentDiff& diff) {
  std::ostringstream out;
  out << "tseig diff -- base: " << diff.base_label
      << "  vs  other: " << diff.other_label << "\n";
  out << "  key                      base s      other s    delta\n";
  for (const DiffRow& r : diff.rows) {
    char line[200];
    std::snprintf(line, sizeof line, "  %-20s %10.6f   %10.6f  %+7.1f%%%s\n",
                  r.key.c_str(), r.base_seconds, r.other_seconds, r.delta_pct,
                  r.regression ? "  REGRESSION" : "");
    out << line;
  }
  out << (diff.regression ? "verdict: REGRESSION\n" : "verdict: ok\n");
  return out.str();
}

}  // namespace tseig::obs
