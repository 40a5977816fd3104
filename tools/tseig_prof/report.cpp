#include <algorithm>
#include <cstdio>
#include <sstream>

#include "prof.hpp"

namespace tseig::prof {
namespace {

using obs::bucket_mid_seconds;
using obs::HistogramSnapshot;
using obs::kHistogramBuckets;
using obs::Phase;
using obs::PhaseReport;
using obs::Report;
using obs::WorkerMetric;

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Phase from its exported name (report loaders).
Phase phase_from_name(const std::string& name) {
  for (int p = 0; p < obs::kPhaseCount; ++p)
    if (name == obs::phase_name(static_cast<Phase>(p)))
      return static_cast<Phase>(p);
  return Phase::none;
}

}  // namespace

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

  // Roofline attribution: printed when any phase reported flops.
  bool any_flops = false;
  for (const PhaseReport& p : rep.phases) any_flops |= p.flops > 0;
  if (any_flops) {
    out << "\n  roofline\n";
    out << "  phase         gflop      bytes  gflop/s     AI\n";
    for (const PhaseReport& p : rep.phases) {
      if (p.flops == 0 && p.bytes == 0) continue;
      char line[200];
      std::snprintf(line, sizeof line, "  %-10s %8.3f  %9s  %7.2f  %5.2f\n",
                    p.name.c_str(), static_cast<double>(p.flops) * 1e-9,
                    fmt("%.3g", static_cast<double>(p.bytes)).c_str(),
                    p.gflops, p.arithmetic_intensity);
      out << line;
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

Report report_from_metrics_json(const JsonValue& doc) {
  const JsonValue* metrics = doc.find("tseigMetrics");
  const JsonValue& m = metrics != nullptr ? *metrics : doc;
  require(m.string_or("schema", "") == "tseig-metrics-v2",
          "report_from_metrics_json: not a tseig-metrics-v2 document");

  Report rep;
  if (const JsonValue* run = m.find("run")) {
    rep.meta.label = run->string_or("label", "");
    rep.meta.n = static_cast<idx>(run->number_or("n", 0));
    rep.meta.nb = static_cast<idx>(run->number_or("nb", 0));
    rep.meta.num_workers = static_cast<int>(run->number_or("workers", 0));
    rep.meta.method = run->string_or("method", "");
    rep.git = run->string_or("git", "unknown");
    rep.kernel = run->string_or("kernel", "unknown");
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
      pr.gflops = p.number_or("gflops", 0.0);
      pr.arithmetic_intensity = p.number_or("arithmetic_intensity", 0.0);
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

}  // namespace tseig::prof
