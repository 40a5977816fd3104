// The read side of tseig's telemetry, shared by the tseig_prof CLI and the
// tests (the tseig_prof_core library).  The solver library records and
// writes (src/obs); everything that reads an export back lives here:
//
//  * a small JSON parser for exactly what the exporters write (objects,
//    arrays, strings, numbers, booleans, null);
//  * the report loader and renderer -- rebuilds obs::Report from a
//    "tseig-metrics-v2" document or the metrics object every exported trace
//    embeds, and prints the utilization / roofline summary;
//  * diff/gate -- compares two metrics or bench documents row by row with a
//    noise tolerance, for `tseig_prof diff`/`gate` and scripts/bench_ci.sh.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace tseig::prof {

/// A parsed JSON value.  Numbers are stored as double (the exporters never
/// emit integers that lose precision at double range).
class JsonValue {
public:
  /// Typed accessors; throw invalid_argument on kind mismatch.
  double as_number() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Object member as number/string, or `fallback` when absent or of
  /// another kind.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

private:
  friend class JsonParser;
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind_ = Kind::null;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Parses a complete JSON document.  Throws invalid_argument with a byte
/// offset on malformed input (including trailing garbage).
JsonValue json_parse(const std::string& text);

/// Rebuilds a report from a parsed "tseig-metrics-v2" document (or a trace
/// embedding one under "tseigMetrics").  Entries older v2 documents carry
/// and the schema no longer has (critical_path_seconds, dropped_counters,
/// the hardware-counter fields) are ignored.  Throws invalid_argument for
/// any other schema.
obs::Report report_from_metrics_json(const JsonValue& doc);

/// Human-readable summary of a report.
std::string format_report(const obs::Report& report);

/// Linear-interpolated quantile (q in [0, 1]) of a log-bucket histogram,
/// in seconds, using each bucket's geometric midpoint.  0 when empty.
double histogram_quantile(const obs::HistogramSnapshot& h, double q);

// ---------------------------------------------------------------------------
// Diff / regression gate (tseig_prof diff|gate, scripts/bench_ci.sh).

/// One compared row.  For metrics documents the keys are "wall" and
/// "phase:<name>"; for bench documents, one row per result name.
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

/// Compares two parsed documents of the same kind: metrics
/// ("tseig-metrics-v2", or traces embedding one) or bench
/// ("tseig-bench-v2").  A row regresses when other > base * (1 +
/// tolerance_frac) and the absolute slowdown exceeds 1 microsecond (sub-us
/// phases are pure timer noise).  Throws invalid_argument when either
/// document is neither kind.
DocumentDiff diff_documents(const JsonValue& base, const JsonValue& other,
                            double tolerance_frac);

/// Human-readable diff table (marks regressed rows, prints the verdict).
std::string format_diff(const DocumentDiff& diff);

}  // namespace tseig::prof
