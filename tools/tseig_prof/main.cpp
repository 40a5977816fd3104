// tseig_prof: the telemetry-export CLI.
//
//   tseig_prof [report] FILE [FILE...]
//     Prints the utilization / roofline report from a
//     telemetry export -- either a metrics JSON ("tseig-metrics-v2",
//     written via TSEIG_METRICS=<path>) or a Chrome/Perfetto trace
//     (TSEIG_TRACE=<path>).  Traces written by this library embed the full
//     metrics object under the "tseigMetrics" key, which is what the report
//     is read from; a trace without it is rejected.
//
//   tseig_prof diff [--tolerance PCT] BASE OTHER
//     Prints per-row deltas (wall, per-phase -- or per
//     bench result for "tseig-bench-v2" files) between two exports.
//     Rows slower than the tolerance band are flagged.  Exit 0 always
//     (unless a file fails to load).
//
//   tseig_prof gate [--tolerance PCT] BASE OTHER
//     Same comparison, but exits 1 when any row regressed -- the bench
//     CI gate (scripts/bench_ci.sh).  Exit 0 when OTHER is within
//     tolerance of BASE everywhere.
//
// Exit codes: 0 ok, 1 regression (gate) or unreadable file, 2 usage/parse.
//
//   TSEIG_TRACE=/tmp/run.json ./bench_fig1_breakdown
//   tseig_prof /tmp/run.json
//   tseig_prof diff base_metrics.json new_metrics.json
//   tseig_prof gate --tolerance 10 BENCH_gemm.json /tmp/bench_gemm.json
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prof.hpp"

namespace {

bool load_json(const std::string& path, tseig::prof::JsonValue& doc) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "tseig_prof: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  try {
    doc = tseig::prof::json_parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tseig_prof: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

int run_file(const std::string& path) {
  tseig::prof::JsonValue doc;
  if (!load_json(path, doc)) return 1;

  tseig::obs::Report rep;
  try {
    rep = tseig::prof::report_from_metrics_json(doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "tseig_prof: %s: neither a tseig-metrics document nor a "
                 "trace embedding one (%s)\n",
                 path.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n%s", path.c_str(),
              tseig::prof::format_report(rep).c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: tseig_prof [report] FILE [FILE...]\n"
      "       tseig_prof diff [--tolerance PCT] BASE OTHER\n"
      "       tseig_prof gate [--tolerance PCT] BASE OTHER\n"
      "  FILE: a TSEIG_METRICS json, a TSEIG_TRACE trace (read through its\n"
      "  embedded tseigMetrics object), or (for diff/gate) a tseig-bench-v2\n"
      "  json written by a bench's --json flag\n"
      "  --tolerance PCT: noise band for diff/gate, percent (default 5)\n");
  return 2;
}

int run_diff(bool gate, std::vector<std::string> args) {
  double tolerance_pct = 5.0;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--tolerance") {
      if (it + 1 == args.end()) return usage();
      tolerance_pct = std::strtod((it + 1)->c_str(), nullptr);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (args.size() != 2) return usage();

  tseig::prof::JsonValue base, other;
  if (!load_json(args[0], base) || !load_json(args[1], other)) return 1;
  tseig::prof::DocumentDiff diff;
  try {
    diff = tseig::prof::diff_documents(base, other, tolerance_pct / 100.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tseig_prof: %s\n", e.what());
    return 2;
  }
  std::printf("%s", tseig::prof::format_diff(diff).c_str());
  if (gate && diff.regression) {
    std::fprintf(stderr,
                 "tseig_prof: gate FAILED (regression beyond %.1f%%)\n",
                 tolerance_pct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();

  const std::string& cmd = args[0];
  if (cmd == "diff" || cmd == "gate")
    return run_diff(cmd == "gate", {args.begin() + 1, args.end()});

  size_t first = 0;
  if (cmd == "report") {
    if (args.size() < 2) return usage();
    first = 1;
  }
  int status = 0;
  for (size_t i = first; i < args.size(); ++i) {
    if (i > first) std::printf("\n");
    status |= run_file(args[i]);
  }
  return status;
}
