// Tests for the unified telemetry layer (tseig::obs): JSON escaping and
// parsing round trips, and a
// full recorded syev run pushed through both exporters and parsed back --
// the trace must be valid JSON with monotone spans covering every phase,
// and the metrics totals must agree with the solver's own PhaseBreakdown.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <cmath>

#include "blas/kernels/registry.hpp"
#include "common/rng.hpp"
#include "obs/hwc.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "solver/syev.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

TEST(ObsJson, EscapeRoundTrip) {
  const std::string hostile = "a\"b\\c\nd\te\x01f/";
  const obs::JsonValue v = obs::json_parse(obs::json_string(hostile));
  EXPECT_EQ(v.as_string(), hostile);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse("{\"a\":1} trailing"), invalid_argument);
  EXPECT_THROW(obs::json_parse("{\"a\":"), invalid_argument);
  EXPECT_THROW(obs::json_parse(""), invalid_argument);
}

TEST(Obs, DisabledRecordingIsANoOp) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  { obs::Span span("ignored"); }
  obs::record_span("ignored", 0.0, 1.0);
  obs::record_counter("ignored", 1.0);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST(Obs, SyevRoundTripThroughExporters) {
  const idx n = 192;
  Rng rng(7);
  const Matrix a = testing::random_symmetric(n, rng);
  Matrix work = a;

  obs::reset();
  obs::set_enabled(true);
  solver::SyevOptions o;
  o.algo = solver::method::two_stage;
  o.solver = solver::eig_solver::dc;
  o.job = solver::jobz::vectors;
  o.nb = 32;
  o.num_workers = 4;
  const solver::SyevResult res = solver::syev(n, work.data(), work.ld(), o);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);

  ASSERT_FALSE(snap.spans.empty());
  EXPECT_EQ(snap.dropped_spans, 0u);
  // Snapshot spans are merged across lanes sorted by start time, and every
  // span is monotone.
  for (size_t i = 0; i < snap.spans.size(); ++i) {
    EXPECT_GE(snap.spans[i].end_seconds, snap.spans[i].start_seconds);
    if (i > 0) {
      EXPECT_GE(snap.spans[i].start_seconds, snap.spans[i - 1].start_seconds);
    }
  }
  // With 4 workers on n = 192 some spans come from pool workers' lanes.
  bool off_caller = false;
  for (const obs::SpanRecord& s : snap.spans) off_caller |= s.lane != 0;
  EXPECT_TRUE(off_caller);

  // --- Chrome trace: must parse as JSON; every complete event monotone;
  // every two-stage phase covered by at least one span.
  const std::string trace = obs::to_chrome_trace_json(snap);
  const obs::JsonValue doc = obs::json_parse(trace);
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> per_phase;
  for (const obs::JsonValue& ev : events->as_array()) {
    if (ev.string_or("ph", "") != "X") continue;
    EXPECT_GE(ev.number_or("dur", -1.0), 0.0);
    if (const obs::JsonValue* args = ev.find("args"))
      ++per_phase[args->string_or("phase", "none")];
  }
  for (const char* phase : {"stage1", "stage2", "solve", "update"}) {
    SCOPED_TRACE(phase);
    EXPECT_GT(per_phase[phase], 0);
  }

  // --- Metrics: parse back; the per-phase seconds must agree with the
  // solver's own PhaseBreakdown (same clock stamps, so only JSON formatting
  // precision in between).
  const obs::JsonValue mdoc = obs::json_parse(obs::to_metrics_json(snap));
  const obs::Report rep = obs::report_from_metrics_json(mdoc);
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_GT(rep.work_seconds, 0.0);
  std::map<std::string, double> phase_seconds;
  for (const obs::PhaseReport& p : rep.phases) phase_seconds[p.name] = p.seconds;
  const auto near = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-6 * want + 1e-9);
  };
  near(phase_seconds["stage1"], res.phases.stage1_seconds);
  near(phase_seconds["stage2"], res.phases.stage2_seconds);
  near(phase_seconds["solve"], res.phases.solve_seconds);
  near(phase_seconds["update"], res.phases.update_seconds);

  // The trace embeds the same metrics object, so tseig_prof can rebuild the
  // full report from the trace file alone.
  const obs::Report rep2 = obs::report_from_metrics_json(doc);
  EXPECT_NEAR(rep2.wall_seconds, rep.wall_seconds, 1e-12);
  EXPECT_NEAR(rep2.work_seconds, rep.work_seconds, 1e-12);

  // A bare-trace reload still reproduces the per-phase utilization.
  const obs::Report rep3 = obs::report_from_trace_json(doc);
  double wall3 = 0.0;
  for (const obs::PhaseReport& p : rep3.phases)
    if (p.name == "stage1") wall3 = p.seconds;
  EXPECT_NEAR(wall3, res.phases.stage1_seconds,
              1e-5 * res.phases.stage1_seconds + 1e-8);
}

TEST(Obs, PerSolveExportPathsWriteFilesAndRestoreState) {
  const idx n = 64;
  Rng rng(11);
  Matrix a = testing::random_symmetric(n, rng);

  obs::reset();
  ASSERT_FALSE(obs::enabled());
  solver::SyevOptions o;
  o.num_workers = 2;
  o.trace_path = "/tmp/tseig_obs_test_trace.json";
  o.metrics_path = "/tmp/tseig_obs_test_metrics.json";
  (void)solver::syev(n, a.data(), a.ld(), o);
  // Recording was enabled only for the duration of the solve.
  EXPECT_FALSE(obs::enabled());

  for (const std::string& path : {o.trace_path, o.metrics_path}) {
    SCOPED_TRACE(path);
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_NO_THROW(obs::json_parse(buf.str()));
    std::remove(path.c_str());
  }
}

TEST(Obs, ZeroDurationPhaseHasFiniteEfficiency) {
  // A phase span of zero width (or one with no workers) must produce 0%
  // parallel efficiency, never NaN/inf -- and the exported JSON must stay
  // parseable (NaN would be an invalid token).
  obs::reset();
  obs::set_enabled(true);
  const double t = obs::now_seconds();
  obs::record_phase_span("stage1", obs::Phase::stage1, t, t);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const obs::Report rep = obs::analyze(snap);
  for (const obs::PhaseReport& p : rep.phases) {
    EXPECT_TRUE(std::isfinite(p.parallel_efficiency)) << p.name;
    EXPECT_EQ(p.parallel_efficiency, 0.0) << p.name;
    EXPECT_TRUE(std::isfinite(p.serial_seconds)) << p.name;
  }
  const obs::JsonValue doc = obs::json_parse(obs::to_metrics_json(snap));
  const obs::Report rep2 = obs::report_from_metrics_json(doc);
  for (const obs::PhaseReport& p : rep2.phases)
    EXPECT_TRUE(std::isfinite(p.parallel_efficiency)) << p.name;
}

// ---------------------------------------------------------------------------
// Hardware-counter sampling (obs/hwc): the fallback backend every perf-less
// CI container runs, and the delta/validity algebra the roofline relies on.

TEST(ObsHwc, FallbackBackendProvidesMonotoneCycles) {
  obs::hwc::force_backend_for_testing(obs::hwc::Backend::fallback);
  EXPECT_TRUE(obs::hwc::enabled());
  EXPECT_STREQ(obs::hwc::backend_name(), "fallback");

  const obs::hwc::Sample a = obs::hwc::sample();
  EXPECT_NE(a.valid & obs::hwc::kCycles, 0u);
  // The fallback can only approximate cycles; everything else stays dark.
  EXPECT_EQ(a.valid & obs::hwc::kInstructions, 0u);
  EXPECT_EQ(a.valid & obs::hwc::kLlcMisses, 0u);

  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1e-9 * i;
  const obs::hwc::Sample b = obs::hwc::sample();
  EXPECT_GE(b.cycles, a.cycles);
  const obs::hwc::Sample d = obs::hwc::delta(a, b);
  EXPECT_NE(d.valid & obs::hwc::kCycles, 0u);
  EXPECT_EQ(d.cycles, b.cycles - a.cycles);

  obs::hwc::force_backend_for_testing(obs::hwc::Backend::off);
  EXPECT_FALSE(obs::hwc::enabled());
  EXPECT_STREQ(obs::hwc::backend_name(), "off");
  EXPECT_EQ(obs::hwc::sample().valid, 0u);
}

TEST(ObsHwc, DeltaIntersectsValidityMasks) {
  obs::hwc::Sample a, b;
  a.valid = obs::hwc::kCycles | obs::hwc::kInstructions;
  b.valid = obs::hwc::kCycles | obs::hwc::kLlcMisses;
  a.cycles = 100;
  b.cycles = 350;
  const obs::hwc::Sample d = obs::hwc::delta(a, b);
  // A field is only meaningful when both endpoints measured it.
  EXPECT_EQ(d.valid, obs::hwc::kCycles);
  EXPECT_EQ(d.cycles, 250u);
}

// ---------------------------------------------------------------------------
// Roofline attribution: a synthetic phase with hand-picked costs must come
// back with exactly the GFLOP/s, AI, IPC and fraction-of-peak the numbers
// imply, through analyze() and the metrics JSON round trip.

TEST(ObsRoofline, SyntheticPhaseCostFixture) {
  obs::reset();
  obs::set_enabled(true);
  const double t0 = obs::now_seconds();
  obs::record_phase_span("stage1", obs::Phase::stage1, t0, t0 + 2.0);
  obs::PhaseCost cost;
  cost.flops = 4000000000ull;         // over 2 s -> 2 GFLOP/s
  cost.bytes = 2000000000ull;         // AI = flops / bytes = 2.0
  cost.cycles = 1000000000ull;        // peak% = 4 / flops_per_cycle_peak
  cost.instructions = 2500000000ull;  // IPC = 2.5
  cost.hwc_valid = obs::hwc::kCycles | obs::hwc::kInstructions;
  obs::record_phase_cost(obs::Phase::stage1, cost);
  obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  snap.hwc_backend = "perf";  // claim real counters so all columns render

  const obs::Report rep = obs::analyze(snap);
  EXPECT_EQ(rep.flops_per_cycle_peak,
            blas::kernels::active_kernel().flops_per_cycle);
  ASSERT_GT(rep.flops_per_cycle_peak, 0.0);
  const obs::PhaseReport* s1 = nullptr;
  for (const obs::PhaseReport& p : rep.phases)
    if (p.name == std::string("stage1")) s1 = &p;
  ASSERT_NE(s1, nullptr);
  EXPECT_NEAR(s1->gflops, 2.0, 1e-6);
  EXPECT_NEAR(s1->arithmetic_intensity, 2.0, 1e-12);
  EXPECT_NEAR(s1->ipc, 2.5, 1e-12);
  EXPECT_NEAR(s1->pct_of_peak, 4.0 / rep.flops_per_cycle_peak, 1e-12);

  // Round trip: the exported metrics JSON carries the same roofline numbers.
  const obs::Report rep2 = obs::report_from_metrics_json(
      obs::json_parse(obs::to_metrics_json(snap)));
  const obs::PhaseReport* s2 = nullptr;
  for (const obs::PhaseReport& p : rep2.phases)
    if (p.name == std::string("stage1")) s2 = &p;
  ASSERT_NE(s2, nullptr);
  EXPECT_NEAR(s2->gflops, s1->gflops, 1e-9);
  EXPECT_NEAR(s2->arithmetic_intensity, s1->arithmetic_intensity, 1e-9);
  EXPECT_NEAR(s2->ipc, s1->ipc, 1e-9);
  EXPECT_NEAR(s2->pct_of_peak, s1->pct_of_peak, 1e-9);
  EXPECT_EQ(s2->flops, cost.flops);
  EXPECT_EQ(s2->hwc_valid, cost.hwc_valid);

  // Rendering: with a perf backend the IPC / peak-% columns carry numbers.
  const std::string text = obs::format_report(rep);
  EXPECT_NE(text.find("roofline (hwc backend: perf"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);  // the IPC column
}

TEST(ObsRoofline, FallbackBackendWithholdsIpcAndPeakColumns) {
  // Fallback "cycles" are clock ticks, not core cycles: printing IPC or a
  // fraction of peak from them would be fabricated precision.
  obs::reset();
  obs::set_enabled(true);
  const double t0 = obs::now_seconds();
  obs::record_phase_span("solve", obs::Phase::solve, t0, t0 + 1.0);
  obs::PhaseCost cost;
  cost.flops = 1000000000ull;
  cost.cycles = 123456789ull;
  cost.hwc_valid = obs::hwc::kCycles;
  obs::record_phase_cost(obs::Phase::solve, cost);
  obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  snap.hwc_backend = "fallback";

  const std::string text = obs::format_report(obs::analyze(snap));
  EXPECT_NE(text.find("roofline (hwc backend: fallback"), std::string::npos);
  // The roofline row (after the roofline header, past the phase table's own
  // solve row) must end in dashes for IPC and peak%.
  const size_t header = text.find("roofline");
  const size_t row = text.find("  solve", header);
  ASSERT_NE(row, std::string::npos);
  const std::string line = text.substr(row, text.find('\n', row) - row);
  EXPECT_NE(line.find('-'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Log-bucket duration histograms.

TEST(ObsHistogram, Log2NsBucketEdges) {
  EXPECT_EQ(obs::log2_ns_bucket(0.0), 0);
  EXPECT_EQ(obs::log2_ns_bucket(-1.0), 0);
  EXPECT_EQ(obs::log2_ns_bucket(0.5e-9), 0);  // sub-ns clamps to bucket 0
  EXPECT_EQ(obs::log2_ns_bucket(1e-9), 0);    // [1, 2) ns
  EXPECT_EQ(obs::log2_ns_bucket(1.9e-9), 0);
  EXPECT_EQ(obs::log2_ns_bucket(2e-9), 1);    // [2, 4) ns
  EXPECT_EQ(obs::log2_ns_bucket(1.0), 29);    // 1 s = 1e9 ns, 2^29 <= 1e9 < 2^30
  EXPECT_EQ(obs::log2_ns_bucket(1e300), obs::kHistogramBuckets - 1);
  EXPECT_NEAR(obs::bucket_mid_seconds(0), 1.5e-9, 1e-18);
  EXPECT_NEAR(obs::bucket_mid_seconds(10), 1.5 * 1024e-9, 1e-15);
}

TEST(ObsHistogram, QuantileWalksBuckets) {
  obs::HistogramSnapshot h;
  h.buckets[10] = 50;
  h.buckets[20] = 50;
  h.samples = 100;
  EXPECT_NEAR(obs::histogram_quantile(h, 0.25), obs::bucket_mid_seconds(10),
              1e-15);
  EXPECT_NEAR(obs::histogram_quantile(h, 0.9), obs::bucket_mid_seconds(20),
              1e-12);
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);
}

TEST(ObsHistogram, RecordSnapshotAndMetricsRoundTrip) {
  obs::reset();
  obs::set_enabled(true);
  for (int i = 0; i < 32; ++i)
    obs::record_histogram(obs::Histogram::span_duration, 3e-6);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const int bucket = obs::log2_ns_bucket(3e-6);
  const obs::HistogramSnapshot* hw = nullptr;
  for (const obs::HistogramSnapshot& h : snap.histograms)
    if (h.which == obs::Histogram::span_duration) hw = &h;
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(hw->samples, 32u);
  EXPECT_EQ(hw->buckets[static_cast<size_t>(bucket)], 32u);

  const obs::Report rep = obs::report_from_metrics_json(
      obs::json_parse(obs::to_metrics_json(snap)));
  const obs::HistogramSnapshot* hw2 = nullptr;
  for (const obs::HistogramSnapshot& h : rep.histograms)
    if (h.which == obs::Histogram::span_duration) hw2 = &h;
  ASSERT_NE(hw2, nullptr);
  EXPECT_EQ(hw2->samples, 32u);
  EXPECT_EQ(hw2->buckets[static_cast<size_t>(bucket)], 32u);
}

// ---------------------------------------------------------------------------
// Ring overflow accounting: dropped counters must be counted, surfaced in
// the report text as a warning, and survive the metrics round trip.

TEST(Obs, DroppedCountersAreCountedAndWarned) {
  obs::reset();
  obs::set_enabled(true);
  const int total = (1 << 14) + 123;  // counter ring capacity + 123
  for (int i = 0; i < total; ++i) obs::record_counter("overflow_me", 1.0);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  EXPECT_EQ(snap.dropped_counters, 123u);
  const obs::Report rep = obs::analyze(snap);
  EXPECT_EQ(rep.dropped_counters, 123u);
  const std::string text = obs::format_report(rep);
  EXPECT_NE(text.find("WARNING"), std::string::npos);
  EXPECT_NE(text.find("dropped"), std::string::npos);

  const obs::Report rep2 = obs::report_from_metrics_json(
      obs::json_parse(obs::to_metrics_json(snap)));
  EXPECT_EQ(rep2.dropped_counters, 123u);
}

}  // namespace
}  // namespace tseig
