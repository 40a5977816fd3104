// Tests for the unified telemetry layer (tseig::obs), read back through
// tseig_prof's reader: JSON escaping and parsing round trips, a full
// recorded syev run pushed through both exporters and parsed back -- the
// trace must be valid JSON with monotone spans covering every phase, and the
// metrics totals must agree with the solver's own PhaseBreakdown -- the
// roofline figures, and phase attribution under concurrent solves and
// batches.
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "prof.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "solver/syev_small.hpp"
#include "test_support.hpp"

namespace tseig {
namespace {

TEST(ObsJson, EscapeRoundTrip) {
  const std::string hostile = "a\"b\\c\nd\te\x01f/";
  const prof::JsonValue v =
      prof::json_parse("{\"s\":" + obs::json_string(hostile) + "}");
  EXPECT_EQ(v.string_or("s", ""), hostile);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(prof::json_parse("{\"a\":1} trailing"), invalid_argument);
  EXPECT_THROW(prof::json_parse("{\"a\":"), invalid_argument);
  EXPECT_THROW(prof::json_parse(""), invalid_argument);
}

TEST(Obs, DisabledRecordingIsANoOp) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  { obs::Span span("ignored"); }
  obs::record_span("ignored", 0.0, 1.0);
  obs::record_phase("ignored", obs::Phase::solve, 0.0, 1.0, {});
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.phases.empty());
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
  const prof::JsonValue doc = prof::json_parse(trace);
  const prof::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> per_phase;
  for (const prof::JsonValue& ev : events->as_array()) {
    if (ev.string_or("ph", "") != "X") continue;
    EXPECT_GE(ev.number_or("dur", -1.0), 0.0);
    if (const prof::JsonValue* args = ev.find("args"))
      ++per_phase[args->string_or("phase", "none")];
  }
  for (const char* phase : {"stage1", "stage2", "solve", "update"}) {
    SCOPED_TRACE(phase);
    EXPECT_GT(per_phase[phase], 0);
  }

  // --- Metrics: parse back; the per-phase seconds must agree with the
  // solver's own PhaseBreakdown (same clock stamps, so only JSON formatting
  // precision in between).
  const prof::JsonValue mdoc = prof::json_parse(obs::to_metrics_json(snap));
  const obs::Report rep = prof::report_from_metrics_json(mdoc);
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

  // The run metadata names the reduction that ran, and the report header
  // prints it.
  EXPECT_EQ(snap.meta.method, "two_stage");
  EXPECT_EQ(rep.meta.method, "two_stage");
  EXPECT_NE(prof::format_report(rep).find("method=two_stage"),
            std::string::npos);

  // The trace embeds the same metrics object, so tseig_prof can rebuild the
  // full report from the trace file alone.
  const obs::Report rep2 = prof::report_from_metrics_json(doc);
  EXPECT_NEAR(rep2.wall_seconds, rep.wall_seconds, 1e-12);
  EXPECT_NEAR(rep2.work_seconds, rep.work_seconds, 1e-12);
}

TEST(Obs, RunMetaRecordsTheResolvedMethod) {
  // method::automatic is resolved before the metadata is stamped: each
  // side of the threshold names its reduction, and so does the lane.
  Rng rng(11);
  const idx t = solver::kOneStageMaxN;
  struct Case {
    idx n;
    const char* method;
  };
  solver::SyevOptions o;
  o.job = solver::jobz::values_only;
  // TSEIG_SMALL_N=0 vetoes the lane; n = 3 then runs one-stage.
  const char* tiny =
      solver::small::lane_eligible(3, o) ? "small_n" : "one_stage";
  for (const Case c : {Case{3, tiny}, Case{64, "one_stage"},
                       Case{t + 1, "two_stage"}}) {
    SCOPED_TRACE(c.n);
    const Matrix a = testing::random_symmetric(c.n, rng);
    obs::reset();
    obs::set_enabled(true);
    (void)solver::syev(c.n, a.data(), a.ld(), o);
    const obs::Snapshot snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    EXPECT_EQ(snap.meta.method, c.method);
    const obs::Report rep = prof::report_from_metrics_json(
        prof::json_parse(obs::to_metrics_json(snap)));
    EXPECT_EQ(rep.meta.method, c.method);
  }
}

TEST(Obs, ZeroDurationPhaseHasFiniteEfficiency) {
  // A phase span of zero width (or one with no workers) must produce 0%
  // parallel efficiency, never NaN/inf -- and the exported JSON must stay
  // parseable (NaN would be an invalid token).
  obs::reset();
  obs::set_enabled(true);
  const double t = obs::now_seconds();
  obs::record_phase("stage1", obs::Phase::stage1, t, t, {});
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const obs::Report rep = obs::analyze(snap);
  for (const obs::PhaseReport& p : rep.phases) {
    EXPECT_TRUE(std::isfinite(p.parallel_efficiency)) << p.name;
    EXPECT_EQ(p.parallel_efficiency, 0.0) << p.name;
    EXPECT_TRUE(std::isfinite(p.serial_seconds)) << p.name;
  }
  const prof::JsonValue doc = prof::json_parse(obs::to_metrics_json(snap));
  const obs::Report rep2 = prof::report_from_metrics_json(doc);
  for (const obs::PhaseReport& p : rep2.phases)
    EXPECT_TRUE(std::isfinite(p.parallel_efficiency)) << p.name;
}

// ---------------------------------------------------------------------------
// Roofline attribution: a synthetic phase with hand-picked costs must come
// back with exactly the GFLOP/s and AI the numbers imply, through analyze()
// and the metrics JSON round trip.

TEST(ObsRoofline, SyntheticPhaseCostFixture) {
  obs::reset();
  obs::set_enabled(true);
  const double t0 = obs::now_seconds();
  obs::PhaseCost cost;
  cost.flops = 4000000000ull;  // over 2 s -> 2 GFLOP/s
  cost.bytes = 2000000000ull;  // AI = flops / bytes = 2.0
  obs::record_phase("stage1", obs::Phase::stage1, t0, t0 + 2.0, cost);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const obs::Report rep = obs::analyze(snap);
  const obs::PhaseReport* s1 = nullptr;
  for (const obs::PhaseReport& p : rep.phases)
    if (p.name == std::string("stage1")) s1 = &p;
  ASSERT_NE(s1, nullptr);
  EXPECT_NEAR(s1->gflops, 2.0, 1e-6);
  EXPECT_NEAR(s1->arithmetic_intensity, 2.0, 1e-12);

  // Round trip: the exported metrics JSON carries the same roofline numbers.
  const obs::Report rep2 = prof::report_from_metrics_json(
      prof::json_parse(obs::to_metrics_json(snap)));
  const obs::PhaseReport* s2 = nullptr;
  for (const obs::PhaseReport& p : rep2.phases)
    if (p.name == std::string("stage1")) s2 = &p;
  ASSERT_NE(s2, nullptr);
  EXPECT_NEAR(s2->gflops, s1->gflops, 1e-9);
  EXPECT_NEAR(s2->arithmetic_intensity, s1->arithmetic_intensity, 1e-9);
  EXPECT_EQ(s2->flops, cost.flops);
  EXPECT_EQ(s2->bytes, cost.bytes);

  // Rendering: the roofline row carries gflop, bytes, GFLOP/s and AI.
  EXPECT_NE(prof::format_report(rep).find(
                "\n  stage1        4.000      2e+09     2.00   2.00\n"),
            std::string::npos);
}

TEST(ObsRoofline, StageTwoReadsMemoryBound) {
  // The chase's hop kernels count their operand bytes, so stage 2 reads as
  // the memory-bound phase it is: under 1 flop per byte.
  const idx n = 256;
  Rng rng(5);
  const Matrix a = testing::random_symmetric(n, rng);
  solver::SyevOptions o;
  o.algo = solver::method::two_stage;
  o.job = solver::jobz::values_only;
  obs::reset();
  obs::set_enabled(true);
  (void)solver::syev(n, a.data(), a.ld(), o);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const obs::Report rep = obs::analyze(snap);
  const obs::PhaseReport* s2 = nullptr;
  for (const obs::PhaseReport& p : rep.phases)
    if (p.name == std::string("stage2")) s2 = &p;
  ASSERT_NE(s2, nullptr);
  EXPECT_GT(s2->flops, 0u);
  EXPECT_GT(s2->arithmetic_intensity, 0.0);
  EXPECT_LT(s2->arithmetic_intensity, 1.0);
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
  EXPECT_NEAR(prof::histogram_quantile(h, 0.25), obs::bucket_mid_seconds(10),
              1e-15);
  EXPECT_NEAR(prof::histogram_quantile(h, 0.9), obs::bucket_mid_seconds(20),
              1e-12);
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(prof::histogram_quantile(empty, 0.5), 0.0);
}

TEST(ObsHistogram, RecordSnapshotAndMetricsRoundTrip) {
  // Durations of 3 us sit mid-bucket, so clock-stamp rounding cannot move
  // a sample to a neighbouring bucket.
  obs::reset();
  obs::set_enabled(true);
  for (int i = 0; i < 32; ++i) {
    const double t0 = obs::now_seconds();
    obs::record_span("histogram_me", t0, t0 + 3e-6);
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  const int bucket = obs::log2_ns_bucket(3e-6);
  EXPECT_EQ(snap.span_durations.samples, 32u);
  EXPECT_EQ(snap.span_durations.buckets[static_cast<size_t>(bucket)], 32u);

  const std::string metrics = obs::to_metrics_json(snap);
  EXPECT_NE(metrics.find("\"name\":\"span_duration\""), std::string::npos);
  const obs::Report rep =
      prof::report_from_metrics_json(prof::json_parse(metrics));
  EXPECT_EQ(rep.span_durations.samples, 32u);
  EXPECT_EQ(rep.span_durations.buckets[static_cast<size_t>(bucket)], 32u);
}

// ---------------------------------------------------------------------------
// Ring overflow accounting: spans lost to ring overwrite must be counted,
// surfaced in the report text as a warning, and survive the metrics round
// trip; the histogram still sees every span.

TEST(Obs, DroppedSpansAreCountedAndWarned) {
  if (std::getenv("TSEIG_TRACE_CAPACITY") != nullptr)
    GTEST_SKIP() << "span ring capacity overridden";
  obs::reset();
  obs::set_enabled(true);
  const int total = (1 << 16) + 123;  // default span ring capacity + 123
  for (int i = 0; i < total; ++i) obs::record_span("overflow_me", 0.0, 0.0);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  EXPECT_EQ(snap.dropped_spans, 123u);
  EXPECT_EQ(snap.spans.size(), static_cast<size_t>(1 << 16));
  EXPECT_EQ(snap.span_durations.samples, static_cast<std::uint64_t>(total));
  const obs::Report rep = obs::analyze(snap);
  EXPECT_EQ(rep.dropped_spans, 123u);
  const std::string text = prof::format_report(rep);
  EXPECT_NE(text.find("WARNING: 123 spans dropped"), std::string::npos);

  const obs::Report rep2 = prof::report_from_metrics_json(
      prof::json_parse(obs::to_metrics_json(snap)));
  EXPECT_EQ(rep2.dropped_spans, 123u);
}

TEST(Obs, OlderMetricsWithDroppedCountersStillLoad) {
  const obs::Report rep = prof::report_from_metrics_json(prof::json_parse(
      "{\"schema\":\"tseig-metrics-v2\",\"totals\":{\"wall_seconds\":1,"
      "\"dropped_spans\":2,\"dropped_counters\":3}}"));
  EXPECT_EQ(rep.wall_seconds, 1.0);
  EXPECT_EQ(rep.dropped_spans, 2u);

  // Older v2 exports also carry the hardware-counter fields; the kept
  // fields load and the deleted ones are ignored.
  const obs::Report hw = prof::report_from_metrics_json(prof::json_parse(
      "{\"schema\":\"tseig-metrics-v2\",\"run\":{\"n\":8,"
      "\"kernel\":\"avx2\",\"hwc_backend\":\"fallback\","
      "\"flops_per_cycle_peak\":8},\"phases\":[{\"name\":\"stage2\","
      "\"seconds\":0.5,\"flops\":100,\"bytes\":400,\"cycles\":7,"
      "\"instructions\":0,\"llc_misses\":0,\"stalled_cycles\":0,"
      "\"hwc_valid\":1,\"gflops\":2e-7,\"arithmetic_intensity\":0.25,"
      "\"ipc\":0,\"pct_of_peak\":0.1}]}"));
  EXPECT_EQ(hw.meta.n, 8);
  EXPECT_EQ(hw.kernel, "avx2");
  ASSERT_EQ(hw.phases.size(), 1u);
  EXPECT_EQ(hw.phases[0].name, "stage2");
  EXPECT_EQ(hw.phases[0].seconds, 0.5);
  EXPECT_EQ(hw.phases[0].flops, 100u);
  EXPECT_EQ(hw.phases[0].bytes, 400u);
  EXPECT_EQ(hw.phases[0].arithmetic_intensity, 0.25);
}

// ---------------------------------------------------------------------------
// Phase attribution under concurrency: a span's phase is the phase of the
// thread that forked its work, so concurrent solves and batch members never
// tag each other's item spans.

/// The phase a span label belongs to, or Phase::count for labels that are
/// not tied to one phase (batch markers, sytrd panels).
obs::Phase label_phase(const char* label) {
  const std::string s = label;
  const auto starts = [&](const char* p) { return s.rfind(p, 0) == 0; };
  if (starts("sy2sb_")) return obs::Phase::stage1;
  if (s == "chase") return obs::Phase::stage2;
  if (starts("dc_") || s == "stebz" || s == "stein") return obs::Phase::solve;
  if (starts("q1_") || starts("q2_")) return obs::Phase::update;
  return obs::Phase::count;
}

/// Counts spans whose recorded phase differs from their label's phase;
/// `checked` receives the number of spans with a phase-bound label.
int misattributed_spans(const obs::Snapshot& snap, int& checked) {
  int bad = 0;
  checked = 0;
  for (const obs::SpanRecord& s : snap.spans) {
    const obs::Phase want = label_phase(s.label);
    if (want == obs::Phase::count) continue;
    ++checked;
    if (s.phase != want) ++bad;
  }
  return bad;
}

TEST(ObsAttribution, ConcurrentSolvesKeepTheirPhases) {
  const idx n = 300;
  Rng rng(31);
  const Matrix a = testing::random_symmetric(n, rng);

  obs::reset();
  obs::set_enabled(true);
  // One client per reduction (n = 300 would resolve to one-stage for both),
  // so stage-1/stage-2 spans interleave with sytrd's.
  std::vector<std::thread> clients;
  for (const solver::method algo :
       {solver::method::one_stage, solver::method::two_stage}) {
    clients.emplace_back([&, algo] {
      solver::SyevOptions o;
      o.algo = algo;
      o.num_workers = 2;
      for (int r = 0; r < 5; ++r) (void)solver::syev(n, a.data(), a.ld(), o);
    });
  }
  for (std::thread& t : clients) t.join();
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();

  EXPECT_EQ(snap.dropped_spans, 0u);
  int checked = 0;
  EXPECT_EQ(misattributed_spans(snap, checked), 0);
  EXPECT_GT(checked, 100);
}

/// Records a 64 x n = 128 two-stage syev_batch at 4 workers.
obs::Snapshot record_batch_128() {
  const idx n = 128;
  Rng rng(37);
  std::vector<Matrix> mats;
  std::vector<solver::BatchProblem> problems;
  for (int i = 0; i < 64; ++i) mats.push_back(testing::random_symmetric(n, rng));
  for (const Matrix& m : mats) {
    solver::BatchProblem p;
    p.n = n;
    p.a = m.data();
    p.lda = m.ld();
    // n = 128 resolves to one-stage; the attribution checks below need the
    // stage-1 and stage-2 spans.
    p.opts.algo = solver::method::two_stage;
    problems.push_back(p);
  }
  obs::reset();
  obs::set_enabled(true);
  solver::SyevBatchOptions bopts;
  bopts.num_workers = 4;
  (void)solver::syev_batch(problems, bopts);
  obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  return snap;
}

TEST(ObsAttribution, BatchMembersKeepTheirPhases) {
  const obs::Snapshot snap = record_batch_128();
  EXPECT_EQ(snap.dropped_spans, 0u);
  int checked = 0;
  EXPECT_EQ(misattributed_spans(snap, checked), 0);
  EXPECT_GT(checked, 1000);
}

TEST(ObsAttribution, BatchOfSerialMembersHasUnitWorkOverWall) {
  // Each member runs whole on one worker, so every item span lies inside a
  // phase record on its own lane: a phase's work equals its wall time.
  const obs::Report rep = obs::analyze(record_batch_128());
  std::map<std::string, const obs::PhaseReport*> by_name;
  for (const obs::PhaseReport& p : rep.phases) by_name[p.name] = &p;
  for (const char* phase : {"stage1", "stage2", "solve", "update"}) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(by_name.count(phase), 1u);
    const obs::PhaseReport& p = *by_name[phase];
    ASSERT_GT(p.seconds, 0.0);
    EXPECT_NEAR(p.work_seconds / p.seconds, 1.0, 0.02);
  }
}

}  // namespace
}  // namespace tseig
