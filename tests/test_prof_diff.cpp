// Tests for the diff/gate layer (tools/tseig_prof's diff_documents /
// format_diff): the comparison semantics tseig_prof's `diff` and `gate`
// subcommands and scripts/bench_ci.sh rely on.  Documents are built by hand
// so every expected delta is exact: tseig-bench-v2 result lists,
// tseig-metrics-v2 reports, and the degenerate joins (disjoint keys, unknown
// schemas) that must fail loudly instead of passing silently.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "prof.hpp"

namespace tseig {
namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A two-result tseig-bench-v2 document with the given seconds.
prof::JsonValue bench_doc(double k1_seconds, double k2_seconds) {
  const std::string text =
      "{\"schema\":\"tseig-bench-v2\",\"bench\":\"demo\",\"git\":\"g0\","
      "\"kernel\":\"scalar\",\"workers\":1,\"results\":["
      "{\"name\":\"k1\",\"seconds\":" + num(k1_seconds) + "},"
      "{\"name\":\"k2\",\"seconds\":" + num(k2_seconds) +
      ",\"extra\":{\"gflops\":1.5}}]}";
  return prof::json_parse(text);
}

/// A minimal tseig-metrics document (v1 or v2 schema tag) with one phase.
/// It carries the critical_path_seconds total older exports wrote, which
/// the loader ignores.
prof::JsonValue metrics_doc(const char* schema_version, double wall,
                            double critical, double stage1) {
  const std::string text =
      "{\"schema\":\"tseig-metrics-" + std::string(schema_version) +
      "\",\"run\":{\"label\":\"syev\",\"n\":64,\"workers\":1},"
      "\"totals\":{\"wall_seconds\":" + num(wall) +
      ",\"work_seconds\":" + num(wall) +
      ",\"critical_path_seconds\":" + num(critical) +
      ",\"spans\":3},\"phases\":[{\"name\":\"stage1\",\"seconds\":" +
      num(stage1) + ",\"tasks\":2}]}";
  return prof::json_parse(text);
}

TEST(ProfDiff, IdenticalBenchDocsPassTheGate) {
  const prof::JsonValue doc = bench_doc(0.010, 0.020);
  const prof::DocumentDiff d = prof::diff_documents(doc, doc, 0.05);
  EXPECT_FALSE(d.regression);
  ASSERT_EQ(d.rows.size(), 2u);
  for (const prof::DiffRow& r : d.rows) {
    EXPECT_EQ(r.delta_pct, 0.0);
    EXPECT_FALSE(r.regression);
  }
  EXPECT_NE(prof::format_diff(d).find("verdict: ok"), std::string::npos);
}

TEST(ProfDiff, SlowdownBeyondToleranceIsARegression) {
  const prof::JsonValue base = bench_doc(0.010, 0.020);
  const prof::JsonValue other = bench_doc(0.012, 0.020);  // k1 +20%
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.05);
  EXPECT_TRUE(d.regression);
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_TRUE(d.rows[0].regression);
  EXPECT_NEAR(d.rows[0].delta_pct, 20.0, 1e-9);
  EXPECT_FALSE(d.rows[1].regression);
  const std::string text = prof::format_diff(d);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("verdict: REGRESSION"), std::string::npos);
}

TEST(ProfDiff, SlowdownWithinToleranceIsOk) {
  const prof::JsonValue base = bench_doc(0.010, 0.020);
  const prof::JsonValue other = bench_doc(0.012, 0.020);  // k1 +20%
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.30);
  EXPECT_FALSE(d.regression);
}

TEST(ProfDiff, SpeedupIsNeverARegression) {
  const prof::JsonValue base = bench_doc(0.010, 0.020);
  const prof::JsonValue other = bench_doc(0.002, 0.004);
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.05);
  EXPECT_FALSE(d.regression);
  EXPECT_LT(d.rows[0].delta_pct, 0.0);
}

TEST(ProfDiff, SubMicrosecondJitterIsBelowTheNoiseFloor) {
  // +200% relative, but only 200 ns absolute: timer jitter on a
  // sub-microsecond row, not a regression.
  const prof::JsonValue base = bench_doc(1e-7, 0.020);
  const prof::JsonValue other = bench_doc(3e-7, 0.020);
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.05);
  EXPECT_FALSE(d.regression);
  // Once the absolute delta clears 1 us, the same ratio is a regression.
  const prof::JsonValue base2 = bench_doc(1e-4, 0.020);
  const prof::JsonValue other2 = bench_doc(3e-4, 0.020);
  EXPECT_TRUE(prof::diff_documents(base2, other2, 0.05).regression);
}

TEST(ProfDiff, OnlyKeysPresentInBothDocumentsCompare) {
  const prof::JsonValue base = bench_doc(0.010, 0.020);
  const prof::JsonValue other = prof::json_parse(
      "{\"schema\":\"tseig-bench-v2\",\"bench\":\"demo\",\"results\":["
      "{\"name\":\"k2\",\"seconds\":0.020},"
      "{\"name\":\"k9\",\"seconds\":9.0}]}");
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.05);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0].key, "k2");
  EXPECT_FALSE(d.regression);
}

TEST(ProfDiff, MetricsDocumentsDiffWallAndPhases) {
  const prof::JsonValue base = metrics_doc("v2", 1.0, 0.8, 0.5);
  const prof::JsonValue other = metrics_doc("v2", 1.0, 0.8, 0.7);  // +40% phase
  const prof::DocumentDiff d = prof::diff_documents(base, other, 0.05);
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_EQ(d.rows[0].key, "wall");
  EXPECT_EQ(d.rows[1].key, "phase:stage1");
  EXPECT_FALSE(d.rows[0].regression);
  EXPECT_TRUE(d.rows[1].regression);
  EXPECT_TRUE(d.regression);
}

TEST(ProfDiff, V1MetricsDocumentsAreRejected) {
  // Only tseig-metrics-v2 loads; a v1 baseline fails loudly.
  const prof::JsonValue v1 = metrics_doc("v1", 1.0, 0.8, 0.5);
  const prof::JsonValue v2 = metrics_doc("v2", 1.1, 0.9, 0.5);
  EXPECT_THROW(prof::diff_documents(v1, v2, 0.20), invalid_argument);
  EXPECT_THROW(prof::report_from_metrics_json(v1), invalid_argument);
}

TEST(ProfDiff, UnknownSchemaThrowsInsteadOfPassingSilently) {
  const prof::JsonValue bogus = prof::json_parse("{\"schema\":\"bogus-v0\"}");
  const prof::JsonValue good = bench_doc(0.010, 0.020);
  EXPECT_THROW(prof::diff_documents(bogus, good, 0.05), invalid_argument);
  EXPECT_THROW(prof::diff_documents(good, bogus, 0.05), invalid_argument);
}

TEST(ProfDiff, BenchVersusMetricsSharesNoKeys) {
  // A mixed diff is well-formed but vacuous: no join keys, no verdict flip.
  // (bench_ci.sh always pairs like with like; this documents the fallback.)
  const prof::JsonValue bench = bench_doc(0.010, 0.020);
  const prof::JsonValue metrics = metrics_doc("v2", 1.0, 0.8, 0.5);
  const prof::DocumentDiff d = prof::diff_documents(bench, metrics, 0.05);
  EXPECT_TRUE(d.rows.empty());
  EXPECT_FALSE(d.regression);
}

}  // namespace
}  // namespace tseig
