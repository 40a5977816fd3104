// Tests for the task-trace export: a self-scheduled pool loop recorded by
// the unified telemetry layer (tseig::obs) comes out of the Chrome-tracing
// exporter as one complete ("X") event per item span, carrying its label.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "prof.hpp"

namespace tseig {
namespace {

/// Records one self-scheduled loop of `tasks` items, each under a span
/// labelled `label`, on `workers` pool bodies and returns the telemetry
/// snapshot.
obs::Snapshot record_run(int workers, int tasks, const char* label) {
  obs::reset();
  obs::set_enabled(true);
  std::atomic<int> next{0};
  run_self_scheduled(workers, [&](int) {
    for (int i = next++; i < tasks; i = next++) {
      obs::Span span(label, i);
      volatile double x = 0.0;
      for (int k = 0; k < 1000; ++k) x = x + k;
    }
  });
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  return snap;
}

/// The complete events of a Chrome trace document.
std::vector<prof::JsonValue> complete_events(const std::string& json) {
  const prof::JsonValue doc = prof::json_parse(json);  // throws if malformed
  const prof::JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  std::vector<prof::JsonValue> out;
  if (events == nullptr) return out;
  for (const prof::JsonValue& ev : events->as_array())
    if (ev.string_or("ph", "") == "X") out.push_back(ev);
  return out;
}

TEST(TraceExport, PoolLoopExportsOneCompleteEventPerItem) {
  const obs::Snapshot snap = record_run(3, 17, "work");
  const auto events = complete_events(obs::to_chrome_trace_json(snap));
  ASSERT_EQ(events.size(), 17u);
  for (const prof::JsonValue& ev : events) {
    EXPECT_EQ(ev.string_or("name", ""), "work");
    EXPECT_EQ(ev.string_or("cat", ""), "task");
    EXPECT_GE(ev.number_or("dur", -1.0), 0.0);
    EXPECT_GE(ev.number_or("tid", -1.0), 0.0);
  }
}

TEST(TraceExport, WriteCreatesFile) {
  const obs::Snapshot snap = record_run(2, 5, "work");
  const std::string path = ::testing::TempDir() + "tseig_trace_test.json";
  obs::write_chrome_trace_file(snap, path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str(), obs::to_chrome_trace_json(snap));
  std::remove(path.c_str());
}

TEST(TraceExport, EscapesHostileLabels) {
  // Labels containing '"' or '\' must not break the JSON document.
  static const char* const kLabel = "evil \"quote\" and \\backslash\\ and \ttab";
  const obs::Snapshot snap = record_run(1, 1, kLabel);
  const auto events = complete_events(obs::to_chrome_trace_json(snap));
  ASSERT_EQ(events.size(), 1u);
  // The parser unescapes back to the original label: a true round trip.
  EXPECT_EQ(events[0].string_or("name", ""), kLabel);
}

TEST(TraceExport, EmptyRunHasNoCompleteEvents) {
  const obs::Snapshot snap = record_run(2, 0, "work");
  EXPECT_TRUE(complete_events(obs::to_chrome_trace_json(snap)).empty());
}

}  // namespace
}  // namespace tseig
