// Tests for the data-hazard task-graph runtime.
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"

namespace tseig {
namespace {

using rt::rd;
using rt::region_key;
using rt::TaskGraph;
using rt::wr;

class RuntimeWorkers : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeWorkers, AllTasksRunExactlyOnce) {
  const int workers = GetParam();
  TaskGraph g;
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  for (idx i = 0; i < 100; ++i) {
    g.submit([&hits, i] { hits[static_cast<size_t>(i)]++; },
             {wr(region_key(1, static_cast<std::uint32_t>(i), 0))});
  }
  g.run(workers);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(RuntimeWorkers, RawChainExecutesInOrder) {
  const int workers = GetParam();
  TaskGraph g;
  std::vector<int> log;
  const auto key = region_key(2, 0, 0);
  for (int i = 0; i < 50; ++i) {
    // Each task reads and writes the same region: a strict chain.
    g.submit([&log, i] { log.push_back(i); }, {rd(key), wr(key)});
  }
  g.run(workers);
  ASSERT_EQ(log.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(log[static_cast<size_t>(i)], i);
}

TEST_P(RuntimeWorkers, ReadersRunBetweenWriters) {
  const int workers = GetParam();
  TaskGraph g;
  const auto key = region_key(3, 0, 0);
  std::atomic<int> value{0};
  std::atomic<int> bad_reads{0};
  g.submit([&] { value = 1; }, {wr(key)});
  // Ten concurrent readers must all see value == 1 (after writer 1, before
  // writer 2 thanks to WAR edges).
  for (int r = 0; r < 10; ++r) {
    g.submit(
        [&] {
          if (value.load() != 1) bad_reads++;
        },
        {rd(key)});
  }
  g.submit([&] { value = 2; }, {wr(key)});
  g.submit(
      [&] {
        if (value.load() != 2) bad_reads++;
      },
      {rd(key)});
  g.run(workers);
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(value.load(), 2);
}

TEST_P(RuntimeWorkers, SequentialConsistencyOnRandomGraph) {
  const int workers = GetParam();
  // Random read/write tasks over a few regions; the parallel execution must
  // produce exactly the state of serial execution in submission order.
  constexpr idx kRegions = 13;
  constexpr idx kTasks = 800;
  Rng rng(2024);

  struct Op {
    idx dst;
    idx src1;
    idx src2;
  };
  std::vector<Op> ops;
  for (idx t = 0; t < kTasks; ++t) {
    Op o;
    o.dst = static_cast<idx>(rng.below(kRegions));
    o.src1 = static_cast<idx>(rng.below(kRegions));
    o.src2 = static_cast<idx>(rng.below(kRegions));
    ops.push_back(o);
  }

  // Serial oracle.  The mixing recurrence overflows quickly by design;
  // unsigned arithmetic keeps the wrap-around well defined (UBSan-clean).
  std::vector<unsigned long long> serial(kRegions);
  std::iota(serial.begin(), serial.end(), 1);
  for (const Op& o : ops)
    serial[static_cast<size_t>(o.dst)] =
        serial[static_cast<size_t>(o.src1)] + 3 * serial[static_cast<size_t>(o.src2)] + 1;

  // Parallel run.
  std::vector<unsigned long long> state(kRegions);
  std::iota(state.begin(), state.end(), 1);
  TaskGraph g;
  for (const Op& o : ops) {
    g.submit(
        [&state, o] {
          state[static_cast<size_t>(o.dst)] =
              state[static_cast<size_t>(o.src1)] + 3 * state[static_cast<size_t>(o.src2)] + 1;
        },
        {rd(region_key(4, static_cast<std::uint32_t>(o.src1), 0)),
         rd(region_key(4, static_cast<std::uint32_t>(o.src2), 0)),
         wr(region_key(4, static_cast<std::uint32_t>(o.dst), 0))});
  }
  g.run(workers);
  EXPECT_EQ(state, serial);
}

TEST_P(RuntimeWorkers, GraphIsReusableAfterRun) {
  const int workers = GetParam();
  TaskGraph g;
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i)
      g.submit([&] { count++; },
               {wr(region_key(5, static_cast<std::uint32_t>(i), 0))});
    g.run(workers);
  }
  EXPECT_EQ(count.load(), 60);
}

INSTANTIATE_TEST_SUITE_P(Workers, RuntimeWorkers, ::testing::Values(1, 2, 4, 8));

TEST(Runtime, TracingRecordsWorkerAssignment) {
  // Each task has its own label and records the lane of the thread that ran
  // it; its telemetry span must sit on that lane, and the tasks must land
  // on at most `workers` lanes.
  static const char* const kLabels[] = {"t0", "t1", "t2", "t3", "t4",  "t5",
                                        "t6", "t7", "t8", "t9", "t10", "t11"};
  constexpr int kTasks = 12;
  TaskGraph g;
  g.enable_serial_elision(false);
  const int workers = 3;
  std::vector<int> lane_of(kTasks, -1);
  for (int i = 0; i < kTasks; ++i) {
    TaskGraph::Options opts;
    opts.label = kLabels[i];
    g.submit(
        [&lane_of, i] {
          lane_of[static_cast<size_t>(i)] = obs::thread_lane();
          // Long enough that the other workers pick up tasks too.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        {wr(region_key(7, static_cast<std::uint32_t>(i), 0))}, opts);
  }
  obs::reset();
  obs::set_enabled(true);
  g.run(workers);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);

  std::map<std::string, int> span_lane;
  for (const obs::SpanRecord& s : snap.spans) {
    EXPECT_LE(s.start_seconds, s.end_seconds);
    span_lane[s.label] = s.lane;
  }
  ASSERT_EQ(span_lane.size(), static_cast<size_t>(kTasks));
  std::set<int> lanes;
  for (int i = 0; i < kTasks; ++i) {
    const int lane = lane_of[static_cast<size_t>(i)];
    EXPECT_EQ(span_lane[kLabels[i]], lane) << i;
    lanes.insert(lane);
  }
  EXPECT_LE(lanes.size(), static_cast<size_t>(workers));
}

TEST(Runtime, PriorityOrdersReadyTasksOnOneWorker) {
  TaskGraph g;
  // This test asserts the priority queue's pop order, which schedule
  // fuzzing (TSEIG_FUZZ_SEED) deliberately randomizes -- pin the scheduler.
  g.disable_fuzzing();
  std::vector<int> log;
  for (int i = 0; i < 6; ++i) {
    TaskGraph::Options opts;
    opts.priority = i;  // later submissions have higher priority
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(8, static_cast<std::uint32_t>(i), 0))}, opts);
  }
  g.run(1);
  // With one worker everything is ready at start: highest priority first.
  const std::vector<int> expect = {5, 4, 3, 2, 1, 0};
  EXPECT_EQ(log, expect);
}

TEST(Runtime, EqualPriorityPreservesSubmissionOrder) {
  TaskGraph g;
  g.disable_fuzzing();  // asserts FIFO pop order; see previous test
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) {
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(9, static_cast<std::uint32_t>(i), 0))});
  }
  g.run(1);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(log[static_cast<size_t>(i)], i);
}

TEST(Runtime, ExceptionPropagatesAfterDrain) {
  TaskGraph g;
  std::atomic<int> after{0};
  g.submit([] { throw std::runtime_error("boom"); },
           {wr(region_key(10, 0, 0))});
  g.submit([&] { after++; }, {rd(region_key(10, 0, 0))});
  EXPECT_THROW(g.run(2), std::runtime_error);
  // The dependent task still ran (drain semantics).
  EXPECT_EQ(after.load(), 1);
}

TEST(Runtime, EdgeCountMatchesHazards) {
  TaskGraph g;
  const auto a = region_key(11, 0, 0);
  const auto b = region_key(11, 1, 0);
  g.submit([] {}, {wr(a)});          // t0
  g.submit([] {}, {rd(a), wr(b)});   // t1: RAW on a -> 1 edge
  g.submit([] {}, {rd(a)});          // t2: RAW on a -> 1 edge
  g.submit([] {}, {wr(a)});          // t3: WAW t0 + WAR t1, t2 -> 3 edges
  g.submit([] {}, {rd(b), rd(a)});   // t4: RAW b (t1), RAW a (t3) -> 2 edges
  EXPECT_EQ(g.size(), 5);
  EXPECT_EQ(g.edges(), 7);
  g.run(2);
}

TEST(Runtime, EmptyGraphRuns) {
  TaskGraph g;
  g.run(4);
  EXPECT_EQ(g.size(), 0);
}

TEST(Runtime, ManyWorkersFewTasks) {
  TaskGraph g;
  std::atomic<int> count{0};
  g.submit([&] { count++; }, {wr(region_key(12, 0, 0))});
  g.run(16);
  EXPECT_EQ(count.load(), 1);
}

TEST(Runtime, RegionKeyDistinctTriplesMapToDistinctKeys) {
  // Boundary values of every field, including coordinates >= 2^24 that the
  // old XOR packing smeared into neighboring fields.
  const std::uint32_t tags[] = {0, 1, 7, 255};
  const std::uint32_t coords[] = {0, 1, (1u << 24) - 1, 1u << 24,
                                  (1u << 28) - 1};
  std::set<std::uint64_t> keys;
  size_t count = 0;
  for (std::uint32_t t : tags)
    for (std::uint32_t i : coords)
      for (std::uint32_t j : coords) {
        keys.insert(region_key(t, i, j));
        ++count;
      }
  EXPECT_EQ(keys.size(), count);
}

TEST(Runtime, RegionKeyFormerCollisionPairsAreDistinct) {
  // Under the old packing (tag << 48 ^ i << 24 ^ j) each pair produced the
  // same key, silently merging distinct regions and dropping dependence
  // edges.
  EXPECT_NE(region_key(1, 0, 0), region_key(0, 1u << 24, 0));
  EXPECT_NE(region_key(0, 1, 0), region_key(0, 0, 1u << 24));
  EXPECT_NE(region_key(3, (1u << 24) + 5, 9), region_key(3 ^ 1, 5, 9));
}

TEST(Runtime, RegionKeyOutOfRangeThrows) {
  EXPECT_THROW(region_key(1u << rt::kRegionTagBits, 0, 0), invalid_argument);
  EXPECT_THROW(region_key(0, 1u << rt::kRegionCoordBits, 0),
               invalid_argument);
  EXPECT_THROW(region_key(0, 0, 1u << rt::kRegionCoordBits),
               invalid_argument);
}

TEST(Runtime, RegionKeyOutOfRangeMessageNamesOffendingFields) {
  // The runtime path reports the actual field values and limits so a bad
  // key is diagnosable without a debugger (the constexpr path cannot carry
  // a formatted message, which is why the paths were split).
  try {
    region_key(300, 7, 1u << rt::kRegionCoordBits);
    FAIL() << "expected invalid_argument";
  } catch (const invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("region_key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag=300"), std::string::npos) << msg;
    EXPECT_NE(msg.find("i=7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("j=268435456"), std::string::npos) << msg;
  }
}

TEST(Runtime, GraphIsReusableAfterTaskException) {
  // A throwing task must not poison the TaskGraph: after the exception
  // drains out of run(), the same graph object accepts a fresh batch of
  // submissions and runs it like new.
  TaskGraph g;
  g.submit([] { throw std::runtime_error("boom"); },
           {wr(region_key(14, 0, 0))});
  EXPECT_THROW(g.run(2), std::runtime_error);
  EXPECT_EQ(g.size(), 0);  // run() clears the graph even on failure

  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i)
    g.submit([&] { count++; },
             {wr(region_key(14, static_cast<std::uint32_t>(i), 0))});
  EXPECT_EQ(g.size(), 16);
  EXPECT_NO_THROW(g.run(4));
  EXPECT_EQ(count.load(), 16);

  // And a second failure/recovery cycle, to rule out one-shot cleanup.
  g.submit([] { throw std::runtime_error("boom again"); },
           {wr(region_key(14, 0, 0))});
  EXPECT_THROW(g.run(1), std::runtime_error);
  g.submit([&] { count++; }, {wr(region_key(14, 1, 0))});
  EXPECT_NO_THROW(g.run(1));
  EXPECT_EQ(count.load(), 17);
}

TEST(Runtime, BackToBackRunsCreateNoThreadsWhenWarm) {
  const int workers = 4;
  auto run_graph = [&] {
    TaskGraph g;
    std::atomic<int> count{0};
    for (int i = 0; i < 32; ++i)
      g.submit([&] { count++; },
               {wr(region_key(13, static_cast<std::uint32_t>(i), 0))});
    g.run(workers);
    EXPECT_EQ(count.load(), 32);
  };
  run_graph();  // warm-up: the pool grows to workers - 1 threads at most once
  const auto warm = rt::ThreadPool::instance().stats();
  for (int round = 0; round < 5; ++round) run_graph();
  const auto after = rt::ThreadPool::instance().stats();
  EXPECT_EQ(after.threads_created, warm.threads_created)
      << "warm TaskGraph::run spawned OS threads";
  EXPECT_GT(after.jobs_executed, warm.jobs_executed);
}

// ---- Ready-queue ordering: FIFO tie-break, aging, critical-path ------------

TEST(ReadyQueue, FifoTieBreakAmongEqualPriorities) {
  // Regression for the deterministic tie-break contract: strictly higher
  // priority first, and submission order (FIFO) within each priority level.
  // One worker makes the pop sequence fully deterministic; the schedule
  // fuzzer (TSEIG_FUZZ_SEED) deliberately randomizes it, so pin it off.
  TaskGraph g;
  g.disable_fuzzing();
  std::vector<int> log;
  const int pri[] = {0, 5, 0, 5, 0, 5};
  for (int i = 0; i < 6; ++i) {
    TaskGraph::Options o;
    o.priority = pri[i];
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(21, static_cast<std::uint32_t>(i), 0))}, o);
  }
  g.run(1);
  const std::vector<int> expect = {1, 3, 5, 0, 2, 4};
  EXPECT_EQ(log, expect);
}

TEST(ReadyQueue, AgingBoundsStarvationDeterministically) {
  // Ten independent tasks; the first has the lowest priority and would run
  // last under pure priority order.  With an aging window of 2 it is passed
  // over exactly twice and must run third; the high-priority tasks keep
  // their FIFO order around it.
  TaskGraph g;
  g.disable_fuzzing();  // asserts exact pop order; see previous test
  g.set_priority_aging(2);
  EXPECT_EQ(g.priority_aging(), 2);
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) {
    TaskGraph::Options o;
    o.priority = i == 0 ? 0 : 10;
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(22, static_cast<std::uint32_t>(i), 0))}, o);
  }
  g.run(1);
  const std::vector<int> expect = {1, 2, 0, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(log, expect);
}

TEST(ReadyQueue, AgingDisabledRunsPurePriorityOrder) {
  TaskGraph g;
  g.disable_fuzzing();      // asserts exact pop order; see previous test
  g.set_priority_aging(0);  // window <= 0 disables the FIFO escape hatch
  std::vector<int> log;
  for (int i = 0; i < 10; ++i) {
    TaskGraph::Options o;
    o.priority = i == 0 ? 0 : 10;
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(23, static_cast<std::uint32_t>(i), 0))}, o);
  }
  g.run(1);
  ASSERT_EQ(log.size(), 10u);
  EXPECT_EQ(log.back(), 0);  // starved all the way to the end
}

TEST(ReadyQueue, CriticalPathPrioritiesFavorTheLongChain) {
  // Independent task D is submitted first; the chain A -> B -> C after it.
  // Default (all-equal) priorities run D first via the FIFO tie-break;
  // critical-path priorities lift the chain head above it and D only runs
  // once it ties with the chain tail.
  const auto chain = region_key(24, 0, 0);
  auto build = [&](std::vector<char>& log, TaskGraph& g) {
    g.submit([&log] { log.push_back('D'); }, {wr(region_key(24, 9, 0))});
    g.submit([&log] { log.push_back('A'); }, {rd(chain), wr(chain)});
    g.submit([&log] { log.push_back('B'); }, {rd(chain), wr(chain)});
    g.submit([&log] { log.push_back('C'); }, {rd(chain), wr(chain)});
  };
  {
    TaskGraph g;
    g.disable_fuzzing();  // asserts exact pop order
    std::vector<char> log;
    build(log, g);
    g.run(1);
    const std::vector<char> expect = {'D', 'A', 'B', 'C'};
    EXPECT_EQ(log, expect);
  }
  {
    TaskGraph g;
    g.disable_fuzzing();  // asserts exact pop order
    std::vector<char> log;
    build(log, g);
    g.apply_critical_path_priorities();
    g.run(1);
    const std::vector<char> expect = {'A', 'B', 'D', 'C'};
    EXPECT_EQ(log, expect);
  }
}

TEST(ReadyQueue, EnvParsingRejectsMalformedValues) {
  long v = 42;
  ::setenv("TSEIG_TEST_ENV", "7", 1);
  EXPECT_TRUE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
  EXPECT_EQ(v, 7);

  // Rejected values must leave the caller's default untouched.
  for (const char* bad : {"0", "-3", "12abc", "", "1e3", "101",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    v = 42;
    ::setenv("TSEIG_TEST_ENV", bad, 1);
    EXPECT_FALSE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
    EXPECT_EQ(v, 42);
  }

  ::unsetenv("TSEIG_TEST_ENV");
  v = 42;
  EXPECT_FALSE(rt::parse_env_long("TSEIG_TEST_ENV", 1, 100, &v));
  EXPECT_EQ(v, 42);
}

}  // namespace
}  // namespace tseig
