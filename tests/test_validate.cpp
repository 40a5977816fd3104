// Tests for the GraphValidator subsystem: region extents, the static
// potential-race audit, the dynamic declared-access checker, cycle
// detection, and the schedule fuzzer / serial-elision oracle pair.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lapack/aux.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/validate.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "test_support.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"

namespace tseig {
namespace {

using rt::GraphValidator;
using rt::rd;
using rt::region_key;
using rt::RegionExtent;
using rt::RegionMap;
using rt::TaskGraph;
using rt::validation_error;
using rt::wr;

/// Restores the process-wide validation configuration on scope exit so no
/// test leaks fuzzing or elision modes into its neighbors.
struct ConfigGuard {
  rt::ValidationConfig saved = rt::validation_config();
  ~ConfigGuard() {
    rt::set_validation(saved.validate);
    if (saved.fuzz) {
      rt::set_fuzz_seed(saved.fuzz_seed);
    } else {
      rt::disable_fuzzing();
    }
    rt::set_serial_elision(saved.serial_elision);
  }
};

// ---- RegionExtent ----------------------------------------------------------

TEST(RegionExtent, ContiguousOverlap) {
  double buf[16] = {};
  RegionExtent a, b, c;
  a.add(buf, 8 * sizeof(double));
  b.add(buf + 4, 8 * sizeof(double));
  c.add(buf + 8, 8 * sizeof(double));
  a.normalize();
  b.normalize();
  c.normalize();
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));  // [0,8) vs [8,16): half-open, no overlap
}

TEST(RegionExtent, StridedColumnsDoNotFalselyOverlap) {
  // Two interleaved column sets of an ld=8 matrix: bounding boxes overlap,
  // per-column intervals do not.
  double buf[8 * 6] = {};
  RegionExtent even, odd;
  for (int c = 0; c < 6; c += 2) even.add(buf + c * 8, 4 * sizeof(double));
  for (int c = 1; c < 6; c += 2) odd.add(buf + c * 8, 4 * sizeof(double));
  even.normalize();
  odd.normalize();
  EXPECT_FALSE(even.overlaps(odd));
  RegionExtent all;
  for (int c = 0; c < 6; ++c) all.add(buf + c * 8, 4 * sizeof(double));
  all.normalize();
  EXPECT_TRUE(all.overlaps(even));
  EXPECT_TRUE(all.overlaps(odd));
}

TEST(RegionExtent, NormalizeMergesAdjacentParts) {
  double buf[12] = {};
  RegionExtent e;
  e.add(buf + 4, 4 * sizeof(double));
  e.add(buf, 4 * sizeof(double));
  e.add(buf + 8, 0);  // empty part dropped
  e.normalize();
  ASSERT_EQ(e.parts.size(), 1u);
  EXPECT_EQ(e.parts[0].hi - e.parts[0].lo, 8 * sizeof(double));
}

// ---- Static audit ----------------------------------------------------------

TEST(StaticAudit, ReportsOverlappingUnorderedWrites) {
  // Two tasks declared on *different* keys whose resolved footprints share
  // bytes: the classic wrong-key bug the audit exists for.
  double buf[64];
  RegionMap map;
  map.add_resolver(1, [&buf](std::uint32_t i, std::uint32_t) {
    RegionExtent e;
    e.add(buf + 4 * i, 8 * sizeof(double));  // blocks of 8 with stride 4!
    return e;
  });
  TaskGraph g;
  g.enable_validation(true);
  g.set_region_map(&map);
  TaskGraph::Options o1;
  o1.label = "writer_a";
  TaskGraph::Options o2;
  o2.label = "writer_b";
  g.submit([] {}, {wr(region_key(1, 0, 0))}, o1);
  g.submit([] {}, {wr(region_key(1, 1, 0))}, o2);
  const auto findings = GraphValidator::audit(g, map);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].label_a, "writer_a");
  EXPECT_EQ(findings[0].label_b, "writer_b");
  const std::string msg = findings[0].describe();
  EXPECT_NE(msg.find("potential race"), std::string::npos);
  EXPECT_NE(msg.find("writer_a"), std::string::npos);
  EXPECT_NE(msg.find("tag=1"), std::string::npos);
  // run() performs the same audit and must refuse to execute.
  EXPECT_THROW(g.run(2), validation_error);
  EXPECT_EQ(g.size(), 0);  // graph cleared, reusable
}

TEST(StaticAudit, OrderedOverlapIsNotARace) {
  double buf[64];
  RegionMap map;
  map.add_resolver(1, [&buf](std::uint32_t, std::uint32_t) {
    RegionExtent e;
    e.add(buf, 8 * sizeof(double));
    return e;
  });
  TaskGraph g;
  g.enable_validation(true);
  g.set_region_map(&map);
  // Same key: hazard edge orders the pair, same bytes are fine.
  g.submit([] {}, {wr(region_key(1, 0, 0))});
  g.submit([] {}, {wr(region_key(1, 0, 0))});
  EXPECT_TRUE(GraphValidator::audit(g, map).empty());
  g.run(2);
}

TEST(StaticAudit, ManualEdgeOrdersOtherwiseRacyPair) {
  double buf[64];
  RegionMap map;
  map.add_resolver(1, [&buf](std::uint32_t, std::uint32_t) {
    RegionExtent e;
    e.add(buf, 8 * sizeof(double));
    return e;
  });
  TaskGraph g;
  g.enable_validation(true);
  g.set_region_map(&map);
  const idx t0 = g.submit([] {}, {wr(region_key(1, 0, 0))});
  const idx t1 = g.submit([] {}, {wr(region_key(1, 1, 0))});
  ASSERT_EQ(GraphValidator::audit(g, map).size(), 1u);
  g.add_dependency(t0, t1);
  EXPECT_TRUE(GraphValidator::audit(g, map).empty());
  g.run(2);
}

// ---- Cycle detection -------------------------------------------------------

TEST(CycleDetection, ValidatorReportsManualEdgeCycle) {
  TaskGraph g;
  g.enable_validation(true);
  const idx t0 = g.submit([] {}, {wr(region_key(1, 0, 0))});
  const idx t1 = g.submit([] {}, {rd(region_key(1, 0, 0))});  // t0 -> t1
  g.add_dependency(t1, t0);                                   // closes a cycle
  const auto cyc = GraphValidator::find_cycle(g);
  EXPECT_EQ(cyc.size(), 2u);
  try {
    g.run(2);
    FAIL() << "expected validation_error";
  } catch (const validation_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
  EXPECT_EQ(g.size(), 0);
}

TEST(CycleDetection, RunWithoutValidationDeadlockAborts) {
  // Even with validation off, run() must not hang on a cyclic graph.
  TaskGraph g;
  g.enable_validation(false);
  const idx t0 = g.submit([] {}, {wr(region_key(1, 0, 0))});
  const idx t1 = g.submit([] {}, {rd(region_key(1, 0, 0))});
  g.add_dependency(t1, t0);
  EXPECT_THROW(g.run(2), validation_error);
}

// ---- Dynamic declared-access checker ---------------------------------------

TEST(DynamicChecker, WriteToReadOnlyDeclarationAborts) {
  TaskGraph g;
  g.enable_validation(true);
  const auto key = region_key(2, 3, 1);
  TaskGraph::Options o;
  o.label = "sneaky";
  g.submit([key] { rt::touch_write(key); }, {rd(key)}, o);
  try {
    g.run(2);
    FAIL() << "expected validation_error";
  } catch (const validation_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sneaky"), std::string::npos);
    EXPECT_NE(msg.find("missing wr()"), std::string::npos);
    EXPECT_NE(msg.find("tag=2"), std::string::npos);
  }
}

TEST(DynamicChecker, UndeclaredRegionNamesNearestDeclared) {
  TaskGraph g;
  g.enable_validation(true);
  TaskGraph::Options o;
  o.label = "off_by_one";
  // Declares tile (4, 2) but writes (5, 2): the classic index slip.
  g.submit([] { rt::touch_write(region_key(2, 5, 2)); },
           {wr(region_key(2, 4, 2))}, o);
  try {
    g.run(2);
    FAIL() << "expected validation_error";
  } catch (const validation_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("off_by_one"), std::string::npos);
    EXPECT_NE(msg.find("outside its declared accesses"), std::string::npos);
    EXPECT_NE(msg.find("nearest declared: wr region(tag=2, i=4, j=2)"),
              std::string::npos);
  }
}

TEST(DynamicChecker, DeclaredTouchesPass) {
  TaskGraph g;
  g.enable_validation(true);
  const auto a = region_key(2, 0, 0);
  const auto b = region_key(2, 1, 0);
  int ran = 0;
  g.submit(
      [a, b, &ran] {
        rt::touch_read(a);
        rt::touch_write(b);
        ++ran;
      },
      {rd(a), wr(b)});
  g.run(2);
  EXPECT_EQ(ran, 1);
}

TEST(DynamicChecker, ForeignTagIsIgnoredAsNestedAlgorithm) {
  // A tag the task never declares marks a nested serial algorithm (e.g. a
  // batch task running a whole solver); it must not trip the checker.
  TaskGraph g;
  g.enable_validation(true);
  int ran = 0;
  g.submit(
      [&ran] {
        rt::touch_write(region_key(7, 0, 0));  // foreign tag
        ++ran;
      },
      {wr(region_key(2, 0, 0))});
  g.run(2);
  EXPECT_EQ(ran, 1);
}

TEST(DynamicChecker, NoOpWhenValidationDisabled) {
  TaskGraph g;
  g.enable_validation(false);
  int ran = 0;
  g.submit(
      [&ran] {
        rt::touch_write(region_key(2, 9, 9));  // would abort if checked
        ++ran;
      },
      {rd(region_key(2, 0, 0))});
  g.run(2);
  EXPECT_EQ(ran, 1);
}

// ---- Clean pipelines under full validation ---------------------------------

TEST(ValidatedPipelines, FourAlgorithmGraphsAuditClean) {
  // The acceptance bar for the audit: zero findings (no throw) on every
  // unmodified algorithm graph, with the dynamic checker armed throughout.
  // Only sy2sb runs a task graph; apply_q1, sb2st, apply_q2, stedc and
  // syev_batch are self-scheduled loops with no graph to audit, but run
  // here under validation too because they feed the end-to-end check (and
  // must not trip the armed checker).
  ConfigGuard guard;
  rt::set_validation(true);
  Rng rng(123);
  const idx n = 96;
  const Matrix a = tseig::testing::random_symmetric(n, rng);

  // sy2sb + apply_q1 (stage 1).
  auto s1 = twostage::sy2sb(n, a.data(), a.ld(), 16, 4);
  Matrix g1(n, n);
  lapack::laset(n, n, 0.0, 1.0, g1.data(), g1.ld());
  twostage::apply_q1(op::none, s1.q1, g1.data(), g1.ld(), n, 4, 24);

  // sb2st (stage 2): a sweep pipeline, not a task graph.
  twostage::Sb2stOptions s2o;
  s2o.num_workers = 4;
  auto s2 = twostage::sb2st(s1.band, s2o);

  // apply_q2 (back-transformation): a loop over column blocks.
  Matrix e(n, n);
  lapack::laset(n, n, 0.0, 1.0, e.data(), e.ld());
  twostage::apply_q2(op::none, s2.v2, e.data(), e.ld(), n, 8, 4, 24);

  // stedc (D&C): one loop per tree level, then the root merges.
  std::vector<double> d = s2.d, ee = s2.e;
  Matrix z(n, n);
  tridiag::StedcOptions dco;
  dco.num_workers = 4;
  dco.crossover = 8;
  tridiag::stedc(n, d.data(), ee.data(), z.data(), z.ld(), dco);

  // syev_batch (whole-problem fan-out).
  std::vector<Matrix> mats;
  for (int i = 0; i < 4; ++i) mats.push_back(tseig::testing::random_symmetric(24, rng));
  std::vector<solver::BatchProblem> problems;
  for (auto& m : mats) problems.push_back({24, m.data(), m.ld(), {}});
  solver::SyevBatchOptions bo;
  bo.num_workers = 4;
  const auto batch = solver::syev_batch(problems, bo);
  EXPECT_EQ(batch.results.size(), 4u);

  // End-to-end sanity on the pipeline outputs computed under validation.
  EXPECT_TRUE(tseig::testing::check_eigen_pairs(a, d, [&] {
    Matrix zz = z;
    // Back-transform: Z_full = Q1 Q2 Z.
    twostage::apply_q2(op::none, s2.v2, zz.data(), zz.ld(), n, 8, 4, 24);
    twostage::apply_q1(op::none, s1.q1, zz.data(), zz.ld(), n, 4, 24);
    return zz;
  }()));
}

// ---- Schedule fuzzer + serial-elision oracle -------------------------------

TEST(ScheduleFuzzer, FuzzedRunsMatchSerialElisionBitwise) {
  ConfigGuard guard;
  Rng rng(31415);
  const idx n = 72;
  const Matrix a = tseig::testing::random_symmetric(n, rng);

  solver::SyevOptions base;
  base.nb = 12;
  base.dc_crossover = 8;

  // Oracle: the serial elision executes every graph of the pipeline in
  // submission order on one thread.
  rt::set_serial_elision(true);
  solver::SyevOptions oracle_opts = base;
  oracle_opts.num_workers = 4;
  const auto oracle = solver::syev(n, a.data(), a.ld(), oracle_opts);
  rt::set_serial_elision(false);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const int workers : {2, 8}) {
      rt::set_fuzz_seed(seed);
      solver::SyevOptions o = base;
      o.num_workers = workers;
      const auto got = solver::syev(n, a.data(), a.ld(), o);
      rt::disable_fuzzing();

      ASSERT_EQ(got.eigenvalues.size(), oracle.eigenvalues.size())
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(std::memcmp(got.eigenvalues.data(), oracle.eigenvalues.data(),
                            got.eigenvalues.size() * sizeof(double)),
                0)
          << "eigenvalues differ bitwise at seed " << seed << " workers "
          << workers;
      ASSERT_EQ(got.z.rows(), oracle.z.rows());
      ASSERT_EQ(got.z.cols(), oracle.z.cols());
      bool same = true;
      for (idx c = 0; c < got.z.cols() && same; ++c)
        same = std::memcmp(got.z.col(c), oracle.z.col(c),
                           static_cast<size_t>(got.z.rows()) *
                               sizeof(double)) == 0;
      EXPECT_TRUE(same) << "eigenvectors differ bitwise at seed " << seed
                        << " workers " << workers;
    }
  }
}

TEST(ScheduleFuzzer, FuzzedGraphStillHonorsHazards) {
  ConfigGuard guard;
  rt::set_fuzz_seed(99);
  TaskGraph g;
  std::vector<int> log;
  const auto key = region_key(3, 0, 0);
  for (int i = 0; i < 40; ++i)
    g.submit([&log, i] { log.push_back(i); }, {rd(key), wr(key)});
  g.run(4);
  ASSERT_EQ(log.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(log[static_cast<size_t>(i)], i);
}

TEST(SerialElision, RunsInSubmissionOrderIgnoringPriorities) {
  TaskGraph g;
  g.enable_serial_elision(true);
  std::vector<int> log;
  for (int i = 0; i < 6; ++i) {
    TaskGraph::Options opts;
    opts.priority = i;  // would reverse the order under normal scheduling
    g.submit([&log, i] { log.push_back(i); },
             {wr(region_key(4, static_cast<std::uint32_t>(i), 0))}, opts);
  }
  g.run(4);
  const std::vector<int> expect = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(log, expect);
}

}  // namespace
}  // namespace tseig
