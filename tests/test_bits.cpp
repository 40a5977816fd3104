// Golden-bits test: the exact bits syev() and syev_batch() return, pinned
// across builds.
//
// The library rounds one way on every build: -ffp-contract=off on the whole
// tseig target, with the explicit fused k-steps of src/blas/kernels/ as the
// only fused operations (DESIGN.md §11).  So a -march=native build, a
// generic build and every TSEIG_KERNEL tier must give the same bits, and
// this test checks them against one committed list,
// tests/golden/syev_bits.txt.  Each line is one configuration and one
// FNV-1a hash of its eigenvalues followed by its Z.  Within a configuration
// the test first asserts one hash across worker counts {1, 4} and, on the
// two-stage path, stage-1 look-ahead depths {0, 2}.
//
// On a mismatch the actual list is written next to the test binary
// (TSEIG_BITS_ACTUAL) and the failure names that file: a change that moves
// bits on purpose copies it over the golden file and lists the moved lines.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "test_support.hpp"

#ifndef TSEIG_BITS_GOLDEN
#error "build must define TSEIG_BITS_GOLDEN (see tests/CMakeLists.txt)"
#endif
#ifndef TSEIG_BITS_ACTUAL
#error "build must define TSEIG_BITS_ACTUAL (see tests/CMakeLists.txt)"
#endif

namespace tseig {
namespace {

using solver::BatchProblem;
using solver::eig_solver;
using solver::jobz;
using solver::method;
using solver::SyevOptions;
using solver::SyevResult;

/// 64-bit FNV-1a over raw bytes.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const void* p, std::size_t bytes) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(const SyevResult& r) {
    add(r.eigenvalues.data(), r.eigenvalues.size() * sizeof(double));
    add(r.z.data(),
        static_cast<std::size_t>(r.z.rows() * r.z.cols()) * sizeof(double));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string hash_of(const SyevResult& r) {
  Fnv1a f;
  f.add(r);
  return f.hex();
}

const char* solver_name(eig_solver s) {
  switch (s) {
    case eig_solver::qr: return "qr";
    case eig_solver::dc: return "dc";
    case eig_solver::bisect: return "bisect";
  }
  return "?";
}

/// One job setting of the grid: values only, all vectors, or the smallest
/// 20% of the vectors.
struct Job {
  jobz job;
  double fraction;
  const char* name;
};
constexpr Job kJobs[] = {{jobz::values_only, 1.0, "values"},
                         {jobz::vectors, 1.0, "vectors f=1"},
                         {jobz::vectors, 0.2, "vectors f=0.2"}};
constexpr idx kSizes[] = {2, 3, 4, 17, 64, 130, 300, 385};
constexpr method kMethods[] = {method::one_stage, method::two_stage};
constexpr eig_solver kSolvers[] = {eig_solver::qr, eig_solver::dc,
                                   eig_solver::bisect};

/// Hashes `count` solves of random n x n matrices drawn from one seed, in
/// order, with the default options.
std::string random_small_hash(idx n, int count, std::uint64_t seed) {
  Rng rng(seed);
  Fnv1a f;
  for (int k = 0; k < count; ++k) {
    const Matrix a = testing::random_symmetric(n, rng);
    f.add(solver::syev(n, a.data(), a.ld(), SyevOptions{}));
  }
  return f.hex();
}

/// Hashes one syev_batch of mixed sizes, solvers and jobs, in input order.
std::string mixed_batch_hash() {
  Rng rng(0xB175);
  std::vector<Matrix> storage;
  std::vector<BatchProblem> problems;
  constexpr int kCount = 48;
  storage.reserve(kCount);
  for (int k = 0; k < kCount; ++k) {
    const idx n = 1 + static_cast<idx>(rng.next_u64() % 96);
    storage.push_back(testing::random_symmetric(n, rng));
    BatchProblem p;
    p.n = n;
    p.a = storage.back().data();
    p.lda = storage.back().ld();
    p.opts.algo = kMethods[k % 2];
    p.opts.solver = kSolvers[k % 3];
    const Job& job = kJobs[k % 3];
    p.opts.job = job.job;
    p.opts.fraction = job.fraction;
    problems.push_back(p);
  }
  solver::SyevBatchOptions opts;
  opts.num_workers = 4;
  const solver::SyevBatchResult res = solver::syev_batch(problems, opts);
  Fnv1a f;
  for (const SyevResult& r : res.results) f.add(r);
  return f.hex();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(GoldenBits, SyevGridMatchesGoldenFile) {
  std::vector<std::string> actual;
  for (const idx n : kSizes) {
    Rng rng(0x5EED0000u + static_cast<std::uint64_t>(n));
    const Matrix a = testing::random_symmetric(n, rng);
    for (const method m : kMethods) {
      for (const eig_solver s : kSolvers) {
        for (const Job& job : kJobs) {
          std::ostringstream cfg;
          cfg << "n=" << n << " " << solver::method_name(m) << " "
              << solver_name(s) << " " << job.name;
          std::string hash;
          for (const int workers : {1, 4}) {
            for (const int lookahead : {0, 2}) {
              if (m == method::one_stage && lookahead != 0) continue;
              SyevOptions o;
              o.algo = m;
              o.solver = s;
              o.job = job.job;
              o.fraction = job.fraction;
              o.num_workers = workers;
              o.lookahead = lookahead;
              const std::string h =
                  hash_of(solver::syev(n, a.data(), a.ld(), o));
              if (hash.empty()) hash = h;
              EXPECT_EQ(h, hash) << cfg.str() << " workers=" << workers
                                 << " lookahead=" << lookahead;
            }
          }
          actual.push_back(cfg.str() + " " + hash);
        }
      }
    }
  }
  actual.push_back("n=2 random x500 " + random_small_hash(2, 500, 0x2222));
  actual.push_back("n=3 random x500 " + random_small_hash(3, 500, 0x3333));
  actual.push_back("syev_batch mixed x48 " + mixed_batch_hash());

  const std::vector<std::string> golden = read_lines(TSEIG_BITS_GOLDEN);
  if (golden == actual) return;
  {
    std::ofstream out(TSEIG_BITS_ACTUAL);
    for (const std::string& line : actual) out << line << "\n";
  }
  std::ostringstream diff;
  int moved = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const std::string want = i < golden.size() ? golden[i] : "(missing)";
    if (want == actual[i]) continue;
    if (++moved <= 20)
      diff << "  golden: " << want << "\n  actual: " << actual[i] << "\n";
  }
  ADD_FAILURE() << moved << " of " << actual.size()
                << " lines differ from " << TSEIG_BITS_GOLDEN << " ("
                << golden.size() << " lines); the actual list is in "
                << TSEIG_BITS_ACTUAL << "\n"
                << diff.str();
}

}  // namespace
}  // namespace tseig
