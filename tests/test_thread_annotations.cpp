// Tests for src/common/thread_annotations.hpp.
//
// The annotations' analysis half only exists under Clang (exercised by the
// thread-safety CI leg and the negative-compile gate in the top-level
// CMakeLists); what every toolchain must guarantee is the other half:
//   1. on compilers without the capability attributes the macros expand to
//      NOTHING -- zero ABI or overload-resolution footprint; and
//   2. tseig::Mutex / tseig::LockGuard behave exactly like std::mutex /
//      std::unique_lock, including the native() escape used for
//      condition_variable waits.
#include <atomic>
#include <condition_variable>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.hpp"

namespace {

// --------------------------------------------------------------------------
// 1. Macro expansion contract.

#if !defined(__clang__)
// Stringize after one expansion: a no-op macro must vanish entirely.
#define TSEIG_TEST_STR2(x) #x
#define TSEIG_TEST_STR(x) TSEIG_TEST_STR2(x)
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_GUARDED_BY(mu))) == 1,
              "TSEIG_GUARDED_BY must expand to nothing outside Clang");
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_REQUIRES(mu))) == 1,
              "TSEIG_REQUIRES must expand to nothing outside Clang");
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_EXCLUDES(mu))) == 1,
              "TSEIG_EXCLUDES must expand to nothing outside Clang");
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_ACQUIRE())) == 1,
              "TSEIG_ACQUIRE must expand to nothing outside Clang");
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_RELEASE())) == 1,
              "TSEIG_RELEASE must expand to nothing outside Clang");
static_assert(sizeof(TSEIG_TEST_STR(TSEIG_NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "TSEIG_NO_THREAD_SAFETY_ANALYSIS must expand to nothing "
              "outside Clang");
#undef TSEIG_TEST_STR
#undef TSEIG_TEST_STR2
#endif

// The wrappers must never grow state beyond the wrapped primitive.
static_assert(sizeof(tseig::Mutex) == sizeof(std::mutex),
              "tseig::Mutex must be a zero-overhead std::mutex wrapper");
static_assert(!std::is_copy_constructible_v<tseig::Mutex>);
static_assert(!std::is_copy_constructible_v<tseig::LockGuard>);

// --------------------------------------------------------------------------
// 2. Runtime behavior.

TEST(ThreadAnnotations, MutexExcludes) {
  tseig::Mutex mu;
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ThreadAnnotations, LockGuardHoldsForScope) {
  tseig::Mutex mu;
  {
    tseig::LockGuard lock(mu);
    EXPECT_FALSE(mu.try_lock());
  }
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ThreadAnnotations, LockGuardManualUnlockRelock) {
  tseig::Mutex mu;
  tseig::LockGuard lock(mu);
  lock.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  lock.lock();
  EXPECT_FALSE(mu.try_lock());
}

TEST(ThreadAnnotations, NativeInteroperatesWithConditionVariable) {
  // The exact wait shape thread_pool.cpp uses:
  // LockGuard + cv.wait(lock.native(), pred).
  tseig::Mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread signaller([&] {
    tseig::LockGuard lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    tseig::LockGuard lock(mu);
    cv.wait(lock.native(), [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  signaller.join();
}

TEST(ThreadAnnotations, MutexActuallyExcludesAcrossThreads) {
  tseig::Mutex mu;
  int counter = 0;  // would race without mu
  constexpr int kThreads = 8, kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        tseig::LockGuard lock(mu);
        ++counter;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

}  // namespace
