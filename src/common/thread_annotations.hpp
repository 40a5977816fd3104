// Clang thread-safety annotations for tseig's concurrent subsystems.
//
// The locking discipline of the pool and the telemetry recorder used to be
// enforced only at runtime (the TSan legs).  These macros move the
// contracts to compile time: every mutex in the tree is a tseig::Mutex
// carrying the Clang `capability` attribute, every guarded member names its
// mutex with TSEIG_GUARDED_BY, and functions that assume a lock is held say
// so with TSEIG_REQUIRES.  A Clang build with -Werror=thread-safety (CMake
// option TSEIG_THREAD_SAFETY=ON; the blocking `thread-safety` CI leg) then
// rejects any unguarded access or unbalanced lock on every PR.
//
// On non-Clang compilers (and Clang without the attributes) every macro
// expands to nothing and tseig::Mutex / tseig::LockGuard are zero-overhead
// wrappers over std::mutex / std::unique_lock, so GCC builds are unchanged
// (tests/test_thread_annotations.cpp pins the no-op expansion down).
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TSEIG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef TSEIG_THREAD_ANNOTATION
#define TSEIG_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex", "role", ...).
#define TSEIG_CAPABILITY(name) TSEIG_THREAD_ANNOTATION(capability(name))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (our LockGuard).
#define TSEIG_SCOPED_CAPABILITY TSEIG_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the named mutex(es).
#define TSEIG_GUARDED_BY(x) TSEIG_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named mutex.
#define TSEIG_PT_GUARDED_BY(x) TSEIG_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the named capabilities.
#define TSEIG_REQUIRES(...) \
  TSEIG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the capability and holds it past return.
#define TSEIG_ACQUIRE(...) \
  TSEIG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases a held capability.
#define TSEIG_RELEASE(...) \
  TSEIG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function tries to acquire; the boolean first argument is the success
/// return value.
#define TSEIG_TRY_ACQUIRE(...) \
  TSEIG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function must NOT be called while holding the named capabilities
/// (deadlock prevention: it acquires them itself).
#define TSEIG_EXCLUDES(...) TSEIG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the named capability.
#define TSEIG_RETURN_CAPABILITY(x) TSEIG_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code whose safety argument the analysis cannot see
/// (e.g. joining quiesced workers in a destructor).  Use sparingly and leave
/// a comment with the manual proof.
#define TSEIG_NO_THREAD_SAFETY_ANALYSIS \
  TSEIG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tseig {

/// std::mutex annotated as a Clang capability so it can appear in
/// TSEIG_GUARDED_BY / TSEIG_REQUIRES.  libstdc++'s std::mutex carries no
/// annotations, so guarding members with it directly would trip
/// -Wthread-safety-attributes; this wrapper is the annotated front.
class TSEIG_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TSEIG_ACQUIRE() { m_.lock(); }
  void unlock() TSEIG_RELEASE() { m_.unlock(); }
  bool try_lock() TSEIG_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for std::condition_variable interop (the
  /// wait(lock) overloads demand std::unique_lock<std::mutex>).  Waiting
  /// does not change which thread holds the capability, so no annotation is
  /// needed on the call sites.
  std::mutex& native() { return m_; }

private:
  std::mutex m_;
};

/// Scoped lock for tseig::Mutex: acquires on construction, releases on
/// destruction, with explicit unlock()/lock() for condition-variable loops
/// and early-release patterns.  Annotated as a scoped capability so Clang
/// tracks the lock state through all four operations.
class TSEIG_SCOPED_CAPABILITY LockGuard {
public:
  explicit LockGuard(Mutex& m) TSEIG_ACQUIRE(m) : lk_(m.native()) {}
  ~LockGuard() TSEIG_RELEASE() = default;

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  /// Re-acquires after an explicit unlock().
  void lock() TSEIG_ACQUIRE() { lk_.lock(); }
  /// Releases before scope exit (the destructor then no-ops).
  void unlock() TSEIG_RELEASE() { lk_.unlock(); }

  /// The underlying std::unique_lock, for std::condition_variable::wait.
  std::unique_lock<std::mutex>& native() { return lk_; }

private:
  std::unique_lock<std::mutex> lk_;
};

}  // namespace tseig
