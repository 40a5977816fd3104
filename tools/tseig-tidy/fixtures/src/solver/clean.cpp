// Fixture: a well-behaved solver TU -- every check must stay quiet.  Strings
// and comments mentioning std::thread, fma, or system_clock are not code and
// must not fire.
#include <chrono>
#include <string>

const char* kDoc =
    "docs may say std::thread and std::fma(a,b,c) and system_clock freely";

// A comment naming gettimeofday() is also not a finding.

double elapsed_ok() {
  auto t0 = std::chrono::steady_clock::now();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double plain_math(double a, double b, double c) { return a * b + c; }
