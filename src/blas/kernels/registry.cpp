// Kernel-tier dispatch: cpuid probing, TSEIG_KERNEL override, and the
// process-wide active-tier pointer (see registry.hpp for the contract).
#include "blas/kernels/registry.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tseig::blas::kernels {
namespace {

/// The AVX2 tier's fused k-step is a VEX vfmadd, a separate cpuid bit.
bool host_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool host_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

/// Compiled-in tiers the host can actually execute, best first.  The scalar
/// tier is always present (it has no ISA requirement), so the list is never
/// empty.
std::vector<const Kernel*> probe_available() {
  std::vector<const Kernel*> out;
  if (const Kernel* k = kernel_avx512(); k != nullptr && host_has_avx512f())
    out.push_back(k);
  if (const Kernel* k = kernel_avx2(); k != nullptr && host_has_avx2_fma())
    out.push_back(k);
  if (const Kernel* k = kernel_neon(); k != nullptr) out.push_back(k);
  out.push_back(kernel_scalar());
  return out;
}

/// Resolves the startup default: TSEIG_KERNEL if set and satisfiable, else
/// the best available tier.  An unsatisfiable request warns on stderr and
/// falls back rather than killing a long job at first GEMM.
const Kernel* resolve_default() {
  if (const char* env = std::getenv("TSEIG_KERNEL");
      env != nullptr && *env != '\0') {
    if (const Kernel* k = find_kernel(env)) return k;
    std::fprintf(stderr,
                 "tseig: TSEIG_KERNEL=%s is not available on this host/build; "
                 "using '%s'\n",
                 env, available_kernels().front()->name);
  }
  return available_kernels().front();
}

/// Active tier; nullptr until first use or after select_kernel(nullptr).
std::atomic<const Kernel*> g_active{nullptr};

}  // namespace

std::vector<const Kernel*> available_kernels() {
  static const std::vector<const Kernel*> cached = probe_available();
  return cached;
}

const Kernel* find_kernel(const char* name) {
  if (name == nullptr) return nullptr;
  if (std::strcmp(name, "native") == 0 || std::strcmp(name, "auto") == 0 ||
      std::strcmp(name, "best") == 0)
    return available_kernels().front();
  for (const Kernel* k : available_kernels())
    if (std::strcmp(name, k->name) == 0) return k;
  return nullptr;
}

const Kernel& active_kernel() {
  const Kernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: concurrent first calls resolve to the same pointer.
    k = resolve_default();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const char* active_kernel_name() { return active_kernel().name; }

void select_kernel(const Kernel* k) {
  g_active.store(k != nullptr ? k : resolve_default(),
                 std::memory_order_release);
}

}  // namespace tseig::blas::kernels
