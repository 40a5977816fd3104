// clang-tidy plugin module registering the tseig-* checks (AST-matcher
// implementations; the token-level twin in ../checks.cpp carries the same
// contract for toolchains without Clang dev libraries).
//
// Build: configure with -DTSEIG_TIDY_PLUGIN=ON where find_package(Clang)
// resolves; load with
//   clang-tidy -load=$BUILD/tools/tseig-tidy/libtseig_tidy_plugin.so \
//              -checks='tseig-*' ...
// scripts/run_tidy.sh does this automatically when the module was built.
//
// Path scoping mirrors checks.cpp: no-raw-thread skips src/runtime/,
// kernel-fp-contract fires only in src/blas/kernels/ + src/blas/blas3.cpp,
// no-wallclock skips src/obs/, and task-touch-discipline skips the kernel
// defining TUs.  clang-tidy's own NOLINT machinery handles suppression.
#include "clang-tidy/ClangTidyCheck.h"
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Lex/Lexer.h"

namespace tseig_tidy {

using namespace clang;
using namespace clang::ast_matchers;
using clang::tidy::ClangTidyCheck;
using clang::tidy::ClangTidyContext;

namespace {

/// Repo-relative spelling of the main file, '/'-separated, anchored at the
/// last "/src/" component so build trees and fixture roots classify alike.
std::string mainFilePath(const SourceManager &SM) {
  const FileEntry *FE = SM.getFileEntryForID(SM.getMainFileID());
  if (!FE)
    return "";
  std::string P = FE->tryGetRealPathName().str();
  std::replace(P.begin(), P.end(), '\\', '/');
  const size_t At = P.rfind("/src/");
  return At == std::string::npos ? P : P.substr(At + 1);
}

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

} // namespace

// ---------------------------------------------------------------------------
// tseig-no-raw-thread: std::thread / std::jthread / std::async outside
// src/runtime/.

class NoRawThreadCheck : public ClangTidyCheck {
public:
  NoRawThreadCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    Finder->addMatcher(
        cxxConstructExpr(hasDeclaration(cxxMethodDecl(ofClass(
                             hasAnyName("::std::thread", "::std::jthread")))))
            .bind("spawn"),
        this);
    Finder->addMatcher(
        callExpr(callee(functionDecl(hasName("::std::async")))).bind("spawn"),
        this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const std::string Path = mainFilePath(*Result.SourceManager);
    if (!startsWith(Path, "src/") || startsWith(Path, "src/runtime/"))
      return;
    const auto *E = Result.Nodes.getNodeAs<Expr>("spawn");
    diag(E->getBeginLoc(),
         "raw thread primitive outside src/runtime/; use rt::ThreadPool / "
         "TaskGraph / parallel_for so the pool's nesting and "
         "zero-thread-after-warmup contracts hold");
  }
};

// ---------------------------------------------------------------------------
// tseig-kernel-fp-contract: fma()/FMA intrinsics and contraction or
// reassociation pragmas in the bitwise-contract TUs.

class KernelFpContractCheck : public ClangTidyCheck {
public:
  KernelFpContractCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    Finder->addMatcher(
        callExpr(callee(functionDecl(
                     matchesName("^::(std::)?fmaf?l?$|fmadd|fmsub|fnmadd|"
                                 "fnmsub|^vfma|^vfms"))))
            .bind("fma"),
        this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const std::string Path = mainFilePath(*Result.SourceManager);
    if (!startsWith(Path, "src/blas/kernels/") && Path != "src/blas/blas3.cpp")
      return;
    const auto *E = Result.Nodes.getNodeAs<Expr>("fma");
    diag(E->getBeginLoc(),
         "fused multiply-add in a kernel TU; the cross-tier bitwise contract "
         "requires every product to round (see blas/kernels/registry.hpp)");
  }
  // Pragma policing (FP_CONTRACT ON, clang fp contract(fast), omp simd
  // reduction, ivdep) needs a PPCallbacks hook; the token engine covers it
  // everywhere today, so the plugin keeps the call-expression half only.
};

// ---------------------------------------------------------------------------
// tseig-task-touch-discipline: a lambda that calls a tile kernel must also
// call rt::touch_read / rt::touch_write.

class TaskTouchDisciplineCheck : public ClangTidyCheck {
public:
  TaskTouchDisciplineCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    const auto TileKernel = callExpr(callee(functionDecl(hasAnyName(
        "geqrt", "ormqr_tile", "syrfb", "tsqrt", "tsmqr_left", "tsmqr_right",
        "tsmqr_corner", "tsmqr_left_hetra"))));
    const auto Touch = callExpr(
        callee(functionDecl(hasAnyName("touch_read", "touch_write"))));
    Finder->addMatcher(
        lambdaExpr(hasDescendant(TileKernel.bind("kernel")),
                   unless(hasDescendant(Touch)))
            .bind("lambda"),
        this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const std::string Path = mainFilePath(*Result.SourceManager);
    if (!startsWith(Path, "src/") ||
        startsWith(Path, "src/twostage/tile_kernels.") ||
        startsWith(Path, "src/twostage/sbtrd_rot."))
      return;
    const auto *L = Result.Nodes.getNodeAs<LambdaExpr>("lambda");
    diag(L->getBeginLoc(),
         "task-body lambda calls a tile kernel but never reports its "
         "footprint via rt::touch_read/touch_write; the dynamic hazard "
         "checker cannot audit what tasks do not report");
  }
};

// ---------------------------------------------------------------------------
// tseig-no-wallclock-in-kernels: steady clock only outside src/obs/.

class NoWallclockCheck : public ClangTidyCheck {
public:
  NoWallclockCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    Finder->addMatcher(
        declRefExpr(to(namedDecl(hasAnyName(
                        "::std::chrono::system_clock",
                        "::std::chrono::high_resolution_clock"))))
            .bind("clock"),
        this);
    Finder->addMatcher(callExpr(callee(functionDecl(hasAnyName(
                                    "::gettimeofday", "::time", "::clock",
                                    "::ftime", "::timespec_get"))))
                           .bind("clock"),
                       this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const std::string Path = mainFilePath(*Result.SourceManager);
    if (!startsWith(Path, "src/") || startsWith(Path, "src/obs/"))
      return;
    const auto *E = Result.Nodes.getNodeAs<Expr>("clock");
    diag(E->getBeginLoc(),
         "wall-clock source outside src/obs/; timestamps must come from "
         "obs::now_seconds() (one steady-clock epoch) or traces stop "
         "lining up");
  }
};

// ---------------------------------------------------------------------------

class TseigTidyModule : public clang::tidy::ClangTidyModule {
public:
  void
  addCheckFactories(clang::tidy::ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<NoRawThreadCheck>("tseig-no-raw-thread");
    Factories.registerCheck<KernelFpContractCheck>(
        "tseig-kernel-fp-contract");
    Factories.registerCheck<TaskTouchDisciplineCheck>(
        "tseig-task-touch-discipline");
    Factories.registerCheck<NoWallclockCheck>(
        "tseig-no-wallclock-in-kernels");
  }
};

static clang::tidy::ClangTidyModuleRegistry::Add<TseigTidyModule>
    X("tseig-module", "Adds the tseig project-specific checks.");

} // namespace tseig_tidy

// Anchors the registry entry so -load keeps the module linked in.
volatile int TseigTidyModuleAnchorSource = 0;
