// tseig-tidy command-line driver (see checks.hpp for the check catalogue).
//
//   tseig-tidy [--src-root DIR] [--list-checks] FILE...
//
// FILEs are read relative to --src-root (default ".") and classified by that
// relative path, so `tseig-tidy --src-root fixtures src/blas/kernels/bad.cpp`
// exercises the kernel-TU checks on a fixture tree.  Exit status: 0 when the
// tree is clean, 1 when any check fired, 2 on usage/IO errors.
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: tseig-tidy [--src-root DIR] [--list-checks] FILE...\n"
        "  FILEs are repo-relative paths (resolved against --src-root);\n"
        "  the path decides which checks apply.  NOLINT(<check>) and\n"
        "  NOLINTNEXTLINE comments suppress findings, as in clang-tidy.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--list-checks") {
      for (const std::string& name : tseig::tidy::check_names())
        std::cout << name << "\n";
      return 0;
    }
    if (arg == "--src-root") {
      if (i + 1 >= argc) {
        std::cerr << "tseig-tidy: --src-root needs a directory\n";
        return usage(std::cerr, 2);
      }
      root = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tseig-tidy: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
    files.push_back(arg);
  }
  if (files.empty()) {
    std::cerr << "tseig-tidy: no input files\n";
    return usage(std::cerr, 2);
  }

  size_t total = 0;
  for (const std::string& file : files) {
    try {
      for (const tseig::tidy::Finding& f :
           tseig::tidy::run_checks_on_file(root, file)) {
        std::cout << f.format() << "\n";
        ++total;
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  if (total > 0) {
    std::cerr << "tseig-tidy: " << total << " finding"
              << (total == 1 ? "" : "s") << " across " << files.size()
              << " file" << (files.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  return 0;
}
