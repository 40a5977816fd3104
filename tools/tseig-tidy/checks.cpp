#include "checks.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

// Token-level implementation of the tseig-* checks.  Deliberately not a C++
// parser: every invariant below is expressible over the identifier/punctuation
// stream plus the preprocessor lines, which keeps the tool dependency-free
// (buildable with the same GCC that builds the library).  Comments, string
// and char literals are stripped before matching, so "std::thread" in a
// docstring never fires.

namespace tseig::tidy {
namespace {

// ---------------------------------------------------------------------------
// Lexer.

enum class TokKind { identifier, punct, string_lit, number };

struct Token {
  TokKind kind = TokKind::punct;
  std::string text;
  int line = 1;
  int col = 1;
};

/// One preprocessor directive (continuation lines folded in).
struct Directive {
  std::string text;  ///< full directive, '#' included, whitespace collapsed
  int line = 1;
};

/// NOLINT suppression state: line -> suppressed check names (empty set =
/// every check), fed by NOLINT/NOLINTNEXTLINE comments.
using NolintMap = std::map<int, std::set<std::string>>;

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  NolintMap nolint;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Records a NOLINT / NOLINTNEXTLINE marker found in a comment.
void scan_comment_for_nolint(const std::string& comment, int line,
                             NolintMap& out) {
  const auto record = [&](size_t at, int target_line) {
    std::set<std::string> checks;
    size_t p = at;
    while (p < comment.size() && comment[p] != '(' && comment[p] != '\n' &&
           !ident_char(comment[p]))
      ++p;
    if (p < comment.size() && comment[p] == '(') {
      size_t close = comment.find(')', p);
      if (close != std::string::npos) {
        std::string inner = comment.substr(p + 1, close - p - 1);
        std::string name;
        std::istringstream is(inner);
        while (std::getline(is, name, ',')) {
          name.erase(0, name.find_first_not_of(" \t"));
          name.erase(name.find_last_not_of(" \t") + 1);
          if (!name.empty()) checks.insert(name);
        }
      }
    }
    auto& slot = out[target_line];
    if (checks.empty())
      slot.clear();  // blanket suppression wins
    else if (out.find(target_line) == out.end() || !slot.empty())
      slot.insert(checks.begin(), checks.end());
  };
  size_t pos = comment.find("NOLINTNEXTLINE");
  if (pos != std::string::npos) {
    record(pos + 14, line + 1);
    return;
  }
  pos = comment.find("NOLINT");
  if (pos != std::string::npos) record(pos + 6, line);
}

/// Tokenizes C++ source: comments and literals stripped (comments feed the
/// NOLINT map, literals become opaque string_lit tokens), preprocessor lines
/// collected separately, "::" fused into one token.
LexedFile lex(const std::string& src) {
  LexedFile out;
  const size_t n = src.size();
  size_t i = 0;
  int line = 1, col = 1;
  bool at_line_start = true;

  const auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
        at_line_start = true;
      } else {
        ++col;
        if (!std::isspace(static_cast<unsigned char>(src[i])))
          at_line_start = false;
      }
    }
  };

  while (i < n) {
    const char c = src[i];
    // Preprocessor directive: '#' first non-whitespace on the line.
    if (c == '#' && at_line_start) {
      Directive d;
      d.line = line;
      size_t j = i;
      while (j < n) {
        if (src[j] == '\n') {
          if (j > i && src[j - 1] == '\\') {
            ++j;
            continue;  // folded continuation
          }
          break;
        }
        // Comments may interrupt a directive; keep it simple and let the
        // comment text through -- the directive regexes are word-anchored.
        ++j;
      }
      d.text = src.substr(i, j - i);
      std::replace(d.text.begin(), d.text.end(), '\\', ' ');
      std::replace(d.text.begin(), d.text.end(), '\n', ' ');
      // A trailing // comment inside the directive could hide a NOLINT.
      scan_comment_for_nolint(d.text, line, out.nolint);
      out.directives.push_back(std::move(d));
      advance(j - i);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t j = src.find('\n', i);
      if (j == std::string::npos) j = n;
      scan_comment_for_nolint(src.substr(i, j - i), line, out.nolint);
      advance(j - i);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t j = src.find("*/", i + 2);
      const size_t end = j == std::string::npos ? n : j + 2;
      scan_comment_for_nolint(src.substr(i, end - i), line, out.nolint);
      advance(end - i);
      continue;
    }
    // Raw string literal R"delim(...)delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
        (out.tokens.empty() || out.tokens.back().text != "::") &&
        (i == 0 || !ident_char(src[i - 1]))) {
      size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      const std::string closer = ")" + delim + "\"";
      size_t j = src.find(closer, p);
      const size_t end = j == std::string::npos ? n : j + closer.size();
      out.tokens.push_back({TokKind::string_lit, src.substr(i, end - i),
                            line, col});
      advance(end - i);
      continue;
    }
    if (c == '"' || c == '\'') {
      const int tl = line, tc = col;
      size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\') ++j;
        ++j;
      }
      const size_t end = j < n ? j + 1 : n;
      out.tokens.push_back(
          {TokKind::string_lit, src.substr(i, end - i), tl, tc});
      advance(end - i);
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back(
          {TokKind::identifier, src.substr(i, j - i), line, col});
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.')) ++j;
      out.tokens.push_back({TokKind::number, src.substr(i, j - i), line, col});
      advance(j - i);
      continue;
    }
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::punct, "::", line, col});
      advance(2);
      continue;
    }
    out.tokens.push_back({TokKind::punct, std::string(1, c), line, col});
    advance(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path classification.

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Normalizes to a repo-relative '/'-path anchored at "src/..." when the
/// path contains a src/ component (fixture trees keep their own prefix).
std::string normalize(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  while (starts_with(p, "./")) p = p.substr(2);
  const size_t at = p.rfind("/src/");
  if (at != std::string::npos) return p.substr(at + 1);
  return p;
}

bool in_src(const std::string& p) { return starts_with(p, "src/"); }
bool in_runtime(const std::string& p) {
  return starts_with(p, "src/runtime/");
}
bool in_obs(const std::string& p) { return starts_with(p, "src/obs/"); }
/// The microkernel tiers: their k-steps are explicit fused multiply-adds.
bool is_kernel_tu(const std::string& p) {
  return starts_with(p, "src/blas/kernels/");
}

// ---------------------------------------------------------------------------
// Reporting helpers.

struct Ctx {
  const FileInput* in = nullptr;
  const LexedFile* lexed = nullptr;
  std::vector<Finding>* out = nullptr;

  void report(const std::string& check, int line, int col,
              const std::string& message) const {
    const auto it = lexed->nolint.find(line);
    if (it != lexed->nolint.end() &&
        (it->second.empty() || it->second.count(check) > 0))
      return;
    out->push_back({in->path, line, col, check, message});
  }
};

// ---------------------------------------------------------------------------
// tseig-no-raw-thread.

const char kNoRawThread[] = "tseig-no-raw-thread";

void check_no_raw_thread(const Ctx& ctx, const std::string& path) {
  if (!in_src(path) || in_runtime(path)) return;
  const std::vector<Token>& t = ctx.lexed->tokens;
  for (size_t k = 0; k + 2 < t.size(); ++k) {
    if (t[k].text != "std" || t[k + 1].text != "::") continue;
    const std::string& name = t[k + 2].text;
    if (name != "thread" && name != "jthread" && name != "async") continue;
    // std::thread::hardware_concurrency() is a pure query, not a spawn.
    if (k + 3 < t.size() && t[k + 3].text == "::") continue;
    ctx.report(kNoRawThread, t[k].line, t[k].col,
               "raw std::" + name +
                   " outside src/runtime/; use parallel_for / "
                   "run_self_scheduled on rt::ThreadPool so the pool's "
                   "nesting and zero-thread-after-warmup contracts hold");
  }
}

// ---------------------------------------------------------------------------
// tseig-kernel-fp-contract.

const char kKernelFpContract[] = "tseig-kernel-fp-contract";

bool is_fma_identifier(const std::string& s) {
  if (s == "fma" || s == "fmaf" || s == "fmal") return true;
  // Intrinsics: _mm*_fmadd_pd, _mm512_fmsub_ps, vfmaq_f64, ...
  if (s.find("fmadd") != std::string::npos ||
      s.find("fmsub") != std::string::npos ||
      s.find("fnmadd") != std::string::npos ||
      s.find("fnmsub") != std::string::npos)
    return true;
  if (starts_with(s, "vfma") || starts_with(s, "vfms")) return true;
  return false;
}

bool directive_contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

void check_kernel_fp_contract(const Ctx& ctx, const std::string& path) {
  if (!in_src(path)) return;
  const bool may_fuse = is_kernel_tu(path);
  const std::vector<Token>& t = ctx.lexed->tokens;
  for (size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != TokKind::identifier) continue;
    const bool called = k + 1 < t.size() && t[k + 1].text == "(";
    // Kernel tiers fuse each k-step explicitly; that is their contract.
    if (!may_fuse && called && is_fma_identifier(t[k].text)) {
      ctx.report(kKernelFpContract, t[k].line, t[k].col,
                 "'" + t[k].text +
                     "' fuses the multiply-add rounding step; only the "
                     "kernel tiers (src/blas/kernels/) may fuse, every other "
                     "src/ file rounds each product (DESIGN.md §11, §18)");
    }
    // __attribute__((optimize("fast-math"))) and friends.
    if (t[k].text == "optimize" && called) {
      for (size_t j = k + 2; j < t.size() && j < k + 6; ++j) {
        if (t[j].kind == TokKind::string_lit &&
            (t[j].text.find("fast-math") != std::string::npos ||
             t[j].text.find("associative-math") != std::string::npos)) {
          ctx.report(kKernelFpContract, t[k].line, t[k].col,
                     "fast-math optimize attribute breaks the bitwise "
                     "cross-tier and lane-order contracts");
          break;
        }
      }
    }
  }
  for (const Directive& d : ctx.lexed->directives) {
    if (!directive_contains(d.text, "pragma")) continue;
    const bool fp_contract_on =
        (directive_contains(d.text, "FP_CONTRACT") &&
         !directive_contains(d.text, "OFF")) ||
        (directive_contains(d.text, "fp") &&
         directive_contains(d.text, "contract") &&
         (directive_contains(d.text, "fast") ||
          directive_contains(d.text, "on")));
    const bool fast_math =
        directive_contains(d.text, "fast-math") ||
        directive_contains(d.text, "float_control");
    const bool reassoc =
        (directive_contains(d.text, "omp") &&
         directive_contains(d.text, "reduction")) ||
        directive_contains(d.text, "ivdep") ||
        (directive_contains(d.text, "loop") &&
         directive_contains(d.text, "vectorize"));
    if (fp_contract_on || fast_math || reassoc)
      ctx.report(kKernelFpContract, d.line, 1,
                 "pragma invites FMA contraction or reassociation; only "
                 "the explicit k-ordered fused steps of the kernel tiers "
                 "may fuse, which is what keeps all tiers and lane sums "
                 "bitwise reproducible");
  }
}

// ---------------------------------------------------------------------------
// tseig-no-wallclock-in-kernels.

const char kNoWallclock[] = "tseig-no-wallclock-in-kernels";

void check_no_wallclock(const Ctx& ctx, const std::string& path) {
  if (!in_src(path) || in_obs(path)) return;
  const std::vector<Token>& t = ctx.lexed->tokens;
  for (size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != TokKind::identifier) continue;
    const std::string& s = t[k].text;
    std::string why;
    if (s == "system_clock")
      why = "std::chrono::system_clock jumps under NTP";
    else if (s == "high_resolution_clock")
      why = "high_resolution_clock may alias the wall clock";
    else if (s == "gettimeofday" || s == "ftime" || s == "timespec_get")
      why = "'" + s + "' reads the wall clock";
    else if ((s == "time" || s == "clock") && k + 1 < t.size() &&
             t[k + 1].text == "(" &&
             (k == 0 || (t[k - 1].text != "::" && t[k - 1].text != "." &&
                         t[k - 1].text != "->")))
      why = "libc '" + s + "()' reads the wall clock";
    else
      continue;
    ctx.report(kNoWallclock, t[k].line, t[k].col,
               why + "; timestamps outside src/obs/ must come from "
                     "obs::now_seconds() (one steady-clock epoch) or traces "
                     "stop lining up");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string Finding::format() const {
  std::ostringstream os;
  os << file << ":" << line << ":" << column << ": warning: " << message
     << " [" << check << "]";
  return os.str();
}

std::vector<std::string> check_names() {
  return {kNoRawThread, kKernelFpContract, kNoWallclock};
}

std::vector<Finding> run_checks(const FileInput& in) {
  const std::string path = normalize(in.path);
  const LexedFile lexed = lex(in.content);
  std::vector<Finding> findings;
  Ctx ctx{&in, &lexed, &findings};
  check_no_raw_thread(ctx, path);
  check_kernel_fp_contract(ctx, path);
  check_no_wallclock(ctx, path);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.column < b.column;
                   });
  return findings;
}

std::vector<Finding> run_checks_on_file(const std::string& root,
                                        const std::string& rel_path) {
  const std::string full =
      root.empty() || root == "." ? rel_path : root + "/" + rel_path;
  std::ifstream f(full, std::ios::binary);
  if (!f) throw std::runtime_error("tseig-tidy: cannot read " + full);
  std::ostringstream buf;
  buf << f.rdbuf();
  FileInput in;
  in.path = rel_path;
  in.content = buf.str();
  return run_checks(in);
}

}  // namespace tseig::tidy
