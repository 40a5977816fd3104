#include "runtime/validate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

namespace tseig::rt {

// ---- Region keys and extents ----------------------------------------------

RegionCoords region_coords(std::uint64_t key) {
  RegionCoords c;
  c.tag = static_cast<std::uint32_t>(key >> (2 * kRegionCoordBits));
  c.i = static_cast<std::uint32_t>((key >> kRegionCoordBits) &
                                   ((1u << kRegionCoordBits) - 1));
  c.j = static_cast<std::uint32_t>(key & ((1u << kRegionCoordBits) - 1));
  return c;
}

std::string region_name(std::uint64_t key) {
  const RegionCoords c = region_coords(key);
  std::ostringstream os;
  os << "region(tag=" << c.tag << ", i=" << c.i << ", j=" << c.j << ")";
  return os.str();
}

void RegionExtent::add(const void* base, std::size_t bytes) {
  if (bytes == 0) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  parts.push_back({lo, lo + bytes});
}

void RegionExtent::normalize() {
  std::sort(parts.begin(), parts.end(),
            [](const ByteInterval& a, const ByteInterval& b) {
              return a.lo < b.lo;
            });
  std::vector<ByteInterval> merged;
  for (const ByteInterval& p : parts) {
    if (p.lo >= p.hi) continue;
    if (!merged.empty() && p.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, p.hi);
    } else {
      merged.push_back(p);
    }
  }
  parts = std::move(merged);
}

bool RegionExtent::overlaps(const RegionExtent& other) const {
  // Both part lists are sorted and disjoint (normalize()); one merge pass.
  size_t a = 0, b = 0;
  while (a < parts.size() && b < other.parts.size()) {
    const ByteInterval& pa = parts[a];
    const ByteInterval& pb = other.parts[b];
    if (pa.lo < pb.hi && pb.lo < pa.hi) return true;
    if (pa.hi <= pb.hi) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

void RegionMap::add_resolver(std::uint32_t tag, Resolver fn) {
  resolvers_[tag] = std::move(fn);
}

std::optional<RegionExtent> RegionMap::resolve(std::uint64_t key) const {
  const RegionCoords c = region_coords(key);
  const auto it = resolvers_.find(c.tag);
  if (it == resolvers_.end()) return std::nullopt;
  RegionExtent e = it->second(c.i, c.j);
  e.normalize();
  return e;
}

// ---- Static audit ----------------------------------------------------------

namespace {

const char* mode_name(access m) { return m == access::write ? "wr" : "rd"; }

}  // namespace

std::string RaceFinding::describe() const {
  std::ostringstream os;
  os << "potential race: task " << task_a << " '" << label_a << "' "
     << region_name(region_a) << " overlaps task " << task_b << " '"
     << label_b << "' " << region_name(region_b)
     << " with at least one write and no dependency path between them";
  return os.str();
}

std::vector<idx> GraphValidator::find_cycle(const TaskGraph& g) {
  const idx n = static_cast<idx>(g.tasks_.size());
  // Kahn: peel zero-indegree tasks; whatever survives lies on a cycle.
  std::vector<idx> indeg(static_cast<size_t>(n), 0);
  for (const auto& t : g.tasks_)
    for (idx s : t.successors) ++indeg[static_cast<size_t>(s)];
  std::vector<idx> stack;
  for (idx v = 0; v < n; ++v)
    if (indeg[static_cast<size_t>(v)] == 0) stack.push_back(v);
  idx removed = 0;
  while (!stack.empty()) {
    const idx v = stack.back();
    stack.pop_back();
    ++removed;
    for (idx s : g.tasks_[static_cast<size_t>(v)].successors)
      if (--indeg[static_cast<size_t>(s)] == 0) stack.push_back(s);
  }
  std::vector<idx> cyc;
  if (removed == n) return cyc;
  for (idx v = 0; v < n; ++v)
    if (indeg[static_cast<size_t>(v)] > 0) cyc.push_back(v);
  return cyc;
}

std::vector<RaceFinding> GraphValidator::audit(const TaskGraph& g,
                                               const RegionMap& map) {
  constexpr size_t kMaxFindings = 64;
  std::vector<RaceFinding> findings;
  const idx n = static_cast<idx>(g.tasks_.size());
  if (n == 0 || map.empty()) return findings;

  // Keys some task writes: reads of those regions are sequenced by the
  // hazard edges on the key, and in the DTL idiom (e.g. the chase lattice's
  // rd on the predecessor task's region) a read declaration names the
  // *producer's* whole footprint, not the bytes actually read.  Including
  // such extents would flag ordered producer/consumer byte sharing against
  // unordered third parties.  Reads of never-written keys (true input
  // regions) keep their extents.
  std::unordered_set<std::uint64_t> written;
  for (const auto& t : g.tasks_)
    for (const Access& a : t.accesses)
      if (a.mode == access::write) written.insert(a.region);

  // Resolved footprints of every declared access.
  struct Resolved {
    std::uint64_t key;
    access mode;
    RegionExtent extent;
  };
  std::vector<std::vector<Resolved>> acc(static_cast<size_t>(n));
  for (idx v = 0; v < n; ++v) {
    for (const Access& a : g.tasks_[static_cast<size_t>(v)].accesses) {
      if (a.mode == access::read && written.count(a.region) != 0) continue;
      auto e = map.resolve(a.region);
      if (!e) continue;  // unregistered tag: key-level hazards only
      acc[static_cast<size_t>(v)].push_back(
          {a.region, a.mode, std::move(*e)});
    }
  }

  // Descendant bitsets in reverse topological order: reach[v] = every task
  // a path from v leads to.  Submission order is not necessarily
  // topological once manual edges exist, so order via Kahn.
  std::vector<idx> topo;
  topo.reserve(static_cast<size_t>(n));
  {
    std::vector<idx> indeg(static_cast<size_t>(n), 0);
    for (const auto& t : g.tasks_)
      for (idx s : t.successors) ++indeg[static_cast<size_t>(s)];
    std::vector<idx> stack;
    for (idx v = 0; v < n; ++v)
      if (indeg[static_cast<size_t>(v)] == 0) stack.push_back(v);
    while (!stack.empty()) {
      const idx v = stack.back();
      stack.pop_back();
      topo.push_back(v);
      for (idx s : g.tasks_[static_cast<size_t>(v)].successors)
        if (--indeg[static_cast<size_t>(s)] == 0) stack.push_back(s);
    }
    require(static_cast<idx>(topo.size()) == n,
            "GraphValidator::audit: graph has a cycle; run find_cycle first");
  }
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> reach(static_cast<size_t>(n) * words, 0);
  auto row = [&](idx v) { return reach.data() + static_cast<size_t>(v) * words; };
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const idx v = *it;
    std::uint64_t* rv = row(v);
    for (idx s : g.tasks_[static_cast<size_t>(v)].successors) {
      rv[static_cast<size_t>(s) / 64] |= std::uint64_t{1} << (s % 64);
      const std::uint64_t* rs = row(s);
      for (size_t w = 0; w < words; ++w) rv[w] |= rs[w];
    }
  }
  auto ordered = [&](idx a, idx b) {
    return ((row(a)[static_cast<size_t>(b) / 64] >> (b % 64)) & 1) != 0 ||
           ((row(b)[static_cast<size_t>(a) / 64] >> (a % 64)) & 1) != 0;
  };

  for (idx a = 0; a < n && findings.size() < kMaxFindings; ++a) {
    if (acc[static_cast<size_t>(a)].empty()) continue;
    for (idx b = a + 1; b < n && findings.size() < kMaxFindings; ++b) {
      if (acc[static_cast<size_t>(b)].empty()) continue;
      if (ordered(a, b)) continue;
      for (const Resolved& ra : acc[static_cast<size_t>(a)]) {
        bool found = false;
        for (const Resolved& rb : acc[static_cast<size_t>(b)]) {
          if (ra.mode == access::read && rb.mode == access::read) continue;
          if (!ra.extent.overlaps(rb.extent)) continue;
          findings.push_back({a, b, g.tasks_[static_cast<size_t>(a)].label,
                              g.tasks_[static_cast<size_t>(b)].label, ra.key,
                              rb.key});
          found = true;
          break;  // one finding per task pair
        }
        if (found) break;
      }
    }
  }
  return findings;
}

void GraphValidator::check(const TaskGraph& g) {
  const std::vector<idx> cyc = find_cycle(g);
  if (!cyc.empty()) {
    std::ostringstream os;
    os << "GraphValidator: dependency cycle among " << cyc.size()
       << " task(s):";
    const size_t show = std::min<size_t>(cyc.size(), 8);
    for (size_t k = 0; k < show; ++k)
      os << (k ? " ->" : "") << " task " << cyc[k] << " '"
         << g.tasks_[static_cast<size_t>(cyc[k])].label << "'";
    if (cyc.size() > show) os << " -> ...";
    throw validation_error(os.str());
  }
  if (g.region_map_ != nullptr && !g.region_map_->empty()) {
    const std::vector<RaceFinding> findings = audit(g, *g.region_map_);
    if (!findings.empty()) {
      std::ostringstream os;
      os << "GraphValidator: static audit found " << findings.size()
         << " potential race(s):";
      for (const RaceFinding& f : findings) os << "\n  " << f.describe();
      throw validation_error(os.str());
    }
  }
}

// ---- Dynamic declared-access checker ---------------------------------------

namespace detail {

thread_local const ActiveTask* tl_active_task = nullptr;

void touch_checked(std::uint64_t region, bool is_write) {
  const ActiveTask* at = tl_active_task;
  const Access* declared = nullptr;
  const RegionCoords rc = region_coords(region);
  bool tag_declared = false;
  for (const Access& a : *at->accesses) {
    if (region_coords(a.region).tag == rc.tag) tag_declared = true;
    if (a.region != region) continue;
    if (!is_write || a.mode == access::write) return;  // properly declared
    declared = &a;
    break;
  }
  // A tag foreign to the whole task marks a nested algorithm running
  // serially inside this task (e.g. a batch task solving a whole problem):
  // its regions belong to a different -- never materialized -- graph, not
  // to this task's declarations.
  if (declared == nullptr && !tag_declared) return;
  // Undeclared (or under-declared) access: abort with the task, the region,
  // and the nearest declared region of the same tag (by coordinate
  // distance) to point at likely off-by-one declarations.
  const Access* nearest = nullptr;
  std::uint64_t best = ~std::uint64_t{0};
  for (const Access& a : *at->accesses) {
    const RegionCoords ac = region_coords(a.region);
    const std::uint64_t d =
        (ac.tag == rc.tag ? 0 : (std::uint64_t{1} << 60)) +
        (ac.i > rc.i ? ac.i - rc.i : rc.i - ac.i) +
        (ac.j > rc.j ? ac.j - rc.j : rc.j - ac.j);
    if (d < best) {
      best = d;
      nearest = &a;
    }
  }
  std::ostringstream os;
  os << "GraphValidator: task " << at->task_id << " '" << at->label << "' "
     << (is_write ? "wrote" : "read") << " " << region_name(region) << " ";
  if (declared != nullptr) {
    os << "declared read-only (missing wr() declaration)";
  } else {
    os << "outside its declared accesses";
  }
  if (nearest != nullptr && declared == nullptr) {
    os << "; nearest declared: " << mode_name(nearest->mode) << " "
       << region_name(nearest->region);
  } else if (at->accesses->empty()) {
    os << "; task declares no regions";
  }
  throw validation_error(os.str());
}

}  // namespace detail

// ---- Process-wide configuration --------------------------------------------

namespace {

struct ConfigState {
  std::atomic<bool> validate{false};
  std::atomic<bool> fuzz{false};
  std::atomic<std::uint64_t> fuzz_seed{0};
  std::atomic<bool> serial_elision{false};
};

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

ConfigState& config_state() {
  static ConfigState state;
  static const bool initialized = [] {
    state.validate = env_flag("TSEIG_VALIDATE");
    if (const char* seed = std::getenv("TSEIG_FUZZ_SEED")) {
      state.fuzz = true;
      state.fuzz_seed = std::strtoull(seed, nullptr, 10);
    }
    state.serial_elision = env_flag("TSEIG_SERIAL_ELISION");
    return true;
  }();
  (void)initialized;
  return state;
}

}  // namespace

ValidationConfig validation_config() {
  ConfigState& s = config_state();
  ValidationConfig c;
  c.validate = s.validate.load(std::memory_order_relaxed);
  c.fuzz = s.fuzz.load(std::memory_order_relaxed);
  c.fuzz_seed = s.fuzz_seed.load(std::memory_order_relaxed);
  c.serial_elision = s.serial_elision.load(std::memory_order_relaxed);
  return c;
}

void set_validation(bool on) {
  config_state().validate.store(on, std::memory_order_relaxed);
}

void set_fuzz_seed(std::uint64_t seed) {
  ConfigState& s = config_state();
  s.fuzz_seed.store(seed, std::memory_order_relaxed);
  s.fuzz.store(true, std::memory_order_relaxed);
}

void disable_fuzzing() {
  config_state().fuzz.store(false, std::memory_order_relaxed);
}

void set_serial_elision(bool on) {
  config_state().serial_elision.store(on, std::memory_order_relaxed);
}

}  // namespace tseig::rt
