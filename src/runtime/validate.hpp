// Validation subsystem for the task-graph runtime: static and dynamic
// analysis of the declared-access (DTL) layer.
//
// The runtime derives every RAW/WAR/WAW edge from the rd()/wr() declarations
// a task is submitted with -- a single wrong or missing declaration silently
// drops an edge and produces a data race that ThreadSanitizer only catches
// if the bad interleaving actually occurs.  GraphValidator turns those
// heisenbugs into deterministic diagnostics through three facilities:
//
//  1. Region-map registry (RegionMap): algorithms register, per region tag,
//     a resolver mapping region_key coordinates onto the byte footprint the
//     region stands for (the tiles and reflector blocks of sy2sb, the one
//     algorithm that runs on a task graph).
//     The static audit then checks a submitted graph for *potential* races:
//     any pair of tasks whose resolved footprints overlap, with at least
//     one write, and with no DAG path between them, is reported with both
//     task labels and the offending regions.
//
//  2. Dynamic declared-access checker: with validation enabled
//     (TSEIG_VALIDATE=1 or TaskGraph::enable_validation) instrumented
//     kernels report the regions they actually touch through the
//     touch_read/touch_write API; a touch outside the running task's
//     declared accesses aborts the run with a diagnostic naming the task,
//     the region, and the nearest declared region.  The calls compile to a
//     single thread_local load when no validating graph is executing.
//
//  3. Schedule fuzzer + serial-elision oracle (implemented in
//     TaskGraph::run, configured here): a seeded mode randomizes ready-pop
//     order and injects per-task delays to widen interleaving coverage
//     under TSan, and the serial elision runs the same graph in submission
//     order so tests can compare results bitwise against fuzzed runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "runtime/task_graph.hpp"

namespace tseig::rt {

/// Error reported by the validation subsystem (cycle, potential race,
/// undeclared access).  Propagates out of TaskGraph::run like a task
/// exception: the run aborts, the graph is left cleared and reusable.
class validation_error : public std::runtime_error {
public:
  explicit validation_error(const std::string& what)
      : std::runtime_error(what) {}
};

/// Decoded region_key fields, for diagnostics.
struct RegionCoords {
  std::uint32_t tag = 0;
  std::uint32_t i = 0;
  std::uint32_t j = 0;
};
RegionCoords region_coords(std::uint64_t key);

/// Human-readable form of a region key: "region(tag=7, i=3, j=2)".
std::string region_name(std::uint64_t key);

/// Half-open absolute byte interval [lo, hi).
struct ByteInterval {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};

/// Byte footprint of one logical region: a set of intervals (strided blocks
/// of a column-major array are per-column intervals, not one bounding box,
/// so interleaved regions do not falsely overlap).
struct RegionExtent {
  std::vector<ByteInterval> parts;

  /// Appends the contiguous range [base, base + bytes).
  void add(const void* base, std::size_t bytes);
  /// Sorts and merges the parts; required before overlaps().
  void normalize();
  /// True when any part intersects any part of `other` (both normalized).
  bool overlaps(const RegionExtent& other) const;
};

/// Region-map registry: per region tag, a resolver from the key's (i, j)
/// coordinates to the byte footprint.  Attached to a TaskGraph via
/// set_region_map(); keys whose tag has no resolver are skipped by the
/// static audit (the dynamic checker still validates them by key).
class RegionMap {
public:
  using Resolver =
      std::function<RegionExtent(std::uint32_t i, std::uint32_t j)>;

  /// Registers the resolver for one tag (replacing any previous one).
  void add_resolver(std::uint32_t tag, Resolver fn);

  /// Resolves a key to its normalized footprint; nullopt when the tag has
  /// no resolver.
  std::optional<RegionExtent> resolve(std::uint64_t key) const;

  bool empty() const { return resolvers_.empty(); }

private:
  std::unordered_map<std::uint32_t, Resolver> resolvers_;
};

/// One static-audit finding: two tasks with overlapping byte footprints, at
/// least one write, and no dependency path between them.
struct RaceFinding {
  idx task_a = -1;
  idx task_b = -1;
  std::string label_a;
  std::string label_b;
  std::uint64_t region_a = 0;  // the overlapping declared regions
  std::uint64_t region_b = 0;

  /// "potential race: task 4 'geqrt' wr region(...) overlaps ...".
  std::string describe() const;
};

/// Static and pre-execution analyses of a submitted TaskGraph.  All methods
/// require validation to have been enabled on the graph before submission
/// (otherwise the per-task access lists are empty and there is nothing to
/// analyze).
class GraphValidator {
public:
  /// Kahn topological check.  Returns an empty vector when the graph is
  /// acyclic, otherwise the ids of tasks on (at least) one cycle.
  static std::vector<idx> find_cycle(const TaskGraph& g);

  /// Static potential-race audit against the attached region map: every
  /// unordered pair of tasks with overlapping resolved footprints and at
  /// least one write.  Requires an acyclic graph.  Findings are capped at
  /// 64 (a broken graph produces one finding per task pair).
  static std::vector<RaceFinding> audit(const TaskGraph& g,
                                        const RegionMap& map);

  /// The pre-execution check TaskGraph::run performs under validation:
  /// cycle check, then (when a region map is attached) the static audit.
  /// Throws validation_error with a full diagnostic on any finding.
  static void check(const TaskGraph& g);
};

// ---- Dynamic declared-access checker -------------------------------------

namespace detail {

/// Context of the task the calling thread is currently executing for a
/// validating graph; installed by TaskGraph::run around each task body.
struct ActiveTask {
  const std::vector<Access>* accesses = nullptr;
  const char* label = "";
  idx task_id = -1;
  const RegionMap* map = nullptr;
};

extern thread_local const ActiveTask* tl_active_task;

/// Slow path: verifies `region` against the active task's declarations and
/// throws validation_error on an undeclared region or a write to a
/// read-only declaration.
void touch_checked(std::uint64_t region, bool is_write);

}  // namespace detail

/// Instrumented kernels report the logical region a memory access belongs
/// to.  No-ops (one thread_local load) unless the calling thread is running
/// a task of a validating graph.
inline void touch_read(std::uint64_t region) {
  if (detail::tl_active_task != nullptr)
    detail::touch_checked(region, /*is_write=*/false);
}
inline void touch_write(std::uint64_t region) {
  if (detail::tl_active_task != nullptr)
    detail::touch_checked(region, /*is_write=*/true);
}

// ---- Process-wide validation configuration --------------------------------

/// Snapshot of the process-wide validation switches.  Seeded once from the
/// environment (TSEIG_VALIDATE=1, TSEIG_FUZZ_SEED=<n>,
/// TSEIG_SERIAL_ELISION=1); tests override programmatically.  TaskGraph
/// reads the snapshot at construction, so changes apply to graphs created
/// afterwards.
struct ValidationConfig {
  bool validate = false;
  bool fuzz = false;
  std::uint64_t fuzz_seed = 0;
  bool serial_elision = false;
};

/// Current configuration snapshot.
ValidationConfig validation_config();

/// Programmatic overrides (mirror the environment variables).
void set_validation(bool on);
void set_fuzz_seed(std::uint64_t seed);  // also enables fuzzing
void disable_fuzzing();
void set_serial_elision(bool on);

}  // namespace tseig::rt
