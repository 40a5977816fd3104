// Task-graph runtime with automatic data-dependence tracking.
//
// This is tseig's equivalent of the PLASMA dynamic runtime the paper builds
// on (QUARK): algorithms submit tasks together with the set of logical data
// regions each task reads and writes; the runtime derives the DAG from the
// standard hazards (read-after-write, write-after-read, write-after-write)
// and executes it on a worker pool.
//
// Scheduling is dynamic, as in the paper's Section 6: any idle worker picks
// the highest-priority ready task (priorities let the caller keep the
// critical path moving).  Loops whose items have no dependence edges do not
// use a graph; they run through run_self_scheduled (common/parallel.hpp).
//
// Regions are opaque 64-bit keys.  This is the paper's "data translation
// layer" (DTL): bulge chasing tasks touch *overlapping* windows of the band
// array, so pointer ranges cannot express their dependences; instead the
// algorithm maps each window onto logical keys (sweep/block coordinates) and
// the runtime sequences tasks by key.  Helper `region_key` builds keys from
// coordinate pairs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace tseig::rt {

class RegionMap;      // validate.hpp: region_key -> byte-footprint registry
class GraphValidator; // validate.hpp: static/dynamic hazard validation

/// Access mode of a task on a region.
enum class access : std::uint8_t { read, write };

/// One region access declaration.
struct Access {
  std::uint64_t region = 0;
  access mode = access::read;
};

/// Field widths of region_key's packing: tag | i | j fill the 64-bit key
/// with disjoint masked fields (8 + 28 + 28 bits).
constexpr std::uint32_t kRegionTagBits = 8;
constexpr std::uint32_t kRegionCoordBits = 28;

/// Compile-time predicate: true when (tag, i, j) fits region_key's packed
/// fields.  Use directly in static_assert at constexpr call sites --
/// `static_assert(region_key_in_range(t, i, j))` fails with the predicate
/// name instead of an opaque "expression did not evaluate to a constant".
constexpr bool region_key_in_range(std::uint32_t tag, std::uint32_t i,
                                   std::uint32_t j) {
  return tag < (1u << kRegionTagBits) && i < (1u << kRegionCoordBits) &&
         j < (1u << kRegionCoordBits);
}

namespace detail {
/// Runtime failure path of region_key: throws invalid_argument with the
/// offending tag/i/j values spelled out.  Deliberately *not* constexpr:
/// reaching it during constant evaluation is a compile error whose message
/// names this function, which is as close to a static_assert as a constexpr
/// function can get without losing the formatted runtime diagnostic.
[[noreturn]] void region_key_out_of_range(std::uint32_t tag, std::uint32_t i,
                                          std::uint32_t j);
}  // namespace detail

/// Builds a region key from a tag and two coordinates (e.g. tile indices or
/// sweep/block indices).  Tags keep different arrays' keys disjoint.  The
/// fields are disjoint bit ranges, so distinct in-range triples always map
/// to distinct keys; out-of-range coordinates throw (the previous XOR
/// packing silently merged regions once i or j reached 2^24, dropping
/// dependence edges).
constexpr std::uint64_t region_key(std::uint32_t tag, std::uint32_t i,
                                   std::uint32_t j) {
  if (!region_key_in_range(tag, i, j))
    detail::region_key_out_of_range(tag, i, j);
  return (static_cast<std::uint64_t>(tag) << (2 * kRegionCoordBits)) |
         (static_cast<std::uint64_t>(i) << kRegionCoordBits) |
         static_cast<std::uint64_t>(j);
}

/// Convenience factories for access declarations.
inline Access rd(std::uint64_t region) { return {region, access::read}; }
inline Access wr(std::uint64_t region) { return {region, access::write}; }

/// A dependency-tracked task graph.  Usage:
///
///   TaskGraph g;
///   g.submit([..]{ kernel(..); }, {rd(keyA), wr(keyB)}, {.priority = 2});
///   ...
///   g.run(num_workers);
///
/// submit() derives dependences from the access declarations in submission
/// order, i.e. the graph executes *as if* the tasks ran serially in the
/// order submitted (sequential consistency per region), with everything
/// independent free to run concurrently.
class TaskGraph {
public:
  /// Per-task scheduling options.
  struct Options {
    /// Larger values run earlier among ready tasks.
    int priority = 0;
    /// Label recorded in telemetry spans.  Interned: the pointer is
    /// stored verbatim (no copy), so it must be a static string.
    const char* label = "";
  };

  /// Validation, fuzzing and serial elision default to the process-wide
  /// rt::validation_config() (TSEIG_VALIDATE / TSEIG_FUZZ_SEED /
  /// TSEIG_SERIAL_ELISION); the enable_* methods override per graph.
  TaskGraph();
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Submits a task with its region access list.  Returns the task id.
  idx submit(std::function<void()> fn, const std::vector<Access>& accesses,
             const Options& opts);
  idx submit(std::function<void()> fn, const std::vector<Access>& accesses) {
    return submit(std::move(fn), accesses, Options());
  }

  /// Adds a manual dependency edge `before -> after` on top of the derived
  /// hazard edges (for couplings no region expresses).  Unlike hazard edges
  /// this can point backwards in submission order and therefore create a
  /// cycle; run() detects cycles and reports the tasks on one.
  void add_dependency(idx before, idx after);

  /// Replaces every task's priority with its height in the dependency DAG:
  /// the number of tasks on the longest chain from the task to any sink
  /// (unit task weights).  This is the same reverse-topological DP the obs
  /// critical-path analyzer runs over recorded graphs, applied to the live
  /// graph before execution, so ready-queue order favors the tasks with the
  /// most serial work behind them.  Call after all submit()/add_dependency()
  /// calls and before run(); static per-task priorities are overwritten.
  void apply_critical_path_priorities();

  /// Bounded-starvation aging for the shared ready queue: when the oldest
  /// ready task has been passed over by `window` consecutive pops, it runs
  /// next regardless of priority.  Together with the FIFO tie-break among
  /// equal priorities this makes every schedule-affecting decision a
  /// deterministic function of (priorities, submission order, timing).
  /// window <= 0 disables aging; the default is kDefaultAgingWindow.
  void set_priority_aging(idx window) { aging_window_ = window; }
  idx priority_aging() const { return aging_window_; }
  static constexpr idx kDefaultAgingWindow = 1024;

  /// Scheduling metadata stamped into the obs::GraphRun record of the next
  /// run(): the producer's look-ahead depth (-1 = not applicable) and the
  /// name of the priority scheme in effect ("static", "critical-path", ...).
  /// Purely observational -- never affects execution.
  void set_schedule_info(int lookahead, const char* priority_scheme) {
    run_lookahead_ = lookahead;
    run_priority_scheme_ = priority_scheme != nullptr ? priority_scheme : "";
  }

  /// Executes the whole graph on `num_workers` logical workers (>=1); 0 or
  /// negative selects default_num_threads().  The calling thread acts as
  /// worker 0, the rest are borrowed from the persistent rt::ThreadPool (no
  /// OS threads are spawned on warm calls).  When run() is invoked from
  /// inside a pool worker (a nested graph), it executes on the calling
  /// thread alone instead of oversubscribing.  Rethrows the first task
  /// exception after all workers have drained.  The graph is left empty and
  /// reusable.
  void run(int num_workers);

  /// Number of tasks currently submitted.
  idx size() const { return static_cast<idx>(tasks_.size()); }

  /// Total dependency edges derived so far (for tests/diagnostics).
  idx edges() const { return edge_count_; }

  /// Enables the validation mode for this graph: submit() records each
  /// task's declared accesses, run() performs the GraphValidator cycle check
  /// and (when a region map is attached) the static potential-race audit,
  /// and kernels' touch_read/touch_write reports are checked against the
  /// running task's declarations.  Must be set before the first submit() to
  /// cover every task.  Defaults to rt::validation_config().validate.
  void enable_validation(bool on) { validate_ = on; }
  bool validation_enabled() const { return validate_; }

  /// Attaches the region-key -> byte-footprint registry the static audit
  /// and the dynamic checker's diagnostics resolve regions through.  The map
  /// must outlive run().  nullptr detaches.
  void set_region_map(const RegionMap* map) { region_map_ = map; }
  const RegionMap* region_map() const { return region_map_; }

  /// Enables the deterministic schedule fuzzer for the next run(): ready
  /// tasks are popped in a seeded pseudo-random order instead of priority
  /// order and a small seeded per-task delay is injected before each body,
  /// widening the interleavings a sanitizer run observes.  Any fuzzed
  /// schedule is still a valid topological execution of the hazard DAG, so
  /// results must match the serial elision bitwise.
  void enable_fuzzing(std::uint64_t seed) {
    fuzz_ = true;
    fuzz_seed_ = seed;
  }
  void disable_fuzzing() { fuzz_ = false; }

  /// Forces the next run() to execute tasks on the calling thread in
  /// submission order (the serial elision), ignoring priorities and
  /// num_workers.  Submission order satisfies every hazard edge by
  /// construction, so this is the oracle fuzzed parallel runs are compared
  /// against.
  void enable_serial_elision(bool on) { serial_elision_ = on; }

private:
  friend class GraphValidator;

  struct Task {
    std::function<void()> fn;
    std::vector<idx> successors;
    idx unmet_dependencies = 0;
    int priority = 0;
    /// Interned label: a borrowed static string (no per-task allocation).
    const char* label = "";
    /// Declared accesses, recorded only when validation is enabled.
    std::vector<Access> accesses;
  };

  /// Hazard-tracking state per region.
  struct RegionState {
    idx last_writer = -1;
    std::vector<idx> readers_since_write;
  };

  /// Scheduling statistics gathered during one run() when telemetry is on.
  struct WaitStats {
    double total_seconds = 0.0;  ///< sum of ready -> start waits
    double max_seconds = 0.0;
    idx max_ready_depth = 0;     ///< peak ready-queue depth observed
  };

  void add_edge(idx from, idx to);
  void run_elided();
  /// Records this run's DAG + measured durations into tseig::obs (must be
  /// called before tasks_ is cleared).
  void record_run(int num_workers, double run_start,
                  const std::vector<double>& durations,
                  const WaitStats& waits);

  std::vector<Task> tasks_;
  // Region key -> hazard state.
  std::unordered_map<std::uint64_t, RegionState> regions_;
  idx edge_count_ = 0;
  idx aging_window_ = kDefaultAgingWindow;
  int run_lookahead_ = -1;
  const char* run_priority_scheme_ = "";
  bool validate_ = false;
  bool fuzz_ = false;
  bool serial_elision_ = false;
  std::uint64_t fuzz_seed_ = 0;
  const RegionMap* region_map_ = nullptr;
};

}  // namespace tseig::rt
