#include "runtime/task_graph.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>

#include "common/thread_annotations.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/validate.hpp"

namespace tseig::rt {
namespace {

/// Installs the dynamic-checker context for one task body (see
/// validate.hpp); no-op when the graph is not validating.
struct ActiveTaskGuard {
  bool installed;
  detail::ActiveTask at;
  ActiveTaskGuard(bool validate, const std::vector<Access>* accesses,
                  const char* label, idx id, const RegionMap* map)
      : installed(validate) {
    if (!installed) return;
    at.accesses = accesses;
    at.label = label != nullptr ? label : "";
    at.task_id = id;
    at.map = map;
    detail::tl_active_task = &at;
  }
  ~ActiveTaskGuard() {
    if (installed) detail::tl_active_task = nullptr;
  }
};

}  // namespace

namespace detail {

void region_key_out_of_range(std::uint32_t tag, std::uint32_t i,
                             std::uint32_t j) {
  std::ostringstream os;
  os << "region_key: field out of range: tag=" << tag << " (max "
     << ((1u << kRegionTagBits) - 1) << "), i=" << i << ", j=" << j
     << " (max " << ((1u << kRegionCoordBits) - 1) << ")";
  throw invalid_argument(os.str());
}

}  // namespace detail

TaskGraph::TaskGraph() {
  const ValidationConfig c = validation_config();
  validate_ = c.validate;
  fuzz_ = c.fuzz;
  fuzz_seed_ = c.fuzz_seed;
  serial_elision_ = c.serial_elision;
}

void TaskGraph::add_edge(idx from, idx to) {
  if (from == to || from < 0) return;
  auto& succ = tasks_[static_cast<size_t>(from)].successors;
  // Duplicate edges would double-count unmet_dependencies; accesses of one
  // task frequently share predecessors, so filter here.  Successor lists are
  // short (band reduction: O(tiles); bulge chasing: <= 3).
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
  succ.push_back(to);
  ++tasks_[static_cast<size_t>(to)].unmet_dependencies;
  ++edge_count_;
}

void TaskGraph::add_dependency(idx before, idx after) {
  require(before >= 0 && before < size() && after >= 0 && after < size() &&
              before != after,
          "TaskGraph::add_dependency: invalid task id pair");
  add_edge(before, after);
}

idx TaskGraph::submit(std::function<void()> fn,
                      const std::vector<Access>& accesses,
                      const Options& opts) {
  const idx id = static_cast<idx>(tasks_.size());
  Task t;
  t.fn = std::move(fn);
  t.priority = opts.priority;
  t.label = opts.label;
  if (validate_) t.accesses = accesses;
  tasks_.push_back(std::move(t));

  for (const Access& a : accesses) {
    RegionState& st = regions_[a.region];
    if (a.mode == access::read) {
      // RAW: wait for the last writer.
      add_edge(st.last_writer, id);
      st.readers_since_write.push_back(id);
    } else {
      // WAW + WAR: wait for the last writer and every reader since.
      add_edge(st.last_writer, id);
      for (idx r : st.readers_since_write) add_edge(r, id);
      st.readers_since_write.clear();
      st.last_writer = id;
    }
  }
  return id;
}

void TaskGraph::apply_critical_path_priorities() {
  // Mirror the graph into the analyzer's node shape with unit weights: the
  // height of a task is then the longest chain (in tasks) it still heads,
  // i.e. exactly obs::critical_path_seconds' DP evaluated before execution.
  std::vector<obs::GraphTask> nodes(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    nodes[i].duration_seconds = 1.0;
    nodes[i].successors = tasks_[i].successors;
  }
  const std::vector<double> height = obs::longest_path_to_sink(nodes);
  for (size_t i = 0; i < tasks_.size(); ++i)
    tasks_[i].priority = static_cast<int>(height[i]);
}

void TaskGraph::run_elided() {
  // Serial elision: submission order satisfies every hazard edge by
  // construction (submit() only derives earlier -> later edges), so running
  // the tasks in that order on the calling thread is a valid schedule --
  // the oracle fuzzed parallel runs are compared against.
  const bool observing = obs::enabled();
  const double run_start = obs::now_seconds();
  std::vector<double> durations;
  if (observing) durations.resize(tasks_.size(), 0.0);
  std::exception_ptr first_error;
  for (idx id = 0; id < static_cast<idx>(tasks_.size()); ++id) {
    Task& t = tasks_[static_cast<size_t>(id)];
    const double t0 = obs::now_seconds();
    {
      ActiveTaskGuard active(validate_, &t.accesses, t.label, id,
                             region_map_);
      try {
        t.fn();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    const double t1 = obs::now_seconds();
    if (observing) {
      durations[static_cast<size_t>(id)] = t1 - t0;
      obs::record_span(t.label, t0, t1);
    }
  }
  if (observing && !first_error) record_run(1, run_start, durations, {});
  tasks_.clear();
  regions_.clear();
  edge_count_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

void TaskGraph::record_run(int num_workers, double run_start,
                           const std::vector<double>& durations,
                           const WaitStats& waits) {
  obs::GraphRun run;
  run.phase = obs::current_phase();
  run.num_workers = num_workers;
  run.tasks = static_cast<idx>(tasks_.size());
  run.edges = edge_count_;
  run.start_seconds = run_start;
  run.end_seconds = obs::now_seconds();
  run.wait_total_seconds = waits.total_seconds;
  run.wait_max_seconds = waits.max_seconds;
  run.max_ready_depth = waits.max_ready_depth;
  run.lookahead = run_lookahead_;
  run.priority_scheme = run_priority_scheme_;
  run.nodes.reserve(tasks_.size());
  for (size_t k = 0; k < tasks_.size(); ++k) {
    obs::GraphTask node;
    node.label = tasks_[k].label;
    node.duration_seconds = durations[k];
    node.successors = tasks_[k].successors;  // copied before tasks_.clear()
    run.work_seconds += node.duration_seconds;
    run.nodes.push_back(std::move(node));
  }
  obs::record_graph_run(std::move(run));
}

void TaskGraph::run(int num_workers) {
  num_workers = resolve_num_workers(num_workers);
  // Nested graph (a task of an outer graph runs a graph of its own):
  // execute on the calling thread only -- the outer graph's workers already
  // own the machine.
  if (ThreadPool::in_parallel_region()) num_workers = 1;

  if (validate_) {
    try {
      GraphValidator::check(*this);
    } catch (...) {
      // Validation failures leave the graph cleared and reusable, exactly
      // like a task exception.
      tasks_.clear();
      regions_.clear();
      edge_count_ = 0;
      throw;
    }
  }
  if (serial_elision_) {
    run_elided();
    return;
  }

  struct ReadyEntry {
    int priority;
    idx order;  // submission order; earlier first among equal priorities
    idx task;
    bool operator<(const ReadyEntry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return order > o.order;  // max-heap: smaller order should win
    }
  };
  /// FIFO-side record for priority aging (id + the pop count at enqueue).
  struct AgedEntry {
    idx task;
    std::uint64_t enqueued_at;
  };

  Mutex mu;
  std::condition_variable cv;
  std::priority_queue<ReadyEntry> shared_ready;
  // Priority aging runs a submission-ordered FIFO next to the heap; both
  // structures hold every shared-ready task and delete lazily via `taken`
  // when the other side pops it first.  `shared_live` counts tasks present
  // (not yet taken) so the scheduling branch never sees a stale-only queue.
  const bool aging = aging_window_ > 0;
  std::deque<AgedEntry> aged_ready;
  std::vector<char> taken;
  if (aging) taken.assign(tasks_.size(), 0);
  idx shared_live = 0;
  std::uint64_t shared_pops = 0;
  // Fuzz mode replaces the priority queue with seeded random popping.
  std::vector<idx> fuzz_ready;
  idx remaining = static_cast<idx>(tasks_.size());
  idx executing = 0;    // bodies currently running (deadlock detection)
  bool deadlocked = false;
  std::exception_ptr first_error;
  // Telemetry (all guarded by `observing`; mu-protected where shared).
  const bool observing = obs::enabled();
  const double run_start = obs::now_seconds();
  std::vector<double> durations;   // per-task measured duration
  std::vector<double> ready_at;    // per-task ready (deps met) stamp
  WaitStats waits;
  idx ready_depth = 0;             // tasks currently ready
  if (observing) {
    durations.resize(tasks_.size(), 0.0);
    ready_at.resize(tasks_.size(), run_start);
  }
  // xorshift64 over the fuzz seed; all draws happen under `mu`, so the
  // sequence of scheduling decisions is a deterministic function of the
  // seed and the (timing-dependent) draw interleaving.
  std::uint64_t rng_state = fuzz_seed_ * 0x9E3779B97F4A7C15ull + 0xDA3E39CB94B95BDBull;
  auto rng_next = [&rng_state] {  // caller holds mu
    rng_state ^= rng_state << 13;
    rng_state ^= rng_state >> 7;
    rng_state ^= rng_state << 17;
    return rng_state;
  };

  auto enqueue_ready = [&](idx id) {
    // Caller holds `mu`.
    if (fuzz_) {
      fuzz_ready.push_back(id);
    } else {
      shared_ready.push({tasks_[static_cast<size_t>(id)].priority, id, id});
      if (aging) aged_ready.push_back({id, shared_pops});
      ++shared_live;
    }
    if (observing) {
      ready_at[static_cast<size_t>(id)] = obs::now_seconds();
      ++ready_depth;
      waits.max_ready_depth = std::max(waits.max_ready_depth, ready_depth);
      obs::record_counter("ready_depth", static_cast<double>(ready_depth));
    }
  };

  {
    LockGuard lock(mu);
    for (idx id = 0; id < static_cast<idx>(tasks_.size()); ++id) {
      if (tasks_[static_cast<size_t>(id)].unmet_dependencies == 0)
        enqueue_ready(id);
    }
  }

  auto worker_loop = [&](int) {
    LockGuard lock(mu);
    for (;;) {
      idx id = -1;
      if (fuzz_ && !fuzz_ready.empty()) {
        const size_t r = static_cast<size_t>(rng_next() % fuzz_ready.size());
        id = fuzz_ready[r];
        fuzz_ready[r] = fuzz_ready.back();
        fuzz_ready.pop_back();
      } else if (!fuzz_ && shared_live > 0) {
        if (aging) {
          while (!aged_ready.empty() &&
                 taken[static_cast<size_t>(aged_ready.front().task)] != 0)
            aged_ready.pop_front();
        }
        if (aging && !aged_ready.empty() &&
            shared_pops - aged_ready.front().enqueued_at >=
                static_cast<std::uint64_t>(aging_window_)) {
          // The oldest ready task has been passed over for a full aging
          // window: run it now so low-priority work cannot starve.
          id = aged_ready.front().task;
          aged_ready.pop_front();
        } else {
          if (aging) {
            while (taken[static_cast<size_t>(shared_ready.top().task)] != 0)
              shared_ready.pop();
          }
          id = shared_ready.top().task;
          shared_ready.pop();
        }
        if (aging) taken[static_cast<size_t>(id)] = 1;
        --shared_live;
        ++shared_pops;
      } else {
        if (remaining == 0 || deadlocked) return;
        // Nothing ready anywhere and nothing running: the rest of the graph
        // is unreachable (a manual-edge cycle).  Without this check every
        // worker would wait on `cv` forever.
        if (executing == 0) {
          deadlocked = true;
          if (!first_error)
            first_error = std::make_exception_ptr(validation_error(
                "TaskGraph::run: deadlock -- tasks remain but none are "
                "ready (dependency cycle)"));
          cv.notify_all();
          return;
        }
        cv.wait(lock.native());
        continue;
      }

      Task& t = tasks_[static_cast<size_t>(id)];
      ++executing;
      if (observing) --ready_depth;
      const int delay_us =
          fuzz_ ? static_cast<int>(rng_next() % 200) : 0;
      lock.unlock();
      // Fuzzed runs stagger task starts to widen the interleavings TSan and
      // the dynamic checker observe.
      if (delay_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      const double t0 = obs::now_seconds();
      {
        ActiveTaskGuard active(validate_, &t.accesses, t.label, id,
                               region_map_);
        try {
          t.fn();
        } catch (...) {
          lock.lock();
          if (!first_error) first_error = std::current_exception();
          // Keep draining: successors of a failed task still release so the
          // run terminates; results are discarded because run() rethrows.
          lock.unlock();
        }
      }
      const double t1 = obs::now_seconds();
      if (observing) obs::record_span(t.label, t0, t1);
      lock.lock();
      --executing;
      if (observing) {
        durations[static_cast<size_t>(id)] = t1 - t0;
        const double wait = t0 - ready_at[static_cast<size_t>(id)];
        waits.total_seconds += wait;
        waits.max_seconds = std::max(waits.max_seconds, wait);
        obs::record_histogram(obs::Histogram::task_wait, wait);
      }
      for (idx s : t.successors) {
        if (--tasks_[static_cast<size_t>(s)].unmet_dependencies == 0)
          enqueue_ready(s);
      }
      --remaining;
      if (remaining == 0 || !t.successors.empty()) cv.notify_all();
    }
  };

  if (num_workers == 1) {
    worker_loop(0);
  } else {
    // Borrow num_workers - 1 persistent pool workers for the duration of
    // this graph; the calling thread is logical worker 0.
    ThreadPool::instance().fork_join(num_workers, worker_loop);
  }

  if (observing && !first_error)
    record_run(num_workers, run_start, durations, waits);
  tasks_.clear();
  regions_.clear();
  edge_count_ = 0;
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tseig::rt
