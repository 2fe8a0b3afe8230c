// Deterministic fixed-size worker pool.
//
// The pool owns jobs-1 worker threads plus the calling thread, all draining
// one FIFO queue of ticks (small std::function<void()> units). Determinism
// is NOT provided here — ticks run in whatever order threads win the queue —
// it is provided by the layers above: sched::Graph commits results in task
// submission order and core::Session merges per-trace results in canonical
// trace order, so observable output is byte-identical at any job count.
//
// jobs == 1 spawns zero threads: post() is illegal (callers use run-inline
// paths), and parallel_for degenerates to a plain loop on the caller. This
// preserves today's exact serial behaviour including span nesting.
//
// Worker threads wrap each tick in obs spans ("worker<i>" under the scope
// the tick was posted with), so profile paths look like
// "sweep/worker3/session". Caller-executed ticks are NOT wrapped — they nest
// naturally under the caller's live span stack. Ticks executed by a thread
// other than the one that posted them increment the `sched.tasks_stolen`
// counter.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace difftrace::sched {

/// Number of jobs implied by the machine (>= 1): the CPUs in the calling
/// thread's affinity mask (so `taskset -c 0` means 1), falling back to
/// std::thread::hardware_concurrency() when the mask cannot be read.
std::size_t hardware_jobs();

/// Largest job count any caller may ask for: 4 × hardware_jobs(). The CLI
/// rejects a larger --jobs; resolve_jobs ignores a larger DIFFTRACE_JOBS.
std::size_t max_jobs();

/// Resolves a requested job count: explicit > 0 wins, then the
/// DIFFTRACE_JOBS environment variable (ignored unless a decimal in
/// [1, max_jobs()]), then hardware_jobs(). Always >= 1.
std::size_t resolve_jobs(std::size_t requested);

class Pool {
 public:
  /// `jobs` must be >= 1 (callers resolve first). `jobs - 1` threads start
  /// immediately and live until destruction.
  explicit Pool(std::size_t jobs);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// Enqueues a tick. `scope` names the span under which worker threads run
  /// it (e.g. "sweep" -> "sweep/worker3/..."). Requires jobs() > 1. The tick
  /// must not let an exception escape (workers have no handler; enforced by
  /// lint rule `task-throw`) — wrap fallible work the way Graph and
  /// parallel_for do, capturing the exception into shared state.
  void post(std::string scope, std::function<void()> fn) DT_EXCLUDES(mu_);

  /// Runs one queued tick on the calling thread if any is available.
  /// Returns false when the queue was empty.
  bool try_run_one() DT_EXCLUDES(mu_);

  /// Blocks the caller until woken by tick completion or timeout; used by
  /// callers waiting for posted work they cannot help with.
  void wait_for_progress() DT_EXCLUDES(mu_);

  /// Runs body(0..n-1) across the pool plus the calling thread; returns when
  /// all iterations finished. Iterations are claimed dynamically; the first
  /// exception (lowest claimed index wins ties arbitrarily) stops further
  /// claims and is rethrown on the caller. jobs == 1 runs a plain loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) DT_EXCLUDES(mu_);

  /// Wakes all sleeping participants; call after externally observable state
  /// changes that a waiter might be polling for (Graph completions).
  void notify_all();

 private:
  struct Tick {
    std::string scope;
    std::function<void()> fn;
    std::thread::id poster;
  };

  void worker_main(std::size_t index) DT_EXCLUDES(mu_);

  const std::size_t jobs_;
  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Tick> queue_ DT_GUARDED_BY(mu_);
  bool stop_ DT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // written by ctor/dtor only
};

}  // namespace difftrace::sched
