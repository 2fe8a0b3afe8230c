#include "sched/pool.hpp"

#include <sched.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace difftrace::sched {

std::size_t hardware_jobs() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_COUNT(&cpus) > 0)
    return static_cast<std::size_t>(CPU_COUNT(&cpus));
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t max_jobs() { return 4 * hardware_jobs(); }

std::size_t resolve_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  // Reading the environment once at resolve time, before any worker exists;
  // getenv is not re-entrancy-safe but has no concurrent writer here.
  if (const char* env = std::getenv("DIFFTRACE_JOBS"); env != nullptr) {  // NOLINT(concurrency-mt-unsafe)
    const std::string_view text(env);
    std::size_t parsed = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (ec == std::errc() && end == text.data() + text.size() && parsed >= 1 &&
        parsed <= max_jobs())
      return parsed;
  }
  return hardware_jobs();
}

Pool::Pool(std::size_t jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  threads_.reserve(jobs_ - 1);
  for (std::size_t i = 0; i < jobs_ - 1; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Pool::~Pool() {
  {
    const util::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Pool::post(std::string scope, std::function<void()> fn) {
  {
    const util::MutexLock lk(mu_);
    queue_.push_back(Tick{std::move(scope), std::move(fn), std::this_thread::get_id()});
  }
  cv_.notify_one();
}

bool Pool::try_run_one() {
  Tick tick;
  {
    const util::MutexLock lk(mu_);
    if (queue_.empty()) return false;
    tick = std::move(queue_.front());
    queue_.pop_front();
  }
  // Caller-executed ticks get no span wrapper: they nest under whatever the
  // calling thread already has open ("rank/sweep/..."), matching serial runs.
  tick.fn();
  cv_.notify_all();
  return true;
}

void Pool::wait_for_progress() {
  const util::MutexLock lk(mu_);
  if (!queue_.empty() || stop_) return;
  // Timed wait: completion signals race with going to sleep, and a missed
  // notify must not strand the caller.
  cv_.wait_for(mu_, std::chrono::milliseconds(2));
}

void Pool::notify_all() { cv_.notify_all(); }

void Pool::worker_main(std::size_t index) {
  const std::string worker_name = "worker" + std::to_string(index);
  for (;;) {
    Tick tick;
    {
      const util::MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ and drained
      tick = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::counter("sched.tasks_stolen").add(1);
    {
      // Root the tick's spans under "<scope>/worker<i>/..." so profiles show
      // which grain ran off the calling thread.
      obs::Span scope_span(tick.scope);
      obs::Span worker_span(worker_name);
      tick.fn();
    }
    cv_.notify_all();
  }
}

void Pool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct State {
    explicit State(std::size_t total, const std::function<void(std::size_t)>& b)
        : n(total), body(b) {}
    const std::size_t n;
    const std::function<void(std::size_t)>& body;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> live{0};  // iterations claimed but not finished
    util::Mutex err_mu;
    std::exception_ptr error DT_GUARDED_BY(err_mu);
    std::size_t error_index DT_GUARDED_BY(err_mu) = static_cast<std::size_t>(-1);
  };
  // shared_ptr: helper ticks may outlive this frame only if the caller
  // abandons the wait, which it never does — but late-queued helpers that run
  // after completion must still find valid state to observe next >= n.
  auto state = std::make_shared<State>(n, body);

  // live is incremented BEFORE the claim: once the caller's own failed claim
  // proves next >= n, every in-flight valid claim has already published its
  // live increment (the claim RMWs on `next` order the two atomics), so
  // "next exhausted and live == 0" really means all iterations finished.
  const auto drain = [](const std::shared_ptr<State>& st) {
    for (;;) {
      st->live.fetch_add(1);
      const std::size_t i = st->next.fetch_add(1);
      if (i >= st->n) {
        st->live.fetch_sub(1);
        return;
      }
      try {
        st->body(i);
      } catch (...) {
        const util::MutexLock lk(st->err_mu);
        if (i < st->error_index) {
          st->error_index = i;
          st->error = std::current_exception();
        }
        st->next.store(st->n);  // stop further claims
      }
      st->live.fetch_sub(1);
    }
  };

  const std::size_t helpers = std::min(jobs_ - 1, n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    post("parallel_for", [state, drain] { drain(state); });
  }
  drain(state);
  // All iterations are claimed; wait for helpers still inside one. Helping
  // with unrelated queued ticks while waiting keeps nested parallel sections
  // deadlock-free (no thread sleeps while claimable work exists).
  while (state->live.load() != 0) {
    if (!try_run_one()) wait_for_progress();
  }
  std::exception_ptr error;
  {
    const util::MutexLock lk(state->err_mu);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace difftrace::sched
