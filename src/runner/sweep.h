#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "runner/thread_pool.h"

namespace omr::runner {

/// Degree of parallelism for sweep execution: the OMR_JOBS environment
/// variable when set (an integer, clamped to >= 1, or "auto"), otherwise
/// hardware_concurrency. Any other value throws std::invalid_argument.
/// OMR_JOBS=1 selects the exact serial path — no threads are created and
/// tasks interleave with commits precisely like a plain for loop.
std::size_t default_jobs();

/// Fans independent tasks out across a work-stealing pool while committing
/// results on the calling thread in strict submission order, so any output
/// produced from the commits (tables, report JSON) is byte-identical to a
/// serial run regardless of scheduling.
///
/// Tasks must be thread-isolated: each should build its own Engine /
/// Network / Rng and touch no shared mutable state. `commit(i, result)`
/// runs only on the caller's thread and may print, accumulate, or write —
/// it needs no synchronization of its own.
///
/// A task that throws has its exception captured and rethrown on the
/// calling thread once every commit with a smaller index has run; the
/// runner waits for in-flight tasks to finish before rethrowing, so no
/// task outlives the call.
class SweepRunner {
 public:
  /// jobs == 0 means default_jobs().
  explicit SweepRunner(std::size_t jobs = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  std::size_t jobs() const { return jobs_; }
  /// Threads the pool has started so far (0 before any parallel sweep).
  std::size_t pool_threads() const {
    return pool_ == nullptr ? 0 : pool_->n_threads();
  }

  template <typename R>
  void for_each(std::size_t n, const std::function<R(std::size_t)>& task,
                const std::function<void(std::size_t, R&&)>& commit) {
    if (n == 0) return;
    if (jobs_ == 1 || n == 1) {
      // Exact serial path: identical control flow to the pre-runner code.
      for (std::size_t i = 0; i < n; ++i) commit(i, task(i));
      return;
    }
    ensure_pool(n);

    struct Slot {
      std::optional<R> result;
      std::exception_ptr error;
      bool done = false;
    };
    struct Shared {
      std::mutex mu;
      std::condition_variable cv;
      std::vector<Slot> slots;
    };
    Shared shared;
    shared.slots.resize(n);

    for (std::size_t i = 0; i < n; ++i) {
      pool_->submit([&shared, &task, i] {
        Slot local;
        try {
          local.result.emplace(task(i));
        } catch (...) {
          local.error = std::current_exception();
        }
        std::lock_guard<std::mutex> lk(shared.mu);
        shared.slots[i] = std::move(local);
        shared.slots[i].done = true;
        shared.cv.notify_all();
      });
    }

    // Commit the completed prefix in order; on the first failed slot, wait
    // for pool quiescence (tasks capture &shared / &task) and rethrow.
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_lock<std::mutex> lk(shared.mu);
      shared.cv.wait(lk, [&] { return shared.slots[i].done; });
      if (shared.slots[i].error != nullptr) {
        std::exception_ptr err = shared.slots[i].error;
        lk.unlock();
        pool_->wait_all();
        std::rethrow_exception(err);
      }
      R result = std::move(*shared.slots[i].result);
      shared.slots[i].result.reset();
      lk.unlock();
      commit(i, std::move(result));
    }
    pool_->wait_all();
  }

 private:
  /// Pool of min(jobs_, n_tasks) threads; grown (never shrunk) when a
  /// later sweep has more tasks than the pool has threads.
  void ensure_pool(std::size_t n_tasks);

  std::size_t jobs_;
  std::unique_ptr<ThreadPool> pool_;  // created on first parallel for_each
};

/// One-shot convenience over a temporary SweepRunner. `jobs == 0` means
/// default_jobs(); pass 1 to force the serial path.
template <typename R>
void parallel_for_each(std::size_t n,
                       const std::function<R(std::size_t)>& task,
                       const std::function<void(std::size_t, R&&)>& commit,
                       std::size_t jobs = 0) {
  SweepRunner runner(jobs);
  runner.for_each<R>(n, task, commit);
}

}  // namespace omr::runner
