// A small work-stealing thread pool for batch-parallel work.
//
// Its one user is the service's job workers (service/service.hpp); every
// optimization engine runs on the calling thread. Work stealing keeps
// workers busy when one job dwarfs the rest. Tasks are identified by index
// into the current batch: each worker owns a deque seeded round-robin, pops
// its own back (LIFO, cache-warm), and steals from other workers' fronts
// (FIFO, the oldest — and statistically largest — leftovers). Which worker
// executes which task is scheduling noise; callers must keep task *results*
// schedule-independent (slot-per-task outputs).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smartly::util {

/// Threads to use for `requested` (0 = one per hardware thread, floor 1).
int resolve_thread_count(int requested) noexcept;

class ThreadPool {
public:
  /// Spawns `threads - 1` workers; the caller's thread is worker 0 and
  /// participates in every batch. threads <= 1 means run_batch degenerates
  /// to a plain loop on the calling thread (no synchronization at all).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return threads_; }

  /// Run `fn(worker_id, task_index)` for every task_index in [0, n) and
  /// return when all have finished (a full barrier). worker_id is in
  /// [0, size()). Not reentrant: one batch at a time.
  ///
  /// Exception safety: if any task throws, the remaining not-yet-started
  /// tasks of the batch are skipped, the barrier still completes, and the
  /// exception is rethrown here on the calling thread. When several tasks
  /// throw, the one with the lowest task index that was observed wins (a
  /// best-effort tiebreak: exact choice can depend on scheduling).
  void run_batch(size_t n, const std::function<void(int, size_t)>& fn);

private:
  struct WorkerQueue {
    std::deque<size_t> tasks;
    std::mutex mutex;
  };

  bool try_pop_own(int worker, size_t& task);
  bool try_steal(int worker, size_t& task);
  void worker_loop(int worker);
  void work_until_batch_done(int worker);

  int threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex batch_mutex_;
  std::condition_variable batch_start_;
  std::condition_variable batch_done_;
  const std::function<void(int, size_t)>* batch_fn_ = nullptr;
  size_t batch_epoch_ = 0;
  size_t tasks_remaining_ = 0;
  std::exception_ptr batch_error_ = nullptr;
  size_t batch_error_task_ = 0;
  bool shutdown_ = false;
};

} // namespace smartly::util
