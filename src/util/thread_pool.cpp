#include "util/thread_pool.hpp"

#include "obs/metrics.hpp"

#include <algorithm>

namespace smartly::util {

namespace {
// Queue/steal observability: totals are scheduling-dependent (how many tasks
// a worker steals varies run to run), which is exactly what they are for —
// seeing contention and imbalance. They are never gated or fed back into any
// engine decision.
obs::Counter& tasks_run_counter() {
  static obs::Counter& c = obs::counter("pool.tasks_run");
  return c;
}
obs::Counter& tasks_stolen_counter() {
  static obs::Counter& c = obs::counter("pool.tasks_stolen");
  return c;
}
} // namespace

int resolve_thread_count(int requested) noexcept {
  if (requested > 0)
    return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  queues_.reserve(static_cast<size_t>(threads_));
  for (int i = 0; i < threads_; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    shutdown_ = true;
  }
  batch_start_.notify_all();
  for (std::thread& t : workers_)
    t.join();
}

bool ThreadPool::try_pop_own(int worker, size_t& task) {
  WorkerQueue& q = *queues_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty())
    return false;
  task = q.tasks.back();
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(int worker, size_t& task) {
  for (int off = 1; off < threads_; ++off) {
    const int victim = (worker + off) % threads_;
    WorkerQueue& q = *queues_[static_cast<size_t>(victim)];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty())
      continue;
    task = q.tasks.front();
    q.tasks.pop_front();
    tasks_stolen_counter().add();
    return true;
  }
  return false;
}

void ThreadPool::work_until_batch_done(int worker) {
  size_t task;
  while (try_pop_own(worker, task) || try_steal(worker, task)) {
    // Re-read the batch function per task: a straggler from the previous
    // epoch can legitimately pick up tasks of the next batch, whose fn
    // differs. A popped-but-unexecuted task pins its run_batch in the wait
    // below, so the pointer read here is never dangling.
    const std::function<void(int, size_t)>* fn;
    bool skip;
    {
      std::lock_guard<std::mutex> lock(batch_mutex_);
      fn = batch_fn_;
      skip = batch_error_ != nullptr; // a task already threw: drain, don't run
    }
    std::exception_ptr err = nullptr;
    if (!skip) {
      tasks_run_counter().add();
      try {
        (*fn)(worker, task);
      } catch (...) {
        err = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(batch_mutex_);
    if (err != nullptr && (batch_error_ == nullptr || task < batch_error_task_)) {
      batch_error_ = err;
      batch_error_task_ = task;
    }
    if (--tasks_remaining_ == 0)
      batch_done_.notify_all();
  }
}

void ThreadPool::worker_loop(int worker) {
  size_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(batch_mutex_);
      batch_start_.wait(lock, [&] { return shutdown_ || batch_epoch_ != seen_epoch; });
      if (shutdown_)
        return;
      seen_epoch = batch_epoch_;
    }
    work_until_batch_done(worker);
  }
}

void ThreadPool::run_batch(size_t n, const std::function<void(int, size_t)>& fn) {
  if (n == 0)
    return;
  if (threads_ == 1) {
    tasks_run_counter().add(n);
    for (size_t i = 0; i < n; ++i)
      fn(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    batch_fn_ = &fn;
    batch_error_ = nullptr;
    tasks_remaining_ = n;
    for (size_t i = 0; i < n; ++i) {
      WorkerQueue& q = *queues_[i % static_cast<size_t>(threads_)];
      std::lock_guard<std::mutex> qlock(q.mutex);
      q.tasks.push_back(i);
    }
    ++batch_epoch_;
  }
  batch_start_.notify_all();
  work_until_batch_done(0);
  std::unique_lock<std::mutex> lock(batch_mutex_);
  batch_done_.wait(lock, [&] { return tasks_remaining_ == 0; });
  batch_fn_ = nullptr;
  if (batch_error_ != nullptr) {
    std::exception_ptr err = batch_error_;
    batch_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

} // namespace smartly::util
