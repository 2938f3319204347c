// Pins the ThreadPool sizing contract the service daemon depends on:
// hardware_concurrency() is allowed to return 0, and neither
// resolve_thread_count nor the pool itself may ever end up with zero
// workers — a daemon that silently sized its pool to zero would accept
// jobs and run nothing.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace {

using smartly::util::ThreadPool;
using smartly::util::resolve_thread_count;

TEST(ThreadPoolSizing, ResolveNeverReturnsLessThanOne) {
  // 0 means "one per hardware thread", with floor 1 even when the runtime
  // reports hardware_concurrency() == 0 (permitted by the standard).
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_GE(resolve_thread_count(-1), 1);
  EXPECT_GE(resolve_thread_count(-1000), 1);
}

TEST(ThreadPoolSizing, ExplicitRequestIsHonoredExactly) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_EQ(resolve_thread_count(64), 64);
}

TEST(ThreadPoolSizing, PoolClampsDegenerateSizesToOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.size(), 1);
  ThreadPool negative(-4);
  EXPECT_EQ(negative.size(), 1);
}

TEST(ThreadPoolBatches, SingleThreadRunsEveryTaskInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.run_batch(16, [&](int worker, size_t task) {
    EXPECT_EQ(worker, 0); // degenerate pool: plain loop on the caller
    order.push_back(task);
  });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolBatches, EveryTaskRunsExactlyOnceAcrossWorkers) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 500;
  std::vector<std::atomic<int>> runs(kTasks);
  pool.run_batch(kTasks, [&](int worker, size_t task) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.size());
    runs[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(ThreadPoolBatches, PoolIsReusableAfterAThrowingBatch) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_batch(8,
                              [&](int, size_t task) {
                                if (task == 3)
                                  throw std::runtime_error("task 3 failed");
                              }),
               std::runtime_error);

  // The barrier completed and the pool is not poisoned: the next batch runs.
  std::atomic<size_t> ran{0};
  pool.run_batch(8, [&](int, size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(ThreadPoolBatches, EmptyBatchIsANoOp) {
  ThreadPool pool(3);
  pool.run_batch(0, [&](int, size_t) { FAIL() << "no task should run"; });
}

} // namespace
