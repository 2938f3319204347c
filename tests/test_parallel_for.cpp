// Pins the job-loop contract the service daemon depends on: the sizing rule
// (hardware_concurrency() is allowed to return 0, and resolve_thread_count
// must never end up with zero workers — a daemon that sized itself to zero
// would accept jobs and run nothing), index-order runs at one thread,
// exactly-once runs across threads, and exception propagation after join.
#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using smartly::util::parallel_for;
using smartly::util::resolve_thread_count;

TEST(ParallelForSizing, ResolveNeverReturnsLessThanOne) {
  // 0 means "one per hardware thread", with floor 1 even when the runtime
  // reports hardware_concurrency() == 0 (permitted by the standard).
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_GE(resolve_thread_count(-1), 1);
  EXPECT_GE(resolve_thread_count(-1000), 1);
}

TEST(ParallelForSizing, ExplicitRequestIsHonoredExactly) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_EQ(resolve_thread_count(64), 64);
}

TEST(ParallelFor, OneThreadRunsEveryIndexInOrder) {
  for (const int threads : {1, 0, -4}) {
    std::vector<size_t> order;
    parallel_for(16, threads, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u) << "threads " << threads;
    for (size_t i = 0; i < order.size(); ++i)
      EXPECT_EQ(order[i], i) << "threads " << threads;
  }
}

TEST(ParallelFor, EveryIndexRunsExactlyOnceAcrossThreads) {
  // TSan target: slot-per-index writes read back on the calling thread
  // after the join.
  constexpr size_t kIndices = 2000;
  std::vector<std::atomic<int>> runs(kIndices);
  std::vector<size_t> out(kIndices, 0);
  parallel_for(kIndices, 4, [&](size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
    out[i] = i + 1;
  });
  for (size_t i = 0; i < kIndices; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_EQ(out[i], i + 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  for (const int threads : {1, 4})
    parallel_for(0, threads, [&](size_t) { FAIL() << "no index should run"; });
}

TEST(ParallelFor, OneThreadStopsAtTheFirstThrow) {
  std::vector<size_t> ran;
  EXPECT_THROW(parallel_for(8, 1,
                            [&](size_t i) {
                              ran.push_back(i);
                              if (i == 3)
                                throw std::runtime_error("index 3");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ParallelFor, ThrowIsRethrownAfterJoinAndStopsNewIndices) {
  // Index 1 throws at once and index 0 throws late; every other index
  // sleeps, so the first throw is seen long before the counter could reach
  // the end. Index 0 is the first one taken, so it always runs, and the
  // lowest throwing index must win. Every index that started must have
  // finished before the exception reaches the caller.
  constexpr size_t kIndices = 10000;
  std::vector<std::atomic<bool>> started(kIndices);
  std::vector<std::atomic<bool>> finished(kIndices);
  std::string what;
  try {
    parallel_for(kIndices, 4, [&](size_t i) {
      started[i] = true;
      if (i != 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 20 : 1));
      finished[i] = true;
      if (i <= 1)
        throw std::runtime_error("index " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "index 0");
  size_t n_started = 0;
  for (size_t i = 0; i < kIndices; ++i) {
    EXPECT_EQ(started[i].load(), finished[i].load()) << "index " << i;
    n_started += started[i] ? 1 : 0;
  }
  EXPECT_GE(n_started, 1u);
  EXPECT_LT(n_started, kIndices / 10); // no new index after the throw
}

} // namespace
