#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace smartly::util {

int resolve_thread_count(int requested) noexcept {
  if (requested > 0)
    return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(size_t n, int threads, const std::function<void(size_t)>& fn) {
  const size_t workers = std::min(n, static_cast<size_t>(std::max(1, threads)));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i)
      fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  size_t error_index = n;
  const auto work = [&] {
    while (!failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= n)
        return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        failed.store(true);
        if (i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    for (size_t t = 1; t < workers; ++t)
      helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // No more threads to be had: the ones started, and this one, take every
    // index left. Returning here would destroy joinable threads.
  }
  work();
  for (std::thread& t : helpers)
    t.join();
  if (error != nullptr)
    std::rethrow_exception(error);
}

} // namespace smartly::util
