// One job loop for the service's job workers (service/service.hpp); every
// optimization engine runs on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace smartly::util {

/// Threads to use for `requested` (0 = one per hardware thread, floor 1).
int resolve_thread_count(int requested) noexcept;

/// Run `fn(i)` for every i in [0, n) and return when all have finished. The
/// calling thread and min(threads, n) - 1 std::threads take indices from one
/// shared counter; threads <= 1 is a plain loop in index order. Once a call
/// throws, no new index starts; after every thread has joined, the exception
/// of the lowest throwing index seen is rethrown on the calling thread.
void parallel_for(size_t n, int threads, const std::function<void(size_t)>& fn);

} // namespace smartly::util
