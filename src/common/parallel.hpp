// One way to spread a data-parallel pass over the cores: parallel_for
// starts its threads, runs the tasks and joins the threads before it
// returns. There is no pool; set-up passes (the FIB table builds) are the
// callers, and a thread start costs far less than their tasks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/atomic_shim.hpp"

namespace ps {

/// Threads a data-parallel pass uses: one per hardware thread, at most 8
/// (4 when the count is unknown). SimtExecutor sizes its pool the same way.
inline unsigned worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : std::min(hw, 8u);
}

/// Runs task(i) once for each i in [0, n) on min(n, worker_threads())
/// threads, the calling thread among them, and returns when every task
/// has run. Indices are claimed in ascending order, so list the largest
/// tasks first. Starting and joining the threads orders the tasks' writes
/// before the return. A task that throws stops its thread; once all the
/// threads have joined, the first exception is rethrown to the caller,
/// and an index no thread reached has not run.
template <typename Task>
void parallel_for(std::size_t n, const Task& task) {
  // mc: parallel.next_task -- relaxed ticket; each index is claimed once
  ps::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::once_flag failed;
  const auto drain = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) task(i);
    } catch (...) {
      std::call_once(failed, [&failure] { failure = std::current_exception(); });
    }
  };
  {
    const std::size_t threads = std::min<std::size_t>(n, worker_threads());
    std::vector<std::jthread> helpers;
    helpers.reserve(threads);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
    drain();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace ps
