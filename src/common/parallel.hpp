// One way to spread a data-parallel pass over the cores: parallel_for
// starts its threads, runs the tasks and joins the threads before it
// returns. There is no pool; set-up passes (the FIB load: the RIB's bulk
// insert and the table builds) are the callers, and a thread start costs
// far less than their tasks. counting_scatter, built on it, is their one
// way to group items into buckets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
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
/// before the return. A helper thread that fails to start is left out:
/// the threads that did start, the calling thread among them, run every
/// task. A task that throws stops its thread; once all the threads have
/// joined, the first exception is rethrown to the caller, and an index no
/// thread reached has not run.
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
    try {
      helpers.reserve(threads);
      for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
    } catch (...) {
      // No more threads for now; the ones running take the rest.
    }
    drain();
  }
  if (failure) std::rethrow_exception(failure);
}

/// A stable counting scatter on every core. Groups the items [0, n) by
/// bucket(i), a value in [0, buckets), keeping ascending i inside each
/// bucket: calls place(i, pos) once per item with the item's position in
/// that order, and returns where each bucket starts, so that bucket b
/// holds positions [starts[b], starts[b + 1]). The items are cut into
/// slices of at least 16,384, at most one per worker thread. Each slice
/// counts its buckets, a serial prefix sum gives each slice its first
/// position in every bucket, and each slice places its items. bucket(i)
/// runs twice per item and must give the same value both times; place
/// calls run concurrently, one position each. The scatter's own buffers
/// are allocated before the first place call.
template <typename Bucket, typename Place>
std::vector<std::size_t> counting_scatter(std::size_t n, std::size_t buckets,
                                          const Bucket& bucket, const Place& place) {
  constexpr std::size_t kMinSlice = 16'384;
  const std::size_t slices = std::clamp<std::size_t>(n / kMinSlice, 1, worker_threads());
  const auto slice_begin = [n, slices](std::size_t s) { return s * n / slices; };
  // Row s counts slice s's items per bucket, then holds the position of
  // each bucket's next item from slice s.
  std::vector<std::size_t> next(slices * buckets, 0);
  std::vector<std::size_t> starts(buckets + 1);
  parallel_for(slices, [&](std::size_t s) {
    std::size_t* count = &next[s * buckets];
    for (std::size_t i = slice_begin(s); i < slice_begin(s + 1); ++i) ++count[bucket(i)];
  });
  std::size_t sum = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    starts[b] = sum;
    for (std::size_t s = 0; s < slices; ++s) sum += std::exchange(next[s * buckets + b], sum);
  }
  starts[buckets] = sum;
  parallel_for(slices, [&](std::size_t s) {
    std::size_t* row = &next[s * buckets];
    for (std::size_t i = slice_begin(s); i < slice_begin(s + 1); ++i) place(i, row[bucket(i)]++);
  });
  return starts;
}

}  // namespace ps
