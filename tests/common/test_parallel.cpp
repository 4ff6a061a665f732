// ps::parallel_for: every index runs exactly once, on at most
// min(n, worker_threads()) threads, the tasks' writes are visible when it
// returns, and a task's exception reaches the caller. ps::counting_scatter:
// the order it places items in is a stable sort by bucket, with one slice
// or many.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace ps {
namespace {

void expect_each_index_once(std::size_t n) {
  SCOPED_TRACE(::testing::Message() << "n = " << n);
  // Plain ints: an index claimed twice is a data race TSan reports, and
  // a missing join would be one too.
  std::vector<int> runs(n, 0);
  std::mutex mu;
  std::set<std::thread::id> threads;
  parallel_for(n, [&](std::size_t i) {
    ++runs[i];
    std::lock_guard lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), static_cast<std::ptrdiff_t>(n));
  EXPECT_LE(threads.size(), std::min<std::size_t>(n, worker_threads()));
}

TEST(ParallelFor, RunsEachIndexExactlyOnce) {
  expect_each_index_once(0);
  expect_each_index_once(1);
  expect_each_index_once(2);
  expect_each_index_once(worker_threads() - 1);  // fewer tasks than threads
  expect_each_index_once(10'000);
}

TEST(ParallelFor, RethrowsATaskExceptionAfterTheJoin) {
  // Whichever thread runs index 57, its exception reaches the caller, and
  // no other thread is still running a task when it does.
  std::vector<int> runs(1'000, 0);
  EXPECT_THROW(parallel_for(runs.size(),
                            [&runs](std::size_t i) {
                              ++runs[i];
                              if (i == 57) throw std::runtime_error("task 57");
                            }),
               std::runtime_error);
  EXPECT_EQ(runs[57], 1);
  EXPECT_EQ(std::count_if(runs.begin(), runs.end(), [](int r) { return r > 1; }), 0);
}

TEST(ParallelFor, OneTaskRunsOnTheCallingThread) {
  std::thread::id ran_on;
  parallel_for(1, [&ran_on](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

/// Scatters [0, n) into `buckets` by `bucket` and checks the placed order
/// against a stable sort of the indices by bucket, and the starts against
/// the bucket sizes. Returns the threads that placed items.
template <typename Bucket>
std::set<std::thread::id> expect_stable_scatter(std::size_t n, std::size_t buckets,
                                                const Bucket& bucket) {
  SCOPED_TRACE(::testing::Message() << "n = " << n << ", buckets = " << buckets);
  // Plain ints: a position placed twice is a data race TSan reports.
  std::vector<std::size_t> placed(n, n);
  std::vector<int> calls(n, 0);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const std::vector<std::size_t> starts =
      counting_scatter(n, buckets, bucket, [&](std::size_t i, std::size_t pos) {
        placed[pos] = i;
        ++calls[i];
        std::lock_guard lock(mu);
        threads.insert(std::this_thread::get_id());
      });
  std::vector<std::size_t> expected(n);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t x, std::size_t y) { return bucket(x) < bucket(y); });
  EXPECT_EQ(placed, expected);
  EXPECT_EQ(std::count(calls.begin(), calls.end(), 1), static_cast<std::ptrdiff_t>(n));
  std::vector<std::size_t> sizes(buckets, 0);
  for (std::size_t i = 0; i < n; ++i) ++sizes[bucket(i)];
  EXPECT_EQ(starts.size(), buckets + 1);
  EXPECT_EQ(starts.front(), 0u);
  for (std::size_t b = 0; b < buckets && b + 1 < starts.size(); ++b) {
    EXPECT_EQ(starts[b + 1] - starts[b], sizes[b]) << "bucket " << b;
  }
  EXPECT_LE(threads.size(), worker_threads());
  return threads;
}

/// A bucket from a multiplicative hash of the index, with every bucket b
/// where b % 3 == 1 left empty.
auto hashed_buckets(std::size_t buckets) {
  return [buckets](std::size_t i) {
    const std::size_t b = ((i * 2654435761u) >> 7) % buckets;
    return buckets > 1 && b % 3 == 1 ? b - 1 : b;
  };
}

TEST(CountingScatter, NoItemsPlaceNothing) {
  for (const std::size_t buckets : {1u, 64u, 65'536u}) {
    const auto starts = counting_scatter(0, buckets, [](std::size_t) { return std::size_t{0}; },
                                         [](std::size_t, std::size_t) { FAIL(); });
    EXPECT_EQ(starts, std::vector<std::size_t>(buckets + 1, 0));
  }
}

TEST(CountingScatter, OneSliceIsAStableSortOnTheCallingThread) {
  // Fewer than 16,384 items make one slice, which runs on the caller.
  for (const std::size_t n : {1u, 2u, 1'000u, 16'383u}) {
    for (const std::size_t buckets : {1u, 7u, 64u, 4'096u}) {
      const auto threads = expect_stable_scatter(n, buckets, hashed_buckets(buckets));
      EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
    }
  }
}

TEST(CountingScatter, ManySlicesKeepInputOrderInsideEachBucket) {
  // Up to one slice per worker thread; the items of one bucket come from
  // every slice and must stay in input order across the slice cuts.
  for (const std::size_t n : {32'768u, 100'003u}) {
    for (const std::size_t buckets : {1u, 7u, 64u, 65'536u}) {
      expect_stable_scatter(n, buckets, hashed_buckets(buckets));
    }
    // Every item in the last bucket but a few in the first.
    expect_stable_scatter(n, 64, [](std::size_t i) { return i % 10'007 == 0 ? 0u : 63u; });
  }
}

}  // namespace
}  // namespace ps
