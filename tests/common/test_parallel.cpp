// ps::parallel_for: every index runs exactly once, on at most
// min(n, worker_threads()) threads, the tasks' writes are visible when it
// returns, and a task's exception reaches the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
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

}  // namespace
}  // namespace ps
