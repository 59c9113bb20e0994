#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gridsched::util {
namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto future = pool.submit([&] { counter.fetch_add(1); });
  future.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 5; });
  EXPECT_EQ(value, 5);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long long> out(10000);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<long long>(i) * 2;
  });
  const long long total = std::accumulate(out.begin(), out.end(), 0LL);
  EXPECT_EQ(total, 9999LL * 10000LL);  // 2 * n(n-1)/2
}

TEST(ThreadPool, ParallelForRunsEachIndexAsItsOwnTask) {
  // The campaign runner relies on one task per index: a slow cell must not
  // hold back the cells after it. Index 0 waits (bounded) until index 1
  // has run. Split into one contiguous chunk per worker, 0 and 1 would
  // share a chunk and 1 could only start after 0 gave up.
  ThreadPool pool(2);
  std::atomic<bool> second_ran{false};
  std::atomic<bool> first_saw_second{false};
  pool.parallel_for(4, [&](std::size_t i) {
    if (i == 1) second_ran.store(true);
    if (i != 0) return;
    for (int spin = 0; spin < 1000000 && !second_ran.load(); ++spin) {
      std::this_thread::yield();
    }
    first_saw_second.store(second_ran.load());
  });
  EXPECT_TRUE(first_saw_second.load());
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 41) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, SingleFailurePreservesExceptionType) {
  // One failing task must rethrow the original exception unchanged (not
  // wrapped) so catch sites keyed on the type still work.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::invalid_argument("just me");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, ConcurrentFailuresAggregateEveryWhat) {
  // Several tasks fail: none may be dropped. Every index is its own task,
  // so each throwing index fails separately.
  ThreadPool pool(4);
  try {
    pool.parallel_for(8, [](std::size_t i) {
      if (i % 2 == 1) {
        throw std::runtime_error("task " + std::to_string(i) + " died");
      }
    });
    FAIL() << "expected an aggregate failure";
  } catch (const AggregateError& error) {
    EXPECT_EQ(error.messages().size(), 4u);
    const std::string what = error.what();
    for (const std::size_t i : {1u, 3u, 5u, 7u}) {
      const std::string expected = "task " + std::to_string(i) + " died";
      EXPECT_NE(what.find(expected), std::string::npos) << what;
    }
  }
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<bool> first_running{false};
  std::atomic<bool> second_observed_first{false};
  auto f1 = pool.submit([&] {
    first_running.store(true);
    // Busy-wait until the other task sees us (bounded to avoid hangs).
    for (int i = 0; i < 1000000 && !second_observed_first.load(); ++i) {
      std::this_thread::yield();
    }
  });
  auto f2 = pool.submit([&] {
    for (int i = 0; i < 1000000 && !first_running.load(); ++i) {
      std::this_thread::yield();
    }
    second_observed_first.store(first_running.load());
  });
  f1.get();
  f2.get();
  EXPECT_TRUE(second_observed_first.load());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace gridsched::util
