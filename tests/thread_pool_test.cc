#include "util/thread_pool.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace ucr {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    ThreadPool pool(workers);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<uint32_t>> visits(kCount);
    pool.ParallelFor(0, kCount, [&](size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "index " << i << " with " << workers
                                      << " workers";
    }
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, 20, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), size_t{145});  // 10 + 11 + ... + 19.
}

TEST(ThreadPoolTest, ParallelForEmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(9, 3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 200;
  std::atomic<size_t> done{0};
  for (size_t t = 0; t < kTasks; ++t) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, InlinePoolRunsSubmittedTasksImmediately) {
  ThreadPool pool(0);
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);
  pool.Wait();  // Nothing queued; must not block.
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheSamePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(0, 64, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), size_t{64 * 63 / 2});
  }
}

// Thousands of back-to-back small loops, the label DP's pattern (two
// loops per level). Every index runs exactly once per loop, and no
// worker sleeps through a loop's wake-up: in the second half each
// index blocks until every executor holds one, so a worker that missed
// the wake-up leaves the others waiting out their deadline.
TEST(ThreadPoolTest, BackToBackSmallLoopsVisitOnceAndWakeEveryWorker) {
  constexpr size_t kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::vector<std::atomic<uint32_t>> visits(16);
  for (size_t round = 0; round < 4000; ++round) {
    const size_t count = 1 + round % visits.size();
    pool.ParallelFor(0, count, [&](size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].exchange(0), i < count ? 1u : 0u)
          << "index " << i << " of " << count << " in round " << round;
    }
  }

  std::mutex mu;
  std::condition_variable all_in;
  for (size_t round = 0; round < 1000; ++round) {
    size_t arrived = 0;
    bool timed_out = false;
    pool.ParallelFor(0, kWorkers + 1, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == kWorkers + 1) all_in.notify_all();
      if (!all_in.wait_for(lock, std::chrono::seconds(10),
                           [&] { return arrived == kWorkers + 1; })) {
        timed_out = true;
      }
    });
    ASSERT_FALSE(timed_out) << "a worker missed round " << round;
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

// A thread pinned to one CPU may only use that CPU: the count follows
// the affinity mask, not the machine's CPU total.
TEST(ThreadPoolTest, DefaultThreadCountHonorsCpuAffinity) {
  size_t pinned_count = 0;
  int rc = -1;
  std::thread helper([&] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    size_t cpu = 0;
    while (cpu + 1 < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    rc = ::pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    pinned_count = ThreadPool::DefaultThreadCount();
  });
  helper.join();
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(pinned_count, 1u);
}

// -- Observability accessors (DESIGN.md §8): lock-free reads. --------

// queued_tasks()/active_workers() are relaxed atomic loads — readable
// from a monitoring thread without touching the queue mutex. While a
// worker is pinned inside a task, the books must show it.
TEST(ThreadPoolTest, QueueDepthAndActiveWorkersAreObservable) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queued_tasks(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);

  std::mutex gate;
  std::condition_variable cv;
  bool task_started = false;
  bool release_task = false;

  pool.Submit([&] {
    {
      std::lock_guard<std::mutex> lock(gate);
      task_started = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(gate);
    cv.wait(lock, [&] { return release_task; });
  });
  {
    std::unique_lock<std::mutex> lock(gate);
    cv.wait(lock, [&] { return task_started; });
  }
  // The single worker is blocked inside the task: it must read as
  // active, and a second submission must read as queued.
  EXPECT_EQ(pool.active_workers(), 1u);
  pool.Submit([] {});
  EXPECT_EQ(pool.queued_tasks(), 1u);

  {
    std::lock_guard<std::mutex> lock(gate);
    release_task = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(pool.queued_tasks(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
}

TEST(ThreadPoolTest, InlinePoolKeepsGaugesAtZero) {
  ThreadPool pool(0);
  pool.Submit([] {});  // Runs inline; never queued, never a worker.
  EXPECT_EQ(pool.queued_tasks(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
}

}  // namespace
}  // namespace ucr
