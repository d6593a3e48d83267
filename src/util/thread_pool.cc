#include "util/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace ucr {

namespace {

/// Process-wide pool telemetry, summed over every live pool: gauges
/// track instantaneous queue depth and busy workers, the counter
/// totals executed tasks. Registered once; updates are relaxed
/// atomics, so the dispatch path stays as cheap as before.
struct PoolMetrics {
  obs::Gauge& queued = obs::Registry::Global().GetGauge(
      "ucr_threadpool_queued_tasks",
      "Tasks submitted to thread pools and not yet started");
  obs::Gauge& active = obs::Registry::Global().GetGauge(
      "ucr_threadpool_active_workers",
      "Pool workers currently executing a task");
  obs::Counter& tasks = obs::Registry::Global().GetCounter(
      "ucr_threadpool_tasks_total", "Tasks executed by pool workers");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

}  // namespace

ThreadPool::ThreadPool(size_t thread_count) {
  workers_.reserve(thread_count);
  for (size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline pool: run now; nothing for Wait() to wait on.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) Metrics().queued.Add(1);
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      Metrics().queued.Sub(1);
      Metrics().active.Add(1);
    }
    task();
    active_.fetch_sub(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) {
      Metrics().active.Sub(1);
      Metrics().tasks.Inc();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  const size_t count = end - begin;
  if (workers_.empty() || count == 1) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Dynamic scheduling: workers and the caller race on one shared
  // index counter, so an expensive iteration never strands cheap ones
  // behind it. The completion latch is per-call, making concurrent
  // Submit() traffic on the same pool harmless.
  struct LoopState {
    std::atomic<size_t> next;
    std::mutex mu;
    std::condition_variable done;
    size_t pending;
    explicit LoopState(size_t start, size_t fanout)
        : next(start), pending(fanout) {}
  };
  const size_t fanout = workers_.size() < count ? workers_.size() : count;
  auto state = std::make_shared<LoopState>(begin, fanout);

  const auto drain = [state, end, &body] {
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < end; i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const auto task = [state, end, body] {  // Copies body: it may outlive
                                          // the caller's frame only via
                                          // these tasks.
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < end; i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (--state->pending == 0) state->done.notify_all();
  };
  // All of the loop's tasks go in under one lock with one wake-up, so
  // every idle worker starts at once instead of one per notify.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 0; t < fanout; ++t) queue_.emplace_back(task);
  }
  queued_.fetch_add(fanout, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    Metrics().queued.Add(static_cast<int64_t>(fanout));
  }
  work_ready_.notify_all();
  drain();  // The caller participates instead of blocking idle.
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&state] { return state->pending == 0; });
}

size_t ThreadPool::DefaultThreadCount() {
  // The CPUs this thread may run on: a process pinned with taskset (or
  // a container's cpuset) gets fewer than the machine has.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (::sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    const int usable = CPU_COUNT(&cpus);
    if (usable > 0) return static_cast<size_t>(usable);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace ucr
