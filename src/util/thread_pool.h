#ifndef UCR_UTIL_THREAD_POOL_H_
#define UCR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ucr {

/// \brief A fixed-size thread pool — the execution substrate of the
/// parallel query-evaluation layer (batch resolution, parallel
/// effective-matrix materialization, throughput benchmarks).
///
/// Deliberately minimal: one shared FIFO queue, no work stealing, no
/// priorities, no task futures. The workloads it exists for (batches
/// of independent queries, independent matrix columns) are
/// embarrassingly parallel and chunk-balanced by `ParallelFor`'s
/// dynamic index counter, so a fancier scheduler buys nothing.
///
/// Thread-safety: `Submit`, `Wait`, and `ParallelFor` may be called
/// from any thread, but `ParallelFor` is not reentrant (a task must
/// not start a nested `ParallelFor` on the same pool — it would
/// deadlock waiting for workers that are busy running it).
class ThreadPool {
 public:
  /// Starts `thread_count` workers. 0 is allowed and means "no
  /// workers": every `ParallelFor` runs inline on the caller, which
  /// keeps call sites free of special cases.
  explicit ThreadPool(size_t thread_count);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  size_t thread_count() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Tasks submitted but not yet popped by a worker. Lock-free read
  /// (a relaxed atomic maintained alongside the queue), so monitoring
  /// never contends with the dispatch path.
  size_t queued_tasks() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Workers currently executing a task. Lock-free read, same design.
  size_t active_workers() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// \brief Runs `body(i)` for every i in [begin, end), distributing
  /// indices dynamically over the workers *and* the calling thread,
  /// and returns when all indices are done.
  ///
  /// Iterations must be independent and must not throw; they may run
  /// in any order and on any thread. With no workers (or a single
  /// index) the loop runs inline, bit-identically to a serial loop.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  /// CPUs in the calling thread's affinity mask (`sched_getaffinity`);
  /// `hardware_concurrency` if that fails, with a floor of 1 (the
  /// standard permits 0).
  static size_t DefaultThreadCount();

  /// Caps a requested executor count at the hardware concurrency:
  /// oversubscribing physical cores with CPU-bound query evaluation
  /// only adds context-switch overhead (measured in
  /// BENCH_throughput_parallel.json on a 1-CPU host). 0 stays 0
  /// ("inline", no workers).
  static size_t ClampToHardware(size_t threads) {
    const size_t hw = DefaultThreadCount();
    return threads < hw ? threads : hw;
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  ///< Tasks popped but not yet finished.
  bool stopping_ = false;

  /// Mirrors of queue depth / busy workers, readable without the
  /// mutex; also published as registry gauges (DESIGN.md §8).
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> active_{0};
};

}  // namespace ucr

#endif  // UCR_UTIL_THREAD_POOL_H_
