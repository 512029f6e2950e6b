#ifndef UBERRT_COMMON_EXECUTOR_H_
#define UBERRT_COMMON_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"

namespace uberrt {
namespace common {

/// Completion latch for a batch of executor tasks: scatter with Add/Submit,
/// gather with Wait. Counts may go up and down concurrently; Wait returns
/// once the count reaches zero.
class WaitGroup {
 public:
  void Add(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ <= 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ <= 0; });
  }

  /// Returns true when the count hit zero within the timeout.
  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t count_ = 0;
};

struct ExecutorOptions {
  /// 0 -> max(8, hardware_concurrency). Oversubscribed on purpose: pool
  /// tasks across the platform may sleep (proxy endpoints, idle sources),
  /// so the pool needs headroom beyond core count for liveness.
  size_t num_threads = 0;
  /// Metric name prefix, e.g. "executor.platform".
  std::string name = "executor";
};

/// Fixed-size thread pool over an unbounded BoundedQueue: submission must
/// never block the platform's hot paths. One instance is shared by the
/// whole platform (olap scatter-gather, compute instance loops, proxy
/// dispatch), so total OS-thread count is a config knob rather than a
/// function of job width (DESIGN.md §2, paper §4.3).
///
/// Metrics (resolved once at construction, hot path touches no registry):
///   <name>.queue_depth        gauge, sampled at submit
///   <name>.tasks_submitted    counter
///   <name>.tasks_completed    counter
///   <name>.task_wait_us       histogram, submit -> start of execution
///   <name>.task_run_us        histogram, execution time
class Executor {
 public:
  using Task = std::function<void()>;

  explicit Executor(ExecutorOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a task. Returns false after Shutdown (task is dropped).
  bool Submit(Task task);

  /// Stops accepting tasks, drains the queue, joins all threads. Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }
  size_t QueueDepth() const { return queue_.Size(); }
  MetricsRegistry& metrics() { return metrics_; }

  /// Runs `count` indexed tasks as one gathered batch (a morsel task
  /// group): each index is submitted to `executor` and the call blocks
  /// until all have finished. With a null executor, a single task, or a
  /// pool that is already shut down, tasks run inline on the caller — the
  /// serial path and the degraded path are the same code. `fn` must be
  /// safe to call concurrently for distinct indices.
  static void RunTaskGroup(Executor* executor, size_t count,
                           const std::function<void(size_t)>& fn);

 private:
  struct Envelope {
    Task task;
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop();

  MetricsRegistry metrics_;
  BoundedQueue<Envelope> queue_;
  std::vector<std::thread> threads_;
  std::mutex join_mu_;  // serializes concurrent Shutdown calls
  std::atomic<bool> shutdown_{false};

  Gauge* queue_depth_;
  Counter* tasks_submitted_;
  Counter* tasks_completed_;
  Histogram* task_wait_us_;
  Histogram* task_run_us_;
};

}  // namespace common
}  // namespace uberrt

#endif  // UBERRT_COMMON_EXECUTOR_H_
