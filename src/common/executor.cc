#include "common/executor.h"

#include <algorithm>
#include <utility>

namespace uberrt {
namespace common {

namespace {
size_t ResolveThreadCount(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(8, hw);
}
}  // namespace

Executor::Executor(ExecutorOptions options)
    : queue_depth_(metrics_.GetGauge(options.name + ".queue_depth")),
      tasks_submitted_(metrics_.GetCounter(options.name + ".tasks_submitted")),
      tasks_completed_(metrics_.GetCounter(options.name + ".tasks_completed")),
      task_wait_us_(metrics_.GetHistogram(options.name + ".task_wait_us")),
      task_run_us_(metrics_.GetHistogram(options.name + ".task_run_us")) {
  size_t n = ResolveThreadCount(options.num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Shutdown(); }

bool Executor::Submit(Task task) {
  if (shutdown_.load(std::memory_order_acquire)) return false;
  Envelope env{std::move(task), std::chrono::steady_clock::now()};
  if (!queue_.Push(std::move(env))) return false;  // closed under our feet
  tasks_submitted_->Increment();
  queue_depth_->Set(static_cast<int64_t>(queue_.Size()));
  return true;
}

void Executor::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  queue_.Close();
  std::lock_guard<std::mutex> lock(join_mu_);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Executor::WorkerLoop() {
  while (true) {
    std::optional<Envelope> env = queue_.Pop();
    if (!env) return;  // closed and drained
    auto start = std::chrono::steady_clock::now();
    task_wait_us_->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                              env->submitted)
            .count());
    env->task();
    task_run_us_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    tasks_completed_->Increment();
  }
}

void Executor::RunTaskGroup(Executor* executor, size_t count,
                            const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (executor == nullptr || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  WaitGroup wg;
  for (size_t i = 0; i < count; ++i) {
    wg.Add();
    if (!executor->Submit([&fn, &wg, i] {
          fn(i);
          wg.Done();
        })) {
      fn(i);  // pool already shut down: degrade to inline
      wg.Done();
    }
  }
  wg.Wait();
}

}  // namespace common
}  // namespace uberrt
