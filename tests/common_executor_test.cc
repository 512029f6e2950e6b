// Concurrency suite for the shared execution substrate: BoundedQueue under
// multi-producer/multi-consumer stress and close-while-blocked, the
// TryPushRef stash-retry contract the cooperative JobRunner relies on,
// WaitGroup, and the Executor pool itself. Meant to run under
// -DUBERRT_SANITIZE=thread and =address in addition to the plain build.

#include "common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "compute/job_runner.h"
#include "stream/broker.h"

namespace uberrt::common {
namespace {

TEST(BoundedQueueConcurrencyTest, MpmcStressDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  BoundedQueue<int> queue(8);  // small capacity: forces blocking both ways
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        std::optional<int> item = queue.Pop();
        if (!item.has_value()) return;  // closed and drained
        seen[static_cast<size_t>(*item)].fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();
  for (const std::atomic<int>& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(BoundedQueueConcurrencyTest, CloseReleasesProducersBlockedOnFullQueue) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(7));  // now full
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      if (!queue.Push(99)) rejected.fetch_add(1);  // blocks until Close
    });
  }
  SystemClock::Instance()->SleepMs(20);  // let them block
  queue.Close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(rejected.load(), 3);
  // The pre-close item still drains, then the closed queue reports empty.
  EXPECT_EQ(queue.Pop().value(), 7);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueConcurrencyTest, CloseReleasesConsumersBlockedOnEmptyQueue) {
  BoundedQueue<int> queue(4);
  std::atomic<int> woken{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      if (!queue.Pop().has_value()) woken.fetch_add(1);  // blocks until Close
    });
  }
  SystemClock::Instance()->SleepMs(20);
  queue.Close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(woken.load(), 3);
}

TEST(BoundedQueueTest, TryPushRefLeavesItemIntactOnFullAndClosed) {
  BoundedQueue<std::string> queue(1);
  std::string stashed = "stashed-payload";
  ASSERT_TRUE(queue.TryPushRef(stashed));  // success consumes the value
  stashed = "second";
  EXPECT_FALSE(queue.TryPushRef(stashed));  // full: value must survive
  EXPECT_EQ(stashed, "second");
  EXPECT_EQ(queue.Pop().value(), "stashed-payload");
  EXPECT_TRUE(queue.TryPushRef(stashed));
  EXPECT_EQ(queue.Pop().value(), "second");
  stashed = "after-close";
  queue.Close();
  EXPECT_FALSE(queue.TryPushRef(stashed));
  EXPECT_EQ(stashed, "after-close");
}

TEST(WaitGroupTest, WaitForTimesOutThenCompletes) {
  WaitGroup wg;
  wg.Add(2);
  EXPECT_FALSE(wg.WaitFor(std::chrono::milliseconds(10)));
  std::thread finisher([&] {
    wg.Done();
    wg.Done();
  });
  wg.Wait();
  finisher.join();
  EXPECT_TRUE(wg.WaitFor(std::chrono::milliseconds(0)));
}

TEST(ExecutorTest, RunsEveryAcceptedTaskOnItsOwnThreads) {
  ExecutorOptions options;
  options.num_threads = 2;
  options.name = "executor.test";
  Executor executor(options);
  ASSERT_EQ(executor.num_threads(), 2u);

  constexpr int kTasks = 500;
  std::atomic<int> ran{0};
  std::mutex mu;
  std::set<std::thread::id> task_threads;
  const std::thread::id submitter = std::this_thread::get_id();
  WaitGroup wg;
  for (int i = 0; i < kTasks; ++i) {
    wg.Add(1);
    ASSERT_TRUE(executor.Submit([&] {
      ran.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu);
        task_threads.insert(std::this_thread::get_id());
      }
      wg.Done();
    }));
  }
  wg.Wait();
  EXPECT_EQ(ran.load(), kTasks);
  // Every task ran on a pool thread — never inline on the submitter — and
  // the pool used no more OS threads than configured.
  EXPECT_LE(task_threads.size(), 2u);
  EXPECT_EQ(task_threads.count(submitter), 0u);

  executor.Shutdown();
  EXPECT_EQ(executor.metrics().GetCounter("executor.test.tasks_submitted")->value(),
            kTasks);
  EXPECT_EQ(executor.metrics().GetCounter("executor.test.tasks_completed")->value(),
            kTasks);
  EXPECT_GT(executor.metrics().GetHistogram("executor.test.task_run_us")->Count(), 0);
}

TEST(ExecutorTest, SubmitAfterShutdownFailsAndShutdownIsIdempotent) {
  Executor executor(ExecutorOptions{2, "executor.test"});
  executor.Shutdown();
  EXPECT_FALSE(executor.Submit([] {}));
  executor.Shutdown();  // second call must be a no-op
  EXPECT_EQ(executor.QueueDepth(), 0u);
}

TEST(ExecutorTest, ConcurrentSubmittersRaceShutdownWithoutLosingAcceptedTasks) {
  Executor executor(ExecutorOptions{3, "executor.test"});
  std::atomic<bool> stop{false};
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> executed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        if (executor.Submit([&executed] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  SystemClock::Instance()->SleepMs(30);
  executor.Shutdown();  // races in-flight Submit calls; queue still drains
  stop.store(true);
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_GT(executed.load(), 0);
}

TEST(ExecutorTest, ConcurrentShutdownCallsAreSafe) {
  auto executor = std::make_unique<Executor>(ExecutorOptions{2, "executor.test"});
  for (int i = 0; i < 64; ++i) {
    executor->Submit([] { SystemClock::Instance()->SleepMs(1); });
  }
  std::vector<std::thread> closers;
  for (int c = 0; c < 3; ++c) {
    closers.emplace_back([&] { executor->Shutdown(); });
  }
  for (std::thread& t : closers) t.join();
}

// The ISSUE's thread-count acceptance check: a wide job (parallelism 4 ->
// 4 source + 16 operator instance loops under the old thread-per-instance
// runner) must run entirely on a 2-thread shared pool. Sink records which
// threads execute operator work; the set must be within the pool.
TEST(ExecutorTest, WideJobRunsBoundedByTwoThreadSharedPool) {
  stream::Broker broker("c1");
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("trips", topic).ok());
  RowSchema schema({{"hex", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  for (int i = 0; i < 200; ++i) {
    stream::Message m;
    m.key = "hex" + std::to_string(i % 7);
    m.value = EncodeRow({Value(m.key), Value(1.0 * i), Value(int64_t{1000} + i)});
    m.timestamp = 1000 + i;
    ASSERT_TRUE(broker.Produce("trips", std::move(m)).ok());
  }

  Executor pool(ExecutorOptions{2, "executor.test"});
  std::mutex mu;
  std::set<std::thread::id> sink_threads;
  std::atomic<int64_t> rows{0};
  compute::JobGraph graph("wide");
  compute::SourceSpec source;
  source.topic = "trips";
  source.schema = schema;
  source.time_field = "ts";
  graph.AddSource(source)
      .Map(
          "ident", [](const Row& r) { return r; }, schema)
      .SinkToCollector([&](const Row&, TimestampMs) {
        rows.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        sink_threads.insert(std::this_thread::get_id());
      });

  compute::JobRunnerOptions options;
  options.executor = &pool;
  storage::InMemoryObjectStore store;
  compute::JobRunner runner(graph.WithParallelism(4), &broker, &store, options);
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(rows.load(), 200);
  EXPECT_LE(sink_threads.size(), 2u);
  EXPECT_EQ(pool.num_threads(), 2u);
}

}  // namespace
}  // namespace uberrt::common
