// F4 — Section 4.1.3 / Figure 4: the consumer proxy's push-based dispatch
// "can greatly improve the consumption throughput by enabling higher
// parallelism for slow consumers", lifting Kafka's
// consumers <= partitions cap.
//
// A slow endpoint (2 ms of work per message) consumes a 4-partition topic:
//  - poll mode: one consumer thread per group member, capped at 4;
//  - push mode: the proxy's worker pool at 4/8/16/32 workers.

#include <atomic>
#include <thread>

#include "bench_util.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/consumer_proxy.h"

namespace uberrt {
namespace {

constexpr int kPartitions = 4;
constexpr int kMessages = 1'200;
constexpr int kEndpointMs = 2;

void Produce(stream::Broker* broker) {
  for (int i = 0; i < kMessages; ++i) {
    stream::Message m;
    m.key = "k" + std::to_string(i);
    m.value = "v";
    m.timestamp = 1;
    broker->Produce("t", std::move(m)).ok();
  }
}

/// Classic consumer-group polling: `consumers` member threads, each
/// processing its assigned partitions inline. Returns msgs/sec.
double PollThroughput(int consumers) {
  stream::Broker broker("c");
  stream::TopicConfig config;
  config.num_partitions = kPartitions;
  broker.CreateTopic("t", config).ok();
  Produce(&broker);
  std::atomic<int64_t> done{0};
  int64_t us = bench::TimeUs([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&, c] {
        stream::Consumer consumer(&broker, "g", "t", "m" + std::to_string(c));
        if (!consumer.Subscribe().ok()) return;
        while (done.load() < kMessages) {
          auto batch = consumer.PollViews(64);
          if (!batch.ok() || batch.value().empty()) {
            if (broker.ConsumerLag("g", "t").value() == 0) break;
            continue;
          }
          for (size_t i = 0; i < batch.value().size(); ++i) {
            SystemClock::Instance()->SleepMs(kEndpointMs);  // slow endpoint
            done.fetch_add(1);
          }
          consumer.Commit().ok();
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  return kMessages * 1e6 / static_cast<double>(us);
}

double PushThroughput(int workers) {
  stream::Broker broker("c");
  stream::TopicConfig config;
  config.num_partitions = kPartitions;
  broker.CreateTopic("t", config).ok();
  Produce(&broker);
  stream::ConsumerProxyOptions options;
  options.num_workers = workers;
  stream::ConsumerProxy proxy(&broker, "t", "g",
                              [&](const stream::Message&) {
                                SystemClock::Instance()->SleepMs(kEndpointMs);
                                return Status::Ok();
                              },
                              options);
  int64_t us = bench::TimeUs([&] {
    proxy.Start().ok();
    proxy.WaitUntilCaughtUp().ok();
  });
  proxy.Stop();
  return kMessages * 1e6 / static_cast<double>(us);
}

}  // namespace

int Main() {
  bench::Header("F4", "consumer proxy: push dispatch vs polling consumers",
                "push-based dispatching greatly improves throughput for slow "
                "consumers beyond the partition-count cap");
  std::printf("topic: %d partitions, endpoint %d ms/message, %d messages\n\n",
              kPartitions, kEndpointMs, kMessages);
  std::printf("%-28s %14s\n", "mode", "msgs/sec");
  for (int consumers : {1, 2, 4}) {
    std::printf("poll  consumers=%-13d %14.0f\n", consumers, PollThroughput(consumers));
  }
  std::printf("poll  consumers=8 -> capped at %d (group size <= partitions)\n",
              kPartitions);
  for (int workers : {4, 8, 16, 32}) {
    std::printf("push  workers=%-15d %14.0f\n", workers, PushThroughput(workers));
  }
  bench::Note("poll parallelism saturates at the partition count; push keeps "
              "scaling with workers (Figure 4's dispatch pool)");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
