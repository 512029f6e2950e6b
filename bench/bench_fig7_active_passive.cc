// F7 — Figure 7 / Section 6: active/passive consumption with offset sync.
// Consistency-first services (payments, auditing) consume the aggregate
// cluster of one region only; uReplicator checkpoints source->destination
// offset mappings into an all-active store, and the offset sync job
// translates the consumer's committed progress so a failover resumes with
// zero loss and a bounded replay window.

#include <set>

#include "allactive/coordinator.h"
#include "allactive/topology.h"
#include "bench_util.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("F7", "active/passive consumer failover via offset sync",
                "neither resume from the high watermark (loss) nor the low "
                "watermark (backlog): resume from the synced offset");
  allactive::MultiRegionTopology topology({"dca", "phx"});
  stream::TopicConfig config;
  config.num_partitions = 4;
  topology.CreateTopic("payments", config).ok();

  constexpr int64_t kMessages = 4'000;
  for (int64_t i = 0; i < kMessages; ++i) {
    stream::Message m;
    m.key = "k" + std::to_string(i % 97);
    m.value = "payment-" + std::to_string(i);
    m.timestamp = 1 + i;
    m.headers[stream::kHeaderUid] = m.value;
    topology.ProduceToRegion(i % 2 == 0 ? "dca" : "phx", "payments", std::move(m)).ok();
  }
  topology.ReplicateAll().ok();

  allactive::ActivePassiveConsumer consumer(&topology, "payments-svc", "payments",
                                            "dca");
  std::set<std::string> seen;
  while (static_cast<int64_t>(seen.size()) < kMessages / 2) {
    auto batch = consumer.PollViews(100);
    if (!batch.ok() || batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      seen.emplace(m.value);
    }
  }
  int64_t before = static_cast<int64_t>(seen.size());
  std::printf("consumed %lld/%lld in dca, committed\n",
              static_cast<long long>(before), static_cast<long long>(kMessages));

  topology.GetRegion("dca")->Fail();
  consumer.FailoverTo("phx").ok();
  std::printf("dca down -> failover to %s via offset sync\n",
              consumer.current_region().c_str());

  int64_t duplicates = 0;
  while (true) {
    auto batch = consumer.PollViews(200);
    if (!batch.ok() || batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      if (!seen.emplace(m.value).second) ++duplicates;
    }
  }
  int64_t lost = kMessages - static_cast<int64_t>(seen.size());
  std::printf("\n%-34s %10s %10s\n", "strategy", "lost", "replayed");
  std::printf("%-34s %10lld %10lld\n", "offset sync (Figure 7)",
              static_cast<long long>(lost), static_cast<long long>(duplicates));
  std::printf("%-34s %10lld %10s\n", "resume from high watermark",
              static_cast<long long>(kMessages - before), "0");
  std::printf("%-34s %10s %10lld\n", "resume from low watermark", "0",
              static_cast<long long>(before));
  bench::Note("zero loss with a bounded replay window (the gap since the last "
              "offset-mapping checkpoint), vs losing the unconsumed half or "
              "replaying everything");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
