// Multi-region disaster recovery (paper Section 6): the active/active and
// active/passive strategies side by side on one two-region topology, with a
// simulated regional outage in the middle.

#include <cstdio>
#include <set>

#include "allactive/coordinator.h"
#include "allactive/topology.h"
#include "stream/message.h"

using namespace uberrt;

int main() {
  allactive::MultiRegionTopology topology({"dca", "phx"});
  stream::TopicConfig config;
  config.num_partitions = 4;
  topology.CreateTopic("trips", config).ok();
  allactive::AllActiveCoordinator coordinator(&topology);
  coordinator.RegisterService("surge", "dca").ok();

  // Both regions take local writes; uReplicator fans them into every
  // aggregate cluster with offset-mapping checkpoints.
  for (int i = 0; i < 1'000; ++i) {
    stream::Message m;
    m.key = "trip" + std::to_string(i);
    m.value = "event-" + std::to_string(i);
    m.timestamp = 1 + i;
    topology.ProduceToRegion(i % 2 ? "dca" : "phx", "trips", std::move(m)).ok();
  }
  topology.ReplicateAll().ok();
  std::printf("produced 1000 events across 2 regions; aggregates converged\n");

  // Active/passive consumer (a payments-style service) in dca.
  allactive::ActivePassiveConsumer payments(&topology, "payments", "trips", "dca");
  std::set<std::string> seen;
  while (seen.size() < 400) {
    auto batch = payments.PollViews(50);
    if (!batch.ok() || batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      seen.emplace(m.value);
    }
  }
  std::printf("payments consumed %zu events in dca (committed)\n", seen.size());

  // Disaster: dca goes dark.
  topology.GetRegion("dca")->Fail();
  std::printf("\n*** dca region failure ***\n");

  // Active/active: the coordinator elects a new primary instantly.
  std::string new_primary = coordinator.Failover("surge").value();
  std::printf("active/active:  surge primary -> %s (pricing continues from the "
              "redundant pipeline)\n",
              new_primary.c_str());

  // Active/passive: offset sync translates progress; consumption resumes.
  payments.FailoverTo("phx").ok();
  int64_t duplicates = 0;
  while (true) {
    auto batch = payments.PollViews(100);
    if (!batch.ok() || batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      if (!seen.emplace(m.value).second) ++duplicates;
    }
  }
  std::printf("active/passive: payments resumed in %s — %zu/1000 events seen, "
              "0 lost, %lld replayed (bounded by the checkpoint gap)\n",
              payments.current_region().c_str(), seen.size(),
              static_cast<long long>(duplicates));
  return seen.size() == 1000 ? 0 : 1;
}
