// C7 — Section 4.3.4: peer-to-peer segment recovery. The original
// synchronous, controller-mediated backup made any segment-store failure
// halt all ingestion and hurt freshness; Uber's async peer-to-peer scheme
// keeps ingesting through outages and recovers replicas from peers.

#include "bench_util.h"
#include "common/fault_injector.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "workload/generators.h"

namespace uberrt {
namespace {

struct OutageResult {
  int64_t ingested_during_outage = 0;
  int64_t lag_after_outage = 0;
  int64_t archived_after_recovery = 0;
};

OutageResult RunOutage(olap::ArchivalMode mode) {
  stream::Broker broker("c1");
  common::FaultInjector faults;
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  broker.CreateTopic("trips", topic).ok();
  olap::OlapCluster cluster(&broker, &store);
  olap::TableConfig table;
  table.name = "trips_t";
  table.schema = workload::TripEventGenerator::Schema();
  table.segment_rows_threshold = 500;
  olap::ClusterTableOptions options;
  options.archival_mode = mode;
  cluster.CreateTable(table, "trips", options).ok();
  workload::TripEventGenerator generator({});

  // Warm-up: some data with the store healthy.
  generator.Produce(&broker, "trips", 2'000).ok();
  cluster.IngestAll("trips_t").ok();
  cluster.DrainArchivalQueue("trips_t").ok();

  // Outage: the archival store goes down while data keeps arriving.
  faults.SetDown("store", true);
  generator.Produce(&broker, "trips", 10'000).ok();
  int64_t before = cluster.NumRows("trips_t").value();
  for (int i = 0; i < 40; ++i) cluster.IngestOnce("trips_t").ok();
  OutageResult result;
  result.ingested_during_outage = cluster.NumRows("trips_t").value() - before;
  result.lag_after_outage = cluster.IngestLag("trips_t").value();

  // Store returns; everything archives eventually in both modes.
  faults.SetDown("store", false);
  cluster.IngestAll("trips_t").ok();
  cluster.DrainArchivalQueue("trips_t").ok();
  result.archived_after_recovery =
      static_cast<int64_t>(store.List("segments/trips_t/").size());
  return result;
}

// MTTR under a flapping store: after a server dies at t=1000 on a simulated
// clock, how long until the first query returns complete results again?
// Peer-to-peer recovery pulls replicas from live servers immediately; the
// store-only path has to wait out the outage windows of the flap schedule.
int64_t MeasureRecoveryMttrMs(bool peer_to_peer) {
  SimulatedClock clock(0);
  common::FaultInjector faults(42, &clock);
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  broker.CreateTopic("trips", topic).ok();
  olap::OlapCluster cluster(&broker, &store);
  cluster.SetFaultInjector(&faults);
  olap::TableConfig table;
  table.name = "trips_t";
  table.schema = workload::TripEventGenerator::Schema();
  table.segment_rows_threshold = 500;
  olap::ClusterTableOptions options;
  if (peer_to_peer) {
    options.archival_mode = olap::ArchivalMode::kAsyncPeerToPeer;
    options.replication_factor = 2;
  } else {
    options.archival_mode = olap::ArchivalMode::kSyncCentralized;
  }
  cluster.CreateTable(table, "trips", options).ok();

  // Warm-up while the store is healthy: every segment seals and archives.
  workload::TripEventGenerator generator({});
  generator.Produce(&broker, "trips", 2'000).ok();
  cluster.IngestAll("trips_t").ok();
  cluster.DrainArchivalQueue("trips_t").ok();
  const int64_t expected = cluster.NumRows("trips_t").value();

  // The flap schedule: from t=1000 the store is down 400ms out of every 500.
  for (int k = 0; k < 40; ++k) {
    faults.ScheduleOutage("store", 1000 + k * 500, 1000 + k * 500 + 400);
  }

  clock.SetMs(1000);
  cluster.KillServer("trips_t", 0).ok();
  while (true) {
    cluster.RecoverServer("trips_t", 0).ok();  // store may be mid-flap: partial
    olap::OlapQuery query;
    query.aggregations = {olap::OlapAggregation::Count("n")};
    Result<olap::OlapResult> result = cluster.Query("trips_t", query);
    if (result.ok() && result.value().rows[0][0].AsInt() == expected) {
      return clock.NowMs() - 1000;
    }
    clock.AdvanceMs(50);
  }
}

}  // namespace

int Main() {
  bench::Header("C7", "segment archival: sync centralized vs async peer-to-peer",
                "segment store failures caused all data ingestion to come to a "
                "halt; the p2p scheme keeps the same guarantees without the "
                "bottleneck");
  std::printf("%-24s %22s %18s %18s\n", "mode", "ingested_during_outage",
              "lag_after_outage", "segments_archived");
  OutageResult sync = RunOutage(olap::ArchivalMode::kSyncCentralized);
  OutageResult p2p = RunOutage(olap::ArchivalMode::kAsyncPeerToPeer);
  std::printf("%-24s %22lld %18lld %18lld\n", "sync_centralized",
              static_cast<long long>(sync.ingested_during_outage),
              static_cast<long long>(sync.lag_after_outage),
              static_cast<long long>(sync.archived_after_recovery));
  std::printf("%-24s %22lld %18lld %18lld\n", "async_peer_to_peer",
              static_cast<long long>(p2p.ingested_during_outage),
              static_cast<long long>(p2p.lag_after_outage),
              static_cast<long long>(p2p.archived_after_recovery));

  // Server-loss recovery with the store still down: only peers can serve.
  std::printf("\nserver loss during store outage (p2p replicas, RF=2):\n");
  stream::Broker broker("c1");
  common::FaultInjector faults;
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  broker.CreateTopic("trips", topic).ok();
  olap::OlapCluster cluster(&broker, &store);
  olap::TableConfig table;
  table.name = "trips_t";
  table.schema = workload::TripEventGenerator::Schema();
  table.segment_rows_threshold = 500;
  cluster.CreateTable(table, "trips").ok();
  workload::TripEventGenerator generator({});
  generator.Produce(&broker, "trips", 8'000).ok();
  cluster.IngestAll("trips_t").ok();
  int64_t rows = cluster.NumRows("trips_t").value();
  faults.SetDown("store", true);
  cluster.KillServer("trips_t", 0).ok();
  int64_t after_kill = cluster.NumRows("trips_t").value();
  olap::RecoveryReport report = cluster.RecoverServer("trips_t", 0).value();
  std::printf("  rows: %lld -> %lld after kill -> %lld after peer recovery\n",
              static_cast<long long>(rows), static_cast<long long>(after_kill),
              static_cast<long long>(cluster.NumRows("trips_t").value()));
  std::printf("  segments from peers: %lld, from store: %lld, lost: %lld\n",
              static_cast<long long>(report.segments_from_peers),
              static_cast<long long>(report.segments_from_store),
              static_cast<long long>(report.segments_lost));

  // MTTR: time-to-first-complete-query after server loss under a flapping
  // store (simulated clock; store down 400ms of every 500ms).
  std::printf("\nMTTR after server loss under a flapping store:\n");
  int64_t mttr_peer = MeasureRecoveryMttrMs(/*peer_to_peer=*/true);
  int64_t mttr_store_only = MeasureRecoveryMttrMs(/*peer_to_peer=*/false);
  std::printf("  peer_to_peer (RF=2):   %6lld ms\n",
              static_cast<long long>(mttr_peer));
  std::printf("  store_only (sync):     %6lld ms\n",
              static_cast<long long>(mttr_store_only));
  bench::JsonReport json("c7_recovery",
                         "p2p segment recovery restores service without waiting "
                         "out store outages; store-only recovery MTTR tracks the "
                         "outage windows");
  json.Metric("mttr_ms_peer", static_cast<double>(mttr_peer));
  json.Metric("mttr_ms_store_only", static_cast<double>(mttr_store_only));
  json.Metric("flap_down_ms_per_500ms", 400.0);
  json.Write();
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
