// End-to-end chaos soak: every layer runs against the process-wide
// FaultInjector while the test asserts the system's core durability
// invariants hold. Deterministic per seed; select a seed with
//   UBERRT_CHAOS_SEED=<n> ./chaos_soak_test
// (default 42). CI runs it under TSan with two fixed seeds.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "allactive/coordinator.h"
#include "allactive/drill.h"
#include "allactive/topology.h"
#include "common/fault_injector.h"
#include "common/retry.h"
#include "compute/job_manager.h"
#include "olap/cluster.h"
#include "stream/broker.h"

namespace uberrt {
namespace {

using common::FaultInjector;
using common::FaultRule;
using common::RetryOptions;
using common::RetryPolicy;

uint64_t ChaosSeed() {
  const char* env = std::getenv("UBERRT_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return std::strtoull(env, nullptr, 10);
}

// --- Scenario A: stream layer --------------------------------------------
// Probabilistic produce and fetch faults. Invariant: acked-or-error — every
// produce the retry loop acked is consumable, and nothing unacked was stored.
TEST(ChaosSoakTest, NoAckedMessageLostUnderBrokerFaults) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FaultInjector faults(seed);
  stream::Broker broker("chaos");
  broker.SetFaultInjector(&faults);
  stream::TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());

  FaultRule flaky;
  flaky.error_probability = 0.3;
  faults.SetRule("broker.produce.chaos", flaky);
  faults.SetRule("broker.fetch.chaos", flaky);

  RetryOptions retry_options;
  retry_options.max_attempts = 4;
  MetricsRegistry retry_metrics;
  RetryPolicy produce_retry("soak.produce", retry_options, SystemClock::Instance(),
                            &retry_metrics, seed);
  std::set<std::string> acked;
  for (int i = 0; i < 500; ++i) {
    const std::string uid = "m-" + std::to_string(i);
    stream::Message message;
    message.key = uid;
    message.value = uid;
    message.timestamp = 1000 + i;
    Status produced =
        produce_retry.Run([&] { return broker.Produce("events", message).status(); });
    if (produced.ok()) acked.insert(uid);
  }
  // The fault plane really fired, and the retry loop really absorbed hits.
  EXPECT_GT(faults.metrics()->GetCounter("faults.injected")->value(), 0);
  EXPECT_GT(retry_metrics.GetCounter("retries.soak.produce.retries")->value(), 0);
  EXPECT_GT(retry_metrics.GetCounter("retries.soak.produce.success")->value(), 0);
  ASSERT_GT(acked.size(), 0u);

  // Drain through the faulty fetch path.
  RetryPolicy fetch_retry("soak.fetch", retry_options, SystemClock::Instance(),
                          &retry_metrics, seed);
  std::set<std::string> stored;
  for (int32_t p = 0; p < 4; ++p) {
    int64_t offset = 0;
    const int64_t end = broker.EndOffset("events", p).value();
    while (offset < end) {
      Result<stream::FetchedBatch> batch =
          fetch_retry.RunResult<stream::FetchedBatch>(
              [&] { return broker.FetchViews("events", p, offset, 64); });
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      for (const stream::wire::MessageView& m : batch.value().messages) {
        stored.emplace(m.value);
      }
      offset += static_cast<int64_t>(batch.value().size());
    }
  }
  // Acked-or-error: the stored set is exactly the acked set. An injected
  // produce fault fires before the append, so an error never hides a write.
  EXPECT_EQ(stored, acked);
}

// --- Scenario B: OLAP layer ----------------------------------------------
// Server churn + store flaps + per-server query faults. Invariant: every
// query that returns Ok returns exact counts; recovery loses no segments;
// archival pressure is observable in olap.backup_retries.
TEST(ChaosSoakTest, OlapStaysCorrectUnderServerChurnAndStoreFlaps) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FaultInjector faults(seed + 1);  // independent stream of randomness
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  olap::OlapCluster cluster(&broker, &store);
  cluster.SetFaultInjector(&faults);

  stream::TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("rides", config).ok());
  olap::TableConfig table;
  table.name = "rides_t";
  table.schema = RowSchema({{"ride_id", ValueType::kInt},
                            {"city", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"ts", ValueType::kInt}});
  table.time_column = "ts";
  table.segment_rows_threshold = 50;
  olap::ClusterTableOptions cluster_options;
  cluster_options.archival_mode = olap::ArchivalMode::kAsyncPeerToPeer;
  cluster_options.replication_factor = 2;
  ASSERT_TRUE(cluster.CreateTable(table, "rides", cluster_options).ok());

  FaultRule flaky_store;
  flaky_store.error_probability = 0.4;
  faults.SetRule("store.put", flaky_store);
  FaultRule flaky_server;
  flaky_server.error_probability = 0.25;
  faults.SetRule("olap.server.query", flaky_server);

  auto exact_count = [&]() -> int64_t {
    olap::OlapQuery query;
    query.aggregations = {olap::OlapAggregation::Count("n")};
    // The cluster retries per-server sub-queries internally; one outer
    // bounded loop absorbs the rare fully-exhausted case.
    for (int tries = 0; tries < 50; ++tries) {
      Result<olap::OlapResult> result = cluster.Query("rides_t", query);
      if (result.ok()) return result.value().rows[0][0].AsInt();
    }
    return -1;
  };

  int64_t produced = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 100; ++i) {
      stream::Message m;
      m.key = "k" + std::to_string(i % 4);
      m.value = EncodeRow({Value(produced), Value(std::string("sf")),
                           Value(10.0 + i), Value(int64_t{1000})});
      m.timestamp = 1000;
      ASSERT_TRUE(broker.Produce("rides", std::move(m)).ok());
      ++produced;
    }
    ASSERT_TRUE(cluster.IngestAll("rides_t").ok());
    cluster.DrainArchivalQueue("rides_t").ok();  // flap pressure; may not drain

    // Exactness survives every round of faults.
    ASSERT_EQ(exact_count(), produced) << "round " << round;

    // Kill a server while the store is hard-down: only peers can rebuild it.
    const int32_t victim = round % 2;
    faults.SetDown("store", true);
    ASSERT_TRUE(cluster.KillServer("rides_t", victim).ok());
    Result<olap::RecoveryReport> report = cluster.RecoverServer("rides_t", victim);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().segments_lost, 0) << "round " << round;
    faults.SetDown("store", false);
    ASSERT_EQ(exact_count(), produced) << "post-recovery round " << round;
  }

  // Retry/fault activity was real and observable.
  EXPECT_GT(cluster.metrics()->GetCounter("olap.backup_retries")->value(), 0);
  EXPECT_GT(cluster.metrics()->GetCounter("retries.olap.query.attempts")->value(), 0);
  EXPECT_GT(faults.metrics()->GetCounter("faults.injected")->value(), 0);

  // Store heals: the archival queue fully drains, nothing was dropped.
  faults.ClearRule("store.put");
  ASSERT_TRUE(cluster.DrainArchivalQueue("rides_t").ok());
  EXPECT_EQ(cluster.ArchivalQueueDepth("rides_t"), 0);
  EXPECT_FALSE(store.List("segments/rides_t/").empty());

  // Partial results are opt-in: with one server hard-down, a partial query
  // succeeds and reports the dropped server; the default stays strict.
  faults.SetDown("olap.server.query.0", true);
  olap::OlapQuery partial;
  partial.aggregations = {olap::OlapAggregation::Count("n")};
  partial.allow_partial = true;
  Result<olap::OlapResult> partial_result = cluster.Query("rides_t", partial);
  ASSERT_TRUE(partial_result.ok());
  EXPECT_GE(partial_result.value().stats.servers_failed, 1);
  olap::OlapQuery strict;
  strict.aggregations = {olap::OlapAggregation::Count("n")};
  EXPECT_FALSE(cluster.Query("rides_t", strict).ok());
  faults.SetDown("olap.server.query.0", false);
}

// --- Scenario C: compute layer -------------------------------------------
// Checkpoint under a flaky store, then an injected crash. Invariant: the
// restarted job resumes from its checkpoint and the windowed count is exact
// (exactly-once effect on the result).
TEST(ChaosSoakTest, CheckpointCrashRestartKeepsCountsExact) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FaultInjector faults(seed + 2);
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  compute::JobManager manager(&broker, &store);
  manager.SetFaultInjector(&faults);
  stream::TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());

  FaultRule flaky_store;
  flaky_store.error_probability = 0.3;
  faults.SetRule("store.put", flaky_store);
  faults.SetRule("store.get", flaky_store);

  RowSchema schema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  std::mutex mu;
  std::vector<Row> results;
  compute::JobGraph graph("soak");
  compute::SourceSpec source;
  source.topic = "events";
  source.schema = schema;
  source.time_field = "ts";
  graph.AddSource(source).WindowAggregate("agg", {"key"},
                                          compute::WindowSpec::Tumbling(60000),
                                          {compute::AggregateSpec::Count("n")});
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });
  Result<std::string> id = manager.Submit(graph);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto produce = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      stream::Message m;
      m.key = "A";
      m.value = EncodeRow({Value(std::string("A")), Value(1.0), Value(int64_t{1000 + i})});
      m.timestamp = 1000 + i;
      ASSERT_TRUE(broker.Produce("events", std::move(m)).ok());
    }
  };

  produce(0, 40);
  ASSERT_TRUE(manager.GetRunner(id.value())->WaitUntilCaughtUp(20000).ok());
  // One sweep starts a barrier checkpoint, a later one saves it (retried
  // through the flaky store): tick until LATEST names it.
  compute::CheckpointStore checkpoints(&store, "checkpoints", id.value());
  bool checkpointed = false;
  for (int tick = 0; tick < 10000 && !checkpointed; ++tick) {
    ASSERT_TRUE(manager.Tick().ok());
    checkpointed = checkpoints.LatestSequence().ok();
    if (!checkpointed) SystemClock::Instance()->SleepMs(1);
  }
  ASSERT_TRUE(checkpointed);

  // One-shot crash on the fault plane; the same sweep restarts from the
  // checkpoint (restore also retried through the flaky store).
  FaultRule crash;
  crash.error_probability = 1.0;
  crash.max_triggers = 1;
  faults.SetRule("job.crash." + id.value(), crash);
  for (int tick = 0; tick < 20; ++tick) {
    ASSERT_TRUE(manager.Tick().ok());
    Result<compute::JobInfo> info = manager.GetJob(id.value());
    ASSERT_TRUE(info.ok());
    ASSERT_NE(info.value().state, compute::JobState::kFailed);
    if (info.value().restarts >= 1 && manager.GetRunner(id.value())->IsRunning()) break;
  }
  EXPECT_GE(manager.GetJob(id.value()).value().restarts, 1);

  produce(40, 80);
  compute::JobRunner* runner = manager.GetRunner(id.value());
  ASSERT_TRUE(runner->WaitUntilCaughtUp(20000).ok());
  runner->RequestFinish();
  ASSERT_TRUE(runner->AwaitTermination(20000).ok());
  std::lock_guard<std::mutex> lock(mu);
  int64_t total = 0;
  for (const Row& row : results) total += row[2].AsInt();
  // Exactly-once effect: 80 records counted once each, across a crash and a
  // flaky checkpoint store.
  EXPECT_EQ(total, 80);
  // The checkpoint retry loop was exercised and is observable.
  EXPECT_GT(manager.metrics()->GetCounter("retries.checkpoint.attempts")->value(), 0);
}

// --- Scenario D: all-active layer ----------------------------------------
// Scripted region outage on a simulated clock. Invariant: the health sweep
// auto-fails-over, consumption resumes in the surviving region with zero
// loss and only a bounded replay window.
TEST(ChaosSoakTest, AutoFailoverReplaysBoundedWindowWithZeroLoss) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  SimulatedClock clock(0);
  FaultInjector faults(seed + 3, &clock);
  allactive::MultiRegionTopology topology({"dca", "phx"});
  topology.SetFaultInjector(&faults);
  stream::TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());

  // Replication itself runs under transient copy faults the whole time:
  // skipped partitions mean lag, never loss.
  FaultRule flaky_copy;
  flaky_copy.error_probability = 0.2;
  faults.SetRule("ureplicator.copy", flaky_copy);
  // The disaster: dca goes dark at t=100 and stays down.
  faults.ScheduleOutage("region.dca", 100, INT64_MAX);

  allactive::AllActiveCoordinator coordinator(&topology);
  ASSERT_TRUE(coordinator.RegisterService("payments", "dca").ok());

  int64_t produced = 0;
  for (int i = 0; i < 300; ++i) {
    stream::Message m;
    m.value = "m-" + std::to_string(i);
    m.timestamp = 1;
    m.headers[stream::kHeaderUid] = m.value;
    ASSERT_TRUE(topology.ProduceToRegion(i % 2 ? "dca" : "phx", "trips",
                                         std::move(m)).ok());
    ++produced;
  }
  // Transient copy faults can end a ReplicateAll pass early (a zero-moved
  // cycle); repeated passes drain everything — lag, not loss.
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(topology.ReplicateAll().ok());

  allactive::ActivePassiveConsumer consumer(&topology, "payments", "trips", "dca");
  std::set<std::string> seen;
  while (static_cast<int64_t>(seen.size()) < produced / 2) {
    Result<stream::FetchedBatch> batch = consumer.PollViews(40);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      seen.emplace(m.value);
    }
  }
  ASSERT_GT(seen.size(), 0u);

  // The outage window opens; the health sweep reacts without an operator.
  clock.SetMs(200);
  topology.SyncRegionHealth();
  EXPECT_FALSE(topology.GetRegion("dca")->healthy());
  Result<int64_t> moved = coordinator.HealthCheckOnce();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 1);
  EXPECT_EQ(coordinator.auto_failovers(), 1);
  Result<std::string> primary = coordinator.Primary("payments");
  ASSERT_TRUE(primary.ok());
  EXPECT_EQ(primary.value(), "phx");

  // Consumer follows the new primary; drain the rest there.
  ASSERT_TRUE(consumer.FailoverTo(primary.value()).ok());
  int64_t duplicates = 0;
  while (true) {
    Result<stream::FetchedBatch> batch = consumer.PollViews(100);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      if (!seen.emplace(m.value).second) ++duplicates;
    }
  }
  // Zero loss, bounded replay.
  EXPECT_EQ(static_cast<int64_t>(seen.size()), produced);
  EXPECT_LT(duplicates, produced / 2);
  EXPECT_GT(faults.metrics()->GetCounter("faults.injected")->value(), 0);
}

// --- Scenario E: segment tiers -------------------------------------------
// A tight memory budget keeps most segments cold, so queries continuously
// reload frames from a store whose get/put paths flap the whole time.
// Invariant: no query that returns Ok ever returns a wrong count, and no
// segment is lost — a failed eviction leaves the segment warm, a failed
// reload fails the query, never silently drops rows.
TEST(ChaosSoakTest, TieredQueriesStayExactWhileStoreFlapsDuringColdReloads) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  FaultInjector faults(seed + 4);
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  store.SetFaultInjector(&faults);
  olap::OlapClusterOptions cluster_options;
  cluster_options.memory_budget_bytes = 1;  // everything demotes to cold
  olap::OlapCluster cluster(&broker, &store, nullptr, cluster_options);

  stream::TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("rides", config).ok());
  olap::TableConfig table;
  table.name = "rides_t";
  table.schema = RowSchema({{"ride_id", ValueType::kInt},
                            {"city", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"ts", ValueType::kInt}});
  table.time_column = "ts";
  table.segment_rows_threshold = 25;
  ASSERT_TRUE(cluster.CreateTable(table, "rides").ok());

  FaultRule flaky_get;
  flaky_get.error_probability = 0.3;
  faults.SetRule("store.get", flaky_get);
  FaultRule flaky_put;
  flaky_put.error_probability = 0.3;
  faults.SetRule("store.put", flaky_put);

  auto exact_count = [&]() -> int64_t {
    olap::OlapQuery query;
    query.aggregations = {olap::OlapAggregation::Count("n")};
    // A cold reload that exhausts its retry budget fails the query loudly;
    // a bounded outer loop absorbs those, and every Ok answer must be exact.
    for (int tries = 0; tries < 50; ++tries) {
      Result<olap::OlapResult> result = cluster.Query("rides_t", query);
      if (result.ok()) return result.value().rows[0][0].AsInt();
    }
    return -1;
  };

  int64_t produced = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 100; ++i) {
      stream::Message m;
      m.key = "k" + std::to_string(i % 4);
      m.value = EncodeRow({Value(produced), Value(std::string("sf")),
                           Value(10.0 + i), Value(int64_t{1000})});
      m.timestamp = 1000;
      ASSERT_TRUE(broker.Produce("rides", std::move(m)).ok());
      ++produced;
    }
    // Ingest/seal triggers budget enforcement under put faults: evictions
    // that fail leave segments warm (retried next pass), never dropped.
    ASSERT_TRUE(cluster.IngestAll("rides_t").ok());
    ASSERT_TRUE(cluster.ForceSeal("rides_t").ok());
    ASSERT_EQ(exact_count(), produced) << "round " << round;
    // Each query promoted cold segments; enforcement demotes them again so
    // the next round reloads through the flapping store once more.
    cluster.EnforceMemoryBudget();
    ASSERT_EQ(exact_count(), produced) << "round " << round << " re-cooled";
  }

  // Tiering activity under faults was real and observable.
  EXPECT_GT(cluster.metrics()->GetCounter("olap.tier.demotions")->value(), 0);
  EXPECT_GT(cluster.metrics()->GetCounter("olap.tier.promotions")->value(), 0);
  EXPECT_GT(faults.metrics()->GetCounter("faults.injected")->value(), 0);
  EXPECT_GT(cluster.metrics()
                ->GetCounter("retries.olap.tier.attempts")
                ->value(),
            0);

  // Store heals: everything demotes cleanly, counts stay exact, and a
  // killed server rebuilds from the (now stable) cold tier with zero loss.
  faults.ClearRule("store.get");
  faults.ClearRule("store.put");
  cluster.EnforceMemoryBudget();
  ASSERT_EQ(exact_count(), produced);
  ASSERT_TRUE(cluster.KillServer("rides_t", 0).ok());
  Result<olap::RecoveryReport> report = cluster.RecoverServer("rides_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().segments_lost, 0);
  ASSERT_EQ(exact_count(), produced);
}

// --- Scenario F: capacity-aware failover drill under control-plane chaos --
// An unplanned drill (outage lands on the live primary mid-traffic) with
// probabilistic faults layered onto the replication pumps and the offset-sync
// plane — both sit behind retries. Invariants: every admitted-and-acked
// message is consumed exactly (bounded replay, zero loss), and shedding only
// ever happens at the declared priorities: the overloaded survivor sheds
// best-effort work, never critical.
TEST(ChaosSoakTest, DrillUnderLiveTrafficShedsOnlyDeclaredPriorities) {
  allactive::DrillOptions options;
  options.seed = ChaosSeed() + 5;
  options.replication_fault_probability = 0.25;
  options.offset_sync_fault_probability = 0.5;
  allactive::DrillHarness harness(options);
  allactive::DrillReport report = harness.Run(allactive::DrillMode::kUnplanned);

  // The gate: no critical shed, no acked message lost.
  EXPECT_EQ(report.shed_critical, 0);
  EXPECT_EQ(report.query_shed_critical, 0);
  EXPECT_EQ(report.lost, 0);
  EXPECT_EQ(report.consumed, report.acked);
  // The drill was real: traffic flowed, the survivor shed best-effort load,
  // the health plane failed over on its own, and the chaos actually fired.
  EXPECT_GT(report.acked, 0);
  EXPECT_GT(report.shed_besteffort, 0);
  EXPECT_GE(report.auto_failovers, 1);
  EXPECT_GT(report.faults_injected, 0);
  EXPECT_LT(report.replayed, report.consumed);
}

}  // namespace
}  // namespace uberrt
