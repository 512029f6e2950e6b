// Capacity-aware failover: admission ladder, drain-based handover, partial
// failover routing, flap hysteresis, retry-backed consumer failover, the
// offset-sync vs replication race, and the full drill harness whose report
// feeds BENCH_drills.json (the CI drill gate).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "allactive/capacity.h"
#include "allactive/coordinator.h"
#include "allactive/drill.h"
#include "allactive/topology.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "stream/broker.h"

namespace uberrt::allactive {
namespace {

using common::FaultInjector;
using common::FaultRule;
using stream::Message;
using stream::Priority;
using stream::TopicConfig;

Message Msg(const std::string& uid, const char* priority = nullptr) {
  Message m;
  m.value = uid;
  m.timestamp = 1;
  m.headers[stream::kHeaderUid] = uid;
  if (priority != nullptr) m.headers[stream::kHeaderPriority] = priority;
  return m;
}

// --- Admission ladder -------------------------------------------------------

TEST(RegionCapacityTest, LadderShedsLowestPriorityFirstWithRetryAfter) {
  SimulatedClock clock(0);
  CapacityOptions options;
  options.max_inflight_produce_units = 10;
  options.priority_weights = {1.0, 0.6, 0.4};
  options.window_ms = 1000;
  options.retry_after_ms = 321;
  RegionCapacity capacity("dca", options, &clock);

  // Best-effort ceiling = 0.4 * 10 = 4 units.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(capacity.AdmitProduce("t", Priority::kBestEffort, 1).ok()) << i;
  }
  Status shed = capacity.AdmitProduce("t", Priority::kBestEffort, 1);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RegionCapacity::RetryAfterMsFromStatus(shed), 321);

  // Important rides to 0.6 * 10 = 6 total units, then sheds.
  ASSERT_TRUE(capacity.AdmitProduce("t", Priority::kImportant, 2).ok());
  EXPECT_EQ(capacity.AdmitProduce("t", Priority::kImportant, 1).code(),
            StatusCode::kResourceExhausted);

  // Critical gets the full budget: the (1.0 - 0.6) * 10 reserve is exactly
  // what important/best-effort can never crowd out.
  ASSERT_TRUE(capacity.AdmitProduce("t", Priority::kCritical, 4).ok());
  EXPECT_EQ(capacity.AdmitProduce("t", Priority::kCritical, 1).code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(capacity.inflight_produce(), 10);
  EXPECT_EQ(capacity.shed_count(Priority::kBestEffort), 1);
  EXPECT_EQ(capacity.shed_count(Priority::kImportant), 1);
  EXPECT_EQ(capacity.shed_count(Priority::kCritical), 1);
  EXPECT_EQ(capacity.admitted_count(Priority::kBestEffort), 4);
  // Not a shed status => no hint.
  EXPECT_EQ(RegionCapacity::RetryAfterMsFromStatus(Status::Ok()), -1);
}

TEST(RegionCapacityTest, WindowRollRestoresBudgetAndDrainStopsNewWork) {
  SimulatedClock clock(0);
  CapacityOptions options;
  options.max_inflight_produce_units = 5;
  options.window_ms = 1000;
  RegionCapacity capacity("dca", options, &clock);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(capacity.AdmitProduce("t", Priority::kCritical, 1).ok());
  }
  EXPECT_EQ(capacity.AdmitProduce("t", Priority::kCritical, 1).code(),
            StatusCode::kResourceExhausted);
  // The inflight window decays when the clock rolls past it.
  clock.AdvanceMs(1000);
  EXPECT_EQ(capacity.inflight_produce(), 0);
  ASSERT_TRUE(capacity.AdmitProduce("t", Priority::kCritical, 1).ok());

  // Drain: stop-new-work rejects everything (even critical) with
  // kUnavailable so clients re-route rather than back off.
  capacity.BeginDrain();
  EXPECT_TRUE(capacity.draining());
  Status rejected = capacity.AdmitProduce("t", Priority::kCritical, 1);
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_TRUE(capacity.AdmitQuery(Priority::kCritical).IsUnavailable());
  clock.AdvanceMs(1000);
  EXPECT_EQ(capacity.inflight_produce(), 0);  // drained
  capacity.EndDrain();
  EXPECT_TRUE(capacity.AdmitProduce("t", Priority::kCritical, 1).ok());
}

TEST(RegionCapacityTest, BrokerAdmissionGateRejectsBeforeAppend) {
  SimulatedClock clock(0);
  CapacityOptions options;
  options.max_inflight_produce_units = 5;
  options.priority_weights = {1.0, 0.6, 0.4};
  RegionCapacity capacity("dca", options, &clock);
  stream::Broker broker("dca-regional");
  broker.SetAdmission(&capacity);
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(broker.CreateTopic("trips", config).ok());

  // Best-effort ceiling = 2 units; the third is shed and must not append.
  ASSERT_TRUE(broker.Produce("trips", Msg("a", "besteffort")).ok());
  ASSERT_TRUE(broker.Produce("trips", Msg("b", "besteffort")).ok());
  Result<stream::ProduceResult> shed = broker.Produce("trips", Msg("c", "besteffort"));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(broker.EndOffset("trips", 0).value(), 2);  // acked-or-error

  // An unlabeled message defaults to kImportant and still fits.
  ASSERT_TRUE(broker.Produce("trips", Msg("d")).ok());
  // Critical uses the reserve the lower classes cannot touch.
  ASSERT_TRUE(broker.Produce("trips", Msg("e", "critical")).ok());
  ASSERT_TRUE(broker.Produce("trips", Msg("f", "critical")).ok());
  EXPECT_EQ(broker.Produce("trips", Msg("g", "critical")).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(broker.EndOffset("trips", 0).value(), 5);
  broker.SetAdmission(nullptr);
  ASSERT_TRUE(broker.Produce("trips", Msg("h", "besteffort")).ok());
}

// --- Partial failover & deterministic routing -------------------------------

TEST(PartialFailoverTest, SplitRoutesDeterministicallyAndReroutesAroundOutage) {
  MultiRegionTopology topology({"dca", "phx"});
  AllActiveCoordinator coordinator(&topology);
  ASSERT_TRUE(coordinator.RegisterService("surge", "dca").ok());

  // 100% on the primary to start.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(coordinator.RouteFor("surge", "k" + std::to_string(i)).value(), "dca");
  }

  // Shift 40%: both regions now take traffic, same key -> same region.
  ASSERT_EQ(coordinator.PartialFailover("surge", "phx", 40).value(), 40);
  std::map<std::string, int32_t> split = coordinator.Split("surge").value();
  EXPECT_EQ(split["dca"], 60);
  EXPECT_EQ(split["phx"], 40);
  int dca_keys = 0;
  int phx_keys = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "rider-" + std::to_string(i);
    const std::string first = coordinator.RouteFor("surge", key).value();
    EXPECT_EQ(coordinator.RouteFor("surge", key).value(), first);  // stable
    (first == "dca" ? dca_keys : phx_keys)++;
  }
  // Roughly the declared proportions (hash buckets, not exact).
  EXPECT_GT(dca_keys, 120);
  EXPECT_GT(phx_keys, 60);

  // Shifting more than the primary holds moves only what is left.
  ASSERT_EQ(coordinator.PartialFailover("surge", "phx", 90).value(), 60);
  EXPECT_EQ(coordinator.Split("surge").value()["phx"], 100);
  EXPECT_TRUE(coordinator.IsPrimary("surge", "dca"));  // designation unchanged

  // A key assigned to a down regional cluster reroutes deterministically.
  ASSERT_EQ(coordinator.PartialFailover("surge", "dca", 0).status().code(),
            StatusCode::kInvalidArgument);
  AllActiveCoordinator fresh(&topology);
  ASSERT_TRUE(fresh.RegisterService("eats", "dca").ok());
  topology.GetRegion("dca")->FailRegional();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fresh.RouteFor("eats", "k" + std::to_string(i)).value(), "phx");
  }
  EXPECT_GT(topology.metrics()->GetCounter("allactive.rerouted")->value(), 0);
  topology.GetRegion("dca")->RestoreRegional();
}

// --- Drain-based handover ----------------------------------------------------

TEST(DrainHandoverTest, DrainsInflightSyncsOffsetsAndFlips) {
  SimulatedClock clock(0);
  TopologyOptions topo_options;
  topo_options.clock = &clock;
  topo_options.capacity.max_inflight_produce_units = 10'000;
  topo_options.capacity.window_ms = 1000;
  MultiRegionTopology topology({"dca", "phx"}, topo_options);
  AllActiveCoordinator coordinator(&topology);
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  ASSERT_TRUE(coordinator.RegisterService("surge", "dca").ok());

  // Enough volume that the replication pumps write offset-mapping
  // checkpoints (every 100 messages per partition) the sync can translate.
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(topology.ProduceToRegion("dca", "trips",
                                         Msg("m-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(topology.ReplicateAll().ok());
  // Commit at the replicated high watermark: the route checkpoint written by
  // the pump is at-or-before it, so the sync can translate this partition.
  Result<int64_t> end =
      topology.GetRegion("dca")->aggregate()->EndOffset("trips", 0);
  ASSERT_TRUE(end.ok());
  ASSERT_GT(end.value(), 0);
  ASSERT_TRUE(topology.GetRegion("dca")->aggregate()->CommitOffset(
      "payments", "trips", 0, end.value()).ok());
  EXPECT_EQ(topology.GetRegion("dca")->capacity()->inflight_produce(), 250);

  Result<HandoverReport> handover =
      coordinator.DrainHandover("surge", "phx", "payments", "trips");
  ASSERT_TRUE(handover.ok()) << handover.status().ToString();
  EXPECT_TRUE(handover.value().drained);
  EXPECT_FALSE(handover.value().abandoned);
  EXPECT_GT(handover.value().drain_ms, 0);
  EXPECT_GE(handover.value().synced_partitions, 1);
  EXPECT_EQ(handover.value().from, "dca");
  EXPECT_EQ(handover.value().to, "phx");
  EXPECT_TRUE(coordinator.IsPrimary("surge", "phx"));
  EXPECT_EQ(coordinator.Split("surge").value()["phx"], 100);
  EXPECT_EQ(coordinator.failovers(), 1);
  // Drain released: the vacated region accepts produce again.
  EXPECT_FALSE(topology.GetRegion("dca")->capacity()->draining());
  EXPECT_TRUE(topology.ProduceToRegion("dca", "trips", Msg("after")).ok());
}

TEST(DrainHandoverTest, AbandonsAtDeadlineAndStillHandsOver) {
  SimulatedClock clock(0);
  TopologyOptions topo_options;
  topo_options.clock = &clock;
  topo_options.capacity.max_inflight_produce_units = 100;
  // The window never rolls within the drain deadline: inflight can't decay.
  topo_options.capacity.window_ms = 1'000'000;
  MultiRegionTopology topology({"dca", "phx"}, topo_options);
  CoordinatorOptions coord_options;
  coord_options.drain_deadline_ms = 2'000;
  AllActiveCoordinator coordinator(&topology, coord_options);
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  ASSERT_TRUE(coordinator.RegisterService("surge", "dca").ok());
  ASSERT_TRUE(topology.ProduceToRegion("dca", "trips", Msg("stuck")).ok());

  Result<HandoverReport> handover =
      coordinator.DrainHandover("surge", "phx", "", "trips");
  ASSERT_TRUE(handover.ok());
  EXPECT_FALSE(handover.value().drained);
  EXPECT_TRUE(handover.value().abandoned);  // bounded-replay covers the rest
  EXPECT_GE(handover.value().drain_ms, 2'000);
  EXPECT_TRUE(coordinator.IsPrimary("surge", "phx"));
  EXPECT_FALSE(topology.GetRegion("dca")->capacity()->draining());
}

// --- Partial degradation (satellite: regional vs aggregate health) ----------

TEST(DegradationTest, AggregateOnlyOutageMovesOnlyServicesThatNeedIt) {
  MultiRegionTopology topology({"dca", "phx"});
  AllActiveCoordinator coordinator(&topology);
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  ServiceOptions local_only;
  local_only.needs_aggregate = false;
  ASSERT_TRUE(coordinator.RegisterService("ingest", "dca", local_only).ok());
  ASSERT_TRUE(coordinator.RegisterService("surge", "dca").ok());

  topology.GetRegion("dca")->FailAggregate();
  EXPECT_FALSE(topology.GetRegion("dca")->healthy());
  EXPECT_TRUE(topology.GetRegion("dca")->regional_healthy());

  // Only the global-view service leaves; local ingestion degrades in place
  // and the region still accepts local produce.
  EXPECT_EQ(coordinator.HealthCheckOnce().value(), 1);
  EXPECT_EQ(coordinator.Primary("surge").value(), "phx");
  EXPECT_EQ(coordinator.Primary("ingest").value(), "dca");
  EXPECT_TRUE(topology.ProduceToRegion("dca", "trips", Msg("local")).ok());

  // Regional cluster loss moves everything.
  topology.GetRegion("dca")->FailRegional();
  EXPECT_EQ(coordinator.HealthCheckOnce().value(), 1);
  EXPECT_EQ(coordinator.Primary("ingest").value(), "phx");
  topology.GetRegion("dca")->Restore();
}

TEST(DegradationTest, FaultPlaneDrivesComponentHealthSeparately) {
  SimulatedClock clock(0);
  FaultInjector faults(42, &clock);
  MultiRegionTopology topology({"dca", "phx"});
  topology.SetFaultInjector(&faults);

  faults.ScheduleOutage("region.dca.aggregate", 100, 200);
  clock.SetMs(150);
  topology.SyncRegionHealth();
  EXPECT_TRUE(topology.GetRegion("dca")->regional_healthy());
  EXPECT_FALSE(topology.GetRegion("dca")->aggregate_healthy());

  // A rule on the whole-region prefix still downs both components.
  faults.SetDown("region.phx", true);
  topology.SyncRegionHealth();
  EXPECT_FALSE(topology.GetRegion("phx")->regional_healthy());
  EXPECT_FALSE(topology.GetRegion("phx")->aggregate_healthy());
  faults.SetDown("region.phx", false);
  clock.SetMs(250);
  topology.SyncRegionHealth();
  EXPECT_TRUE(topology.GetRegion("dca")->healthy());
  EXPECT_TRUE(topology.GetRegion("phx")->healthy());
}

// --- Flap hysteresis ---------------------------------------------------------

// Anti-phase flapping (each region down for two sweeps at a time, with
// seed-jittered blips on top): without hysteresis the primary thrashes with
// every phase change; with it, failovers happen only when the primary is
// genuinely down, the target has proven stable, and the cooldown has passed.
int64_t RunFlapScenario(uint64_t seed, const CoordinatorOptions& options) {
  MultiRegionTopology topology({"dca", "phx", "sjc"});
  AllActiveCoordinator coordinator(&topology, options);
  EXPECT_TRUE(coordinator.RegisterService("surge", "dca").ok());
  Rng rng(seed);
  // sjc is hard-down throughout: a tempting target that is never eligible.
  topology.GetRegion("sjc")->Fail();
  for (int sweep = 0; sweep < 16; ++sweep) {
    const bool dca_down = ((sweep / 2) % 2 == 0) != rng.Chance(0.1);
    const bool phx_down = !((sweep / 2) % 2 == 0) != rng.Chance(0.1);
    dca_down ? topology.GetRegion("dca")->Fail() : topology.GetRegion("dca")->Restore();
    phx_down ? topology.GetRegion("phx")->Fail() : topology.GetRegion("phx")->Restore();
    EXPECT_TRUE(coordinator.HealthCheckOnce().ok());
  }
  return coordinator.auto_failovers();
}

TEST(FlapHysteresisTest, FlappingRegionsDoNotThrashPrimaries) {
  for (uint64_t seed : {7ull, 1337ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CoordinatorOptions no_hysteresis;
    no_hysteresis.min_target_healthy_sweeps = 0;
    no_hysteresis.failover_cooldown_sweeps = 0;
    const int64_t thrash = RunFlapScenario(seed, no_hysteresis);
    const int64_t damped = RunFlapScenario(seed, CoordinatorOptions{});
    EXPECT_GE(thrash, 4) << "control should thrash under anti-phase flapping";
    EXPECT_LE(damped, 4);
    EXPECT_LT(damped, thrash);
  }
}

TEST(FlapHysteresisTest, NeverUnhealthyRegionIsImmediatelyEligible) {
  // The chaos-D shape: first-ever outage must fail over on the first sweep
  // even with hysteresis defaults (a never-unhealthy target needs no proof).
  MultiRegionTopology topology({"dca", "phx"});
  AllActiveCoordinator coordinator(&topology);
  ASSERT_TRUE(coordinator.RegisterService("payments", "dca").ok());
  topology.GetRegion("dca")->Fail();
  EXPECT_EQ(coordinator.HealthCheckOnce().value(), 1);
  EXPECT_EQ(coordinator.Primary("payments").value(), "phx");
  EXPECT_EQ(coordinator.auto_failovers(), 1);
}

// --- Retry-backed consumer failover (satellite) ------------------------------

TEST(ConsumerFailoverRetryTest, TransientSyncFaultsAreAbsorbedByTheBudget) {
  SimulatedClock clock(0);
  FaultInjector faults(7, &clock);
  TopologyOptions topo_options;
  topo_options.clock = &clock;
  MultiRegionTopology topology({"dca", "phx"}, topo_options);
  topology.SetFaultInjector(&faults);
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(topology.ProduceToRegion("dca", "trips",
                                         Msg("m-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(topology.ReplicateAll().ok());
  ActivePassiveConsumer consumer(&topology, "payments", "trips", "dca");
  ASSERT_TRUE(consumer.PollViews(10).ok());

  // The sync plane fails exactly twice, then recovers: the deadline-budget
  // retry inside FailoverTo must absorb both hits.
  FaultRule transient;
  transient.error_probability = 1.0;
  transient.max_triggers = 2;
  faults.SetRule("allactive.offset_sync", transient);
  ASSERT_TRUE(consumer.FailoverTo("phx").ok());
  EXPECT_EQ(consumer.current_region(), "phx");
  EXPECT_GE(
      topology.metrics()->GetCounter("retries.allactive.failover.retries")->value(),
      2);
  EXPECT_GE(
      topology.metrics()->GetCounter("retries.allactive.failover.attempts")->value(),
      3);
  EXPECT_TRUE(consumer.PollViews(10).ok());
}

TEST(ConsumerFailoverRetryTest, StrandedConsumerRetriesReopenNotSync) {
  MultiRegionTopology topology({"dca", "phx"});
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  ASSERT_TRUE(topology.ProduceToRegion("dca", "trips", Msg("m-0")).ok());
  ASSERT_TRUE(topology.ReplicateAll().ok());
  ActivePassiveConsumer consumer(&topology, "payments", "trips", "dca");
  ASSERT_TRUE(consumer.PollViews(10).ok());

  // The target region lost this topic: the sync half succeeds but the
  // reopen half cannot, leaving the consumer stranded in the new region.
  ASSERT_TRUE(topology.GetRegion("phx")->aggregate()->DeleteTopic("trips").ok());
  EXPECT_FALSE(consumer.FailoverTo("phx").ok());
  EXPECT_EQ(consumer.current_region(), "phx");
  EXPECT_EQ(consumer.PollViews(10).status().code(), StatusCode::kFailedPrecondition);

  // Once the topic is back, re-calling with the SAME region must retry the
  // reopen (not reject with "already in phx", not re-sync).
  ASSERT_TRUE(topology.GetRegion("phx")->aggregate()->CreateTopic("trips", config).ok());
  ASSERT_TRUE(consumer.FailoverTo("phx").ok());
  EXPECT_TRUE(consumer.PollViews(10).ok());
  // A live consumer still rejects a no-op failover.
  EXPECT_EQ(consumer.FailoverTo("phx").code(), StatusCode::kInvalidArgument);
}

// --- Offset sync racing replication pumps (satellite) ------------------------

TEST(OffsetSyncRaceTest, SyncRacingPumpsNeverLosesACommittedMessage) {
  MultiRegionTopology topology({"dca", "phx"});
  TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(topology.CreateTopic("trips", config).ok());
  ActivePassiveConsumer consumer(&topology, "payments", "trips", "dca");

  std::atomic<bool> stop{false};
  std::vector<std::thread> pumps;
  for (int t = 0; t < 2; ++t) {
    pumps.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        topology.ReplicateOnce().ok();
      }
    });
  }

  // Live traffic + consumption + repeated offset syncs, all while the pumps
  // advance route positions and write checkpoints concurrently.
  int64_t produced = 0;
  std::set<std::string> seen;
  int64_t duplicates = 0;
  const auto drain = [&](size_t max) {
    Result<stream::FetchedBatch> batch = consumer.PollViews(max);
    ASSERT_TRUE(batch.ok());
    for (const stream::wire::MessageView& m : batch.value().messages) {
      if (!seen.emplace(m.value).second) ++duplicates;
    }
  };
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      const std::string uid = "m-" + std::to_string(produced++);
      ASSERT_TRUE(topology
                      .ProduceToRegion(round % 2 ? "dca" : "phx", "trips", Msg(uid))
                      .ok());
    }
    drain(40);
    // Mid-replication sync: must be conservative against half-advanced
    // routes (some checkpoints written, some not, for the same batch).
    topology.SyncConsumerOffsets("payments", "trips", "dca", "phx").ok();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pumps) t.join();

  for (int i = 0; i < 20; ++i) ASSERT_TRUE(topology.ReplicateAll().ok());
  ASSERT_TRUE(consumer.FailoverTo("phx").ok());
  for (int i = 0; i < 200 && static_cast<int64_t>(seen.size()) < produced; ++i) {
    drain(200);
  }
  // Conservative min-over-routes: nothing committed is ever lost; the
  // failover replays a bounded window rather than the whole log.
  EXPECT_EQ(static_cast<int64_t>(seen.size()), produced);
  EXPECT_LT(duplicates, produced);
}

// --- The drill harness (tentpole) --------------------------------------------

TEST(DrillHarnessTest, PlannedAndUnplannedDrillsMeetTheGate) {
  DrillHarness harness(DrillOptions{});
  DrillReport planned = harness.Run(DrillMode::kPlanned);
  DrillReport unplanned = harness.Run(DrillMode::kUnplanned);

  for (const DrillReport* r : {&planned, &unplanned}) {
    SCOPED_TRACE(r->name);
    // The gate: critical traffic is never shed, and no acked message is
    // lost, even while best-effort shedding is active.
    EXPECT_EQ(r->shed_critical, 0);
    EXPECT_EQ(r->query_shed_critical, 0);
    EXPECT_EQ(r->lost, 0);
    EXPECT_GT(r->shed_besteffort, 0);  // the overloaded survivor really shed
    EXPECT_GT(r->acked, 0);
    EXPECT_EQ(r->consumed, r->acked);  // ledger closes exactly
    EXPECT_GE(r->mttr_ms, 0);
    EXPECT_LT(r->replayed, r->consumed);
    EXPECT_GT(r->faults_injected, 0);  // the outage window really fired
  }
  // Planned: graceful — drained fully, no abandonment, no auto failover.
  EXPECT_TRUE(planned.drained);
  EXPECT_FALSE(planned.abandoned);
  EXPECT_GE(planned.synced_partitions, 1);
  EXPECT_EQ(planned.auto_failovers, 0);
  // Unplanned: the health plane moved the primary without an operator, and
  // detection cost shows up as a positive MTTR.
  EXPECT_GE(unplanned.auto_failovers, 1);
  EXPECT_GT(unplanned.mttr_ms, 0);

  // Determinism: same options, same seed, same evidence.
  DrillReport again = harness.Run(DrillMode::kUnplanned);
  EXPECT_EQ(again.acked, unplanned.acked);
  EXPECT_EQ(again.mttr_ms, unplanned.mttr_ms);
  EXPECT_EQ(again.shed_besteffort, unplanned.shed_besteffort);

  ASSERT_TRUE(WriteDrillReportsJson("BENCH_drills.json", {planned, unplanned}).ok());
  FILE* f = std::fopen("BENCH_drills.json", "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  EXPECT_NE(contents.find("\"benchmark\": \"allactive_drills\""), std::string::npos);
  EXPECT_NE(contents.find("\"mttr_ms\""), std::string::npos);
  EXPECT_NE(contents.find("\"lost\": 0"), std::string::npos);
  EXPECT_NE(contents.find("\"totals\""), std::string::npos);
}

}  // namespace
}  // namespace uberrt::allactive
