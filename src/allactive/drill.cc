#include "allactive/drill.h"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "allactive/coordinator.h"
#include "allactive/topology.h"
#include "common/fault_injector.h"

namespace uberrt::allactive {

CapacityOptions DrillCapacityDefaults() {
  CapacityOptions capacity;
  capacity.max_inflight_produce_units = 260;
  capacity.max_inflight_query_units = 30;
  capacity.priority_weights = {1.0, 0.6, 0.4};
  capacity.window_ms = 1000;
  capacity.retry_after_ms = 500;
  return capacity;
}

DrillReport DrillHarness::Run(DrillMode mode) {
  SimulatedClock clock(0);
  common::FaultInjector faults(options_.seed, &clock);
  TopologyOptions topo_options;
  topo_options.capacity = options_.capacity;
  topo_options.clock = &clock;
  MultiRegionTopology topology({options_.from_region, options_.to_region},
                               topo_options);
  topology.SetFaultInjector(&faults);
  AllActiveCoordinator coordinator(&topology);
  stream::TopicConfig config;
  config.num_partitions = 4;
  topology.CreateTopic(options_.topic, config).ok();
  coordinator.RegisterService(options_.service, options_.from_region).ok();
  ActivePassiveConsumer consumer(&topology, options_.group, options_.topic,
                                 options_.from_region);
  workload::TripEventGenerator::Options gen_options;
  gen_options.time_step_ms = 10;
  workload::TripEventGenerator generator(gen_options, options_.seed);

  // The outage opens half a tick before the sweep at outage_start_tick —
  // real outages never align with health checks, so detection costs up to
  // one sweep interval.
  const TimestampMs outage_start_ms =
      options_.outage_start_tick * options_.tick_ms - options_.tick_ms / 2;
  const TimestampMs outage_end_ms = options_.outage_end_tick * options_.tick_ms;
  faults.ScheduleOutage("region." + options_.from_region, outage_start_ms,
                        outage_end_ms);
  if (options_.replication_fault_probability > 0) {
    common::FaultRule rule;
    rule.error_probability = options_.replication_fault_probability;
    faults.SetRule("ureplicator.copy", rule);
  }
  if (options_.offset_sync_fault_probability > 0) {
    common::FaultRule rule;
    rule.error_probability = options_.offset_sync_fault_probability;
    faults.SetRule("allactive.offset_sync", rule);
  }

  DrillReport report;
  report.name = mode == DrillMode::kPlanned ? "planned" : "unplanned";

  std::set<std::string> acked_uids;
  std::set<std::string> consumed_uids;
  const auto on_ack = [&](const stream::Message& message, stream::Priority) {
    auto uid = message.headers.find(stream::kHeaderUid);
    if (uid != message.headers.end()) acked_uids.insert(uid->second);
  };

  // MTTR clock: unplanned drills measure from the moment the outage opens;
  // planned drills from the moment the handover starts.
  TimestampMs mttr_start_ms =
      mode == DrillMode::kUnplanned ? outage_start_ms : -1;
  TimestampMs last_ok_poll_ms = 0;

  const auto poll_and_record = [&]() {
    Result<stream::FetchedBatch> batch = consumer.PollViews(1'000);
    if (!batch.ok()) return false;
    for (const stream::wire::MessageView& message : batch.value().messages) {
      std::string_view uid;
      if (!message.GetHeader(stream::kHeaderUid, &uid)) continue;
      if (!consumed_uids.emplace(uid).second) ++report.replayed;
    }
    last_ok_poll_ms = clock.NowMs();
    return true;
  };
  const auto accumulate = [&](const workload::OpenLoopTick& tick) {
    report.attempted += tick.attempted;
    report.acked += tick.acked;
    report.shed_critical += tick.shed[0];
    report.shed_important += tick.shed[1];
    report.shed_besteffort += tick.shed[2];
    report.unavailable += tick.unavailable;
  };

  for (int64_t tick = 0; tick < options_.ticks; ++tick) {
    // Drains and retry backoffs advance the simulated clock mid-tick; never
    // step it backwards.
    const TimestampMs tick_start_ms = tick * options_.tick_ms;
    if (tick_start_ms > clock.NowMs()) clock.SetMs(tick_start_ms);

    topology.SyncRegionHealth();
    coordinator.HealthCheckOnce().ok();

    if (mode == DrillMode::kPlanned && tick == options_.planned_partial_tick) {
      coordinator
          .PartialFailover(options_.service, options_.to_region,
                           options_.partial_percent)
          .ok();
    }
    if (mode == DrillMode::kPlanned && tick == options_.planned_handover_tick) {
      mttr_start_ms = clock.NowMs();
      Result<HandoverReport> handover = coordinator.DrainHandover(
          options_.service, options_.to_region, options_.group, options_.topic);
      if (handover.ok()) {
        report.drained = handover.value().drained;
        report.abandoned = handover.value().abandoned;
        report.drain_ms = handover.value().drain_ms;
        report.synced_partitions = handover.value().synced_partitions;
      }
    }

    // The consumer follows the primary; a failed failover (target still
    // coming up, sync plane flaking) is simply retried next tick.
    Result<std::string> primary = coordinator.Primary(options_.service);
    if (primary.ok() && consumer.current_region() != primary.value()) {
      consumer.FailoverTo(primary.value()).ok();
    }

    // Routed service traffic (follows the split; reroutes around downed
    // regional clusters per key).
    const auto route = [&](const std::string& key) -> stream::MessageBus* {
      Result<std::string> region = coordinator.RouteFor(options_.service, key);
      if (!region.ok()) return nullptr;
      return topology.GetRegion(region.value())->regional();
    };
    accumulate(generator.ProduceOpenLoop(route, options_.topic,
                                         options_.events_per_tick, options_.mix,
                                         on_ack));

    // The survivor's own steady direct load — what makes failover a
    // capacity problem: shifted traffic lands on top of it.
    const auto direct = [&](const std::string&) -> stream::MessageBus* {
      Region* region = topology.GetRegion(options_.to_region);
      return region->regional_healthy() ? region->regional() : nullptr;
    };
    accumulate(generator.ProduceOpenLoop(direct, options_.topic,
                                         options_.base_events_per_tick,
                                         options_.mix, on_ack));

    // Query-side admission against the current primary. Once the survivor
    // is primary it absorbs both regions' dashboards and surge computations.
    const std::string query_region =
        primary.ok() ? primary.value() : options_.to_region;
    RegionCapacity* query_capacity = topology.GetRegion(query_region)->capacity();
    const int64_t factor = query_region == options_.from_region ? 1 : 2;
    for (int64_t i = 0; i < options_.dashboard_queries_per_tick * factor; ++i) {
      Status admitted = query_capacity->AdmitQuery(Priority::kBestEffort);
      if (admitted.code() == StatusCode::kResourceExhausted) {
        ++report.query_shed_besteffort;
      }
    }
    for (int64_t i = 0; i < options_.surge_queries_per_tick * factor; ++i) {
      Status admitted = query_capacity->AdmitQuery(Priority::kCritical);
      if (admitted.code() == StatusCode::kResourceExhausted) {
        ++report.query_shed_critical;
      }
    }

    // Replication pumps; a flaky route fails the pump for this tick and is
    // resumed next tick from its tracked position.
    topology.ReplicateOnce().ok();
    topology.ReplicateOnce().ok();

    const bool polled = poll_and_record();
    if (polled && report.mttr_ms < 0 && mttr_start_ms >= 0 &&
        clock.NowMs() >= mttr_start_ms &&
        consumer.current_region() == options_.to_region) {
      report.mttr_ms = clock.NowMs() - mttr_start_ms;
    }
    if (clock.NowMs() - last_ok_poll_ms > options_.freshness_sla_ms) {
      ++report.sla_violations;
    }
  }

  // Recovery epilogue: past the outage window, restore health, drain every
  // replication backlog and the consumer, then audit the ledger.
  const TimestampMs end_ms = options_.ticks * options_.tick_ms;
  if (end_ms > clock.NowMs()) clock.SetMs(end_ms);
  topology.SyncRegionHealth();
  coordinator.HealthCheckOnce().ok();
  Result<std::string> primary = coordinator.Primary(options_.service);
  if (primary.ok() && consumer.current_region() != primary.value()) {
    consumer.FailoverTo(primary.value()).ok();
  }
  for (int32_t i = 0; i < 50; ++i) {
    Result<int64_t> moved = topology.ReplicateAll();
    if (moved.ok() && moved.value() == 0) break;
  }
  int32_t empty_polls = 0;
  while (empty_polls < 3) {
    const size_t before = consumed_uids.size() + static_cast<size_t>(report.replayed);
    if (!poll_and_record()) break;
    const size_t after = consumed_uids.size() + static_cast<size_t>(report.replayed);
    empty_polls = after == before ? empty_polls + 1 : 0;
  }
  if (report.mttr_ms < 0 && mttr_start_ms >= 0 &&
      consumer.current_region() == options_.to_region) {
    report.mttr_ms = clock.NowMs() - mttr_start_ms;
  }

  report.consumed = static_cast<int64_t>(consumed_uids.size());
  for (const std::string& uid : acked_uids) {
    if (consumed_uids.count(uid) == 0) ++report.lost;
  }
  report.rerouted = topology.metrics()->GetCounter("allactive.rerouted")->value();
  report.failover_retry_attempts =
      topology.metrics()->GetCounter("retries.allactive.failover.attempts")->value();
  report.auto_failovers = coordinator.auto_failovers();
  // Evidence the outage really fired: probabilistic injections (Check sites)
  // plus the health sweeps that observed the scripted window (IsDown sites).
  report.faults_injected =
      faults.metrics()->GetCounter("faults.injected")->value() +
      faults.metrics()
          ->GetCounter("faults.region." + options_.from_region +
                       ".regional.unavailable")
          ->value() +
      faults.metrics()
          ->GetCounter("faults.region." + options_.from_region +
                       ".aggregate.unavailable")
          ->value();
  return report;
}

namespace {

void WriteReportFields(FILE* f, const DrillReport& r) {
  std::fprintf(f, "    {\n");
  std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
  std::fprintf(f, "      \"mttr_ms\": %" PRId64 ",\n", r.mttr_ms);
  std::fprintf(f, "      \"drained\": %s,\n", r.drained ? "true" : "false");
  std::fprintf(f, "      \"abandoned\": %s,\n", r.abandoned ? "true" : "false");
  std::fprintf(f, "      \"drain_ms\": %" PRId64 ",\n", r.drain_ms);
  std::fprintf(f, "      \"synced_partitions\": %" PRId64 ",\n", r.synced_partitions);
  std::fprintf(f, "      \"attempted\": %" PRId64 ",\n", r.attempted);
  std::fprintf(f, "      \"acked\": %" PRId64 ",\n", r.acked);
  std::fprintf(f, "      \"consumed\": %" PRId64 ",\n", r.consumed);
  std::fprintf(f, "      \"replayed\": %" PRId64 ",\n", r.replayed);
  std::fprintf(f, "      \"lost\": %" PRId64 ",\n", r.lost);
  std::fprintf(f, "      \"shed_critical\": %" PRId64 ",\n", r.shed_critical);
  std::fprintf(f, "      \"shed_important\": %" PRId64 ",\n", r.shed_important);
  std::fprintf(f, "      \"shed_besteffort\": %" PRId64 ",\n", r.shed_besteffort);
  std::fprintf(f, "      \"query_shed_critical\": %" PRId64 ",\n",
               r.query_shed_critical);
  std::fprintf(f, "      \"query_shed_important\": %" PRId64 ",\n",
               r.query_shed_important);
  std::fprintf(f, "      \"query_shed_besteffort\": %" PRId64 ",\n",
               r.query_shed_besteffort);
  std::fprintf(f, "      \"unavailable\": %" PRId64 ",\n", r.unavailable);
  std::fprintf(f, "      \"rerouted\": %" PRId64 ",\n", r.rerouted);
  std::fprintf(f, "      \"sla_violations\": %" PRId64 ",\n", r.sla_violations);
  std::fprintf(f, "      \"failover_retry_attempts\": %" PRId64 ",\n",
               r.failover_retry_attempts);
  std::fprintf(f, "      \"auto_failovers\": %" PRId64 ",\n", r.auto_failovers);
  std::fprintf(f, "      \"faults_injected\": %" PRId64 "\n", r.faults_injected);
  std::fprintf(f, "    }");
}

}  // namespace

Status WriteDrillReportsJson(const std::string& path,
                             const std::vector<DrillReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  DrillReport totals;
  int64_t mttr_max = -1;
  for (const DrillReport& r : reports) {
    totals.shed_critical += r.shed_critical + r.query_shed_critical;
    totals.shed_important += r.shed_important + r.query_shed_important;
    totals.shed_besteffort += r.shed_besteffort + r.query_shed_besteffort;
    totals.lost += r.lost;
    totals.replayed += r.replayed;
    totals.sla_violations += r.sla_violations;
    if (r.mttr_ms > mttr_max) mttr_max = r.mttr_ms;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"allactive_drills\",\n");
  std::fprintf(f, "  \"drills\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    WriteReportFields(f, reports[i]);
    std::fprintf(f, "%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"totals\": {\n");
  std::fprintf(f, "    \"drills\": %zu,\n", reports.size());
  std::fprintf(f, "    \"mttr_ms_max\": %" PRId64 ",\n", mttr_max);
  std::fprintf(f, "    \"shed_critical\": %" PRId64 ",\n", totals.shed_critical);
  std::fprintf(f, "    \"shed_important\": %" PRId64 ",\n", totals.shed_important);
  std::fprintf(f, "    \"shed_besteffort\": %" PRId64 ",\n", totals.shed_besteffort);
  std::fprintf(f, "    \"replayed\": %" PRId64 ",\n", totals.replayed);
  std::fprintf(f, "    \"lost\": %" PRId64 ",\n", totals.lost);
  std::fprintf(f, "    \"sla_violations\": %" PRId64 "\n", totals.sla_violations);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return Status::Ok();
}

}  // namespace uberrt::allactive
