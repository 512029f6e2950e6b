#include "allactive/coordinator.h"

#include <algorithm>

#include "common/hash.h"

namespace uberrt::allactive {
namespace {

/// Offset-sync / handover paths retry under a deadline budget: mid-disaster
/// the sync plane (the active-active mapping database) is exactly what
/// flakes, and the failover must either get through or fail loudly in
/// bounded time.
common::RetryOptions HandoverRetryOptions() {
  common::RetryOptions options;
  options.max_attempts = 8;
  options.initial_backoff_ms = 5;
  options.max_backoff_ms = 100;
  options.deadline_ms = 2'000;
  return options;
}

}  // namespace

AllActiveCoordinator::AllActiveCoordinator(MultiRegionTopology* topology,
                                           CoordinatorOptions options)
    : topology_(topology),
      options_(options),
      sync_retry_("allactive.handover", HandoverRetryOptions(), topology->clock(),
                  topology->metrics()),
      rerouted_(topology->metrics()->GetCounter("allactive.rerouted")) {}

Status AllActiveCoordinator::RegisterService(const std::string& service,
                                             const std::string& primary_region,
                                             ServiceOptions service_options) {
  if (topology_->GetRegion(primary_region) == nullptr) {
    return Status::NotFound("no region: " + primary_region);
  }
  ServiceState state;
  state.primary = primary_region;
  state.needs_aggregate = service_options.needs_aggregate;
  if (service_options.split.empty()) {
    state.split[primary_region] = 100;
  } else {
    int32_t total = 0;
    for (const auto& [region, percent] : service_options.split) {
      if (topology_->GetRegion(region) == nullptr) {
        return Status::NotFound("no region in split: " + region);
      }
      if (percent < 0) return Status::InvalidArgument("negative split percent");
      total += percent;
    }
    if (total != 100) {
      return Status::InvalidArgument("split must sum to 100, got " +
                                     std::to_string(total));
    }
    state.split = std::move(service_options.split);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (services_.count(service) > 0) {
    return Status::AlreadyExists("service registered: " + service);
  }
  services_[service] = std::move(state);
  return Status::Ok();
}

Result<std::string> AllActiveCoordinator::Primary(const std::string& service) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(service);
  if (it == services_.end()) return Status::NotFound("no service: " + service);
  return it->second.primary;
}

bool AllActiveCoordinator::IsPrimary(const std::string& service,
                                     const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(service);
  return it != services_.end() && it->second.primary == region;
}

Result<std::map<std::string, int32_t>> AllActiveCoordinator::Split(
    const std::string& service) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(service);
  if (it == services_.end()) return Status::NotFound("no service: " + service);
  return it->second.split;
}

bool AllActiveCoordinator::HealthyFor(const ServiceState& state,
                                      const Region* region) const {
  if (region == nullptr) return false;
  if (!region->regional_healthy()) return false;
  return !state.needs_aggregate || region->aggregate_healthy();
}

std::string AllActiveCoordinator::ElectLocked(const ServiceState& state,
                                              const std::string& exclude,
                                              bool respect_hysteresis) const {
  for (const std::string& candidate : topology_->RegionNames()) {
    if (candidate == exclude) continue;
    const Region* region = topology_->GetRegion(candidate);
    if (!HealthyFor(state, region)) continue;
    if (respect_hysteresis) {
      auto it = region_health_.find(candidate);
      // A region never seen unhealthy is always eligible; a flapper must
      // accumulate min_target_healthy_sweeps stable sweeps first.
      if (it != region_health_.end() && it->second.ever_unhealthy &&
          it->second.healthy_streak < options_.min_target_healthy_sweeps) {
        continue;
      }
    }
    return candidate;
  }
  return "";
}

void AllActiveCoordinator::CommitFailoverLocked(ServiceState* state,
                                                const std::string& target) {
  state->primary = target;
  state->split.clear();
  state->split[target] = 100;
  state->last_failover_sweep = sweep_;
  ++failovers_;
}

Result<std::string> AllActiveCoordinator::Failover(const std::string& service) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(service);
  if (it == services_.end()) return Status::NotFound("no service: " + service);
  std::string target = ElectLocked(it->second, it->second.primary,
                                   /*respect_hysteresis=*/false);
  if (target.empty()) {
    return Status::Unavailable("no healthy region to fail over to");
  }
  CommitFailoverLocked(&it->second, target);
  return target;
}

Result<int64_t> AllActiveCoordinator::HealthCheckOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  ++sweep_;
  for (const std::string& name : topology_->RegionNames()) {
    Region* region = topology_->GetRegion(name);
    RegionHealth& health = region_health_[name];
    if (region != nullptr && region->healthy()) {
      ++health.healthy_streak;
      health.unhealthy_streak = 0;
    } else {
      ++health.unhealthy_streak;
      health.healthy_streak = 0;
      health.ever_unhealthy = true;
    }
  }
  int64_t moved = 0;
  for (auto& [service, state] : services_) {
    Region* primary = topology_->GetRegion(state.primary);
    if (HealthyFor(state, primary)) continue;
    // Hysteresis: the primary must be persistently unhealthy (not a blip)
    // and the service must be past its post-failover cooldown.
    const RegionHealth& health = region_health_[state.primary];
    if (health.unhealthy_streak < options_.unhealthy_sweeps_before_failover) {
      continue;
    }
    if (sweep_ - state.last_failover_sweep <= options_.failover_cooldown_sweeps) {
      continue;
    }
    std::string target =
        ElectLocked(state, state.primary, /*respect_hysteresis=*/true);
    if (target.empty()) continue;  // no eligible region; retried next sweep
    CommitFailoverLocked(&state, target);
    ++auto_failovers_;
    ++moved;
  }
  return moved;
}

Result<std::string> AllActiveCoordinator::RouteFor(const std::string& service,
                                                   const std::string& key) const {
  std::string assigned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(service);
    if (it == services_.end()) return Status::NotFound("no service: " + service);
    const auto bucket = static_cast<int32_t>(
        Fnv1a64(service + '\0' + key) % 100);
    int32_t cumulative = 0;
    for (const auto& [region, percent] : it->second.split) {
      if (percent <= 0) continue;
      cumulative += percent;
      if (bucket < cumulative) {
        assigned = region;
        break;
      }
    }
    if (assigned.empty()) assigned = it->second.primary;  // split underfull
  }
  Region* region = topology_->GetRegion(assigned);
  // Produce routing needs the regional cluster only; aggregate health is a
  // primary-election concern, not a per-key routing one.
  if (region != nullptr && region->regional_healthy()) return assigned;
  // Deterministic per-key reroute: first healthy region in topology order.
  for (const std::string& candidate : topology_->RegionNames()) {
    if (candidate == assigned) continue;
    Region* fallback = topology_->GetRegion(candidate);
    if (fallback != nullptr && fallback->regional_healthy()) {
      rerouted_->Increment();
      return candidate;
    }
  }
  return Status::Unavailable("no region can accept produce for " + service);
}

Result<int32_t> AllActiveCoordinator::PartialFailover(const std::string& service,
                                                      const std::string& to_region,
                                                      int32_t percent) {
  if (percent <= 0 || percent > 100) {
    return Status::InvalidArgument("percent must be in (0, 100]");
  }
  if (topology_->GetRegion(to_region) == nullptr) {
    return Status::NotFound("no region: " + to_region);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = services_.find(service);
  if (it == services_.end()) return Status::NotFound("no service: " + service);
  ServiceState& state = it->second;
  if (to_region == state.primary) {
    return Status::InvalidArgument(to_region + " is already the primary");
  }
  const int32_t available = state.split.count(state.primary) > 0
                                ? state.split[state.primary]
                                : 0;
  const int32_t moved = std::min(percent, available);
  if (moved > 0) {
    state.split[state.primary] -= moved;
    if (state.split[state.primary] == 0) state.split.erase(state.primary);
    state.split[to_region] += moved;
  }
  return moved;
}

Result<HandoverReport> AllActiveCoordinator::DrainHandover(
    const std::string& service, const std::string& to_region,
    const std::string& group, const std::string& topic) {
  std::string from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(service);
    if (it == services_.end()) return Status::NotFound("no service: " + service);
    from = it->second.primary;
    if (to_region == from) {
      return Status::InvalidArgument(to_region + " is already the primary");
    }
    Region* target = topology_->GetRegion(to_region);
    if (!HealthyFor(it->second, target)) {
      return Status::Unavailable("handover target unhealthy: " + to_region);
    }
  }
  Region* source = topology_->GetRegion(from);
  RegionCapacity* capacity = source->capacity();
  Clock* clock = topology_->clock();
  HandoverReport report;
  report.from = from;
  report.to = to_region;

  // Stop-new-work: the source rejects produce with kUnavailable from here
  // until the flip, so clients re-route instead of piling more inflight on.
  capacity->BeginDrain();
  const TimestampMs start_ms = clock->NowMs();
  const int64_t step_ms = std::max<int64_t>(1, capacity->options().window_ms / 4);
  while (capacity->inflight_produce() > 0 &&
         clock->NowMs() - start_ms < options_.drain_deadline_ms) {
    clock->SleepMs(step_ms);
  }
  report.drained = capacity->inflight_produce() == 0;
  report.abandoned = !report.drained;
  report.drain_ms = clock->NowMs() - start_ms;

  if (!group.empty()) {
    Result<int64_t> synced = sync_retry_.RunResult<int64_t>([&] {
      return topology_->SyncConsumerOffsets(group, topic, from, to_region);
    });
    if (!synced.ok()) {
      capacity->EndDrain();  // handover failed; let the source serve again
      return synced.status();
    }
    report.synced_partitions = synced.value();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(service);
    if (it == services_.end() || it->second.primary != from) {
      capacity->EndDrain();
      return Status::FailedPrecondition("primary changed during handover of " +
                                        service);
    }
    CommitFailoverLocked(&it->second, to_region);
  }
  capacity->EndDrain();
  return report;
}

int64_t AllActiveCoordinator::failovers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failovers_;
}

int64_t AllActiveCoordinator::auto_failovers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return auto_failovers_;
}

ActivePassiveConsumer::ActivePassiveConsumer(MultiRegionTopology* topology,
                                             std::string group, std::string topic,
                                             std::string initial_region)
    : topology_(topology),
      group_(std::move(group)),
      topic_(std::move(topic)),
      region_(std::move(initial_region)),
      failover_retry_("allactive.failover", HandoverRetryOptions(),
                      topology->clock(), topology->metrics()) {
  OpenConsumer().ok();
}

Status ActivePassiveConsumer::OpenConsumer() {
  Region* region = topology_->GetRegion(region_);
  if (region == nullptr) return Status::NotFound("no region: " + region_);
  consumer_ = std::make_unique<stream::Consumer>(region->aggregate(), group_, topic_,
                                                 group_ + "@" + region_);
  Status subscribed = consumer_->Subscribe();
  if (!subscribed.ok()) consumer_.reset();  // leave a clean stranded state
  return subscribed;
}

Result<stream::FetchedBatch> ActivePassiveConsumer::PollViews(size_t max_messages) {
  if (!consumer_) return Status::FailedPrecondition("consumer not open");
  Result<stream::FetchedBatch> batch = consumer_->PollViews(max_messages);
  if (!batch.ok()) return batch;
  UBERRT_RETURN_IF_ERROR(consumer_->Commit());
  return batch;
}

Status ActivePassiveConsumer::FailoverTo(const std::string& new_region) {
  // A prior FailoverTo may have synced + closed but failed to reopen (the
  // new region was still coming up); region_ already points there with no
  // live consumer. Retry just the reopen instead of rejecting.
  const bool stranded = new_region == region_ && consumer_ == nullptr;
  if (new_region == region_ && !stranded) {
    return Status::InvalidArgument("already in " + new_region);
  }
  if (!stranded) {
    // Translate committed progress; the old region may already be down, which
    // is fine — the mapping store lives outside the region. The sync plane
    // itself may flake mid-disaster; retry under the deadline budget.
    Result<int64_t> synced = failover_retry_.RunResult<int64_t>([&] {
      return topology_->SyncConsumerOffsets(group_, topic_, region_, new_region);
    });
    if (!synced.ok()) return synced.status();
    if (consumer_) consumer_->Close().ok();
    consumer_.reset();
    region_ = new_region;
  }
  return failover_retry_.Run([this] { return OpenConsumer(); });
}

}  // namespace uberrt::allactive
