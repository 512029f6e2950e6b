#ifndef UBERRT_ALLACTIVE_COORDINATOR_H_
#define UBERRT_ALLACTIVE_COORDINATOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "allactive/topology.h"
#include "common/retry.h"
#include "common/status.h"
#include "stream/consumer.h"

namespace uberrt::allactive {

/// Failover-policy knobs ("Uber's Failover Architecture"): hysteresis keeps a
/// flapping region from thrashing primaries back and forth, and the drain
/// deadline bounds how long a graceful handover may wait for inflight work.
struct CoordinatorOptions {
  /// Consecutive unhealthy sweeps a primary must accumulate before an
  /// automatic failover fires. 1 = fail over on first observation (a hard
  /// regional outage should not wait).
  int32_t unhealthy_sweeps_before_failover = 1;
  /// Consecutive healthy sweeps a region that has EVER been unhealthy must
  /// accumulate before it is eligible as a failover *target* again. Regions
  /// never seen unhealthy are always eligible, so a fresh topology fails
  /// over instantly; a flapper must prove itself stable first.
  int32_t min_target_healthy_sweeps = 2;
  /// After a service fails over, this many sweeps must pass before it may
  /// auto-fail-over again (manual Failover is exempt — the operator knows).
  int32_t failover_cooldown_sweeps = 2;
  /// Drain-based handover: how long DrainHandover waits for the source
  /// region's inflight window to empty before abandoning the drain and
  /// relying on offset-sync bounded replay instead.
  int64_t drain_deadline_ms = 5'000;
};

/// Per-service registration knobs.
struct ServiceOptions {
  /// Services that compute on the global view (surge, payments) need the
  /// primary region's *aggregate* cluster; a region whose aggregate is down
  /// but regional is up is unhealthy for them. Services that only ingest
  /// locally (needs_aggregate = false) stay put through an aggregate-only
  /// outage — degradation, not binary failover.
  bool needs_aggregate = true;
  /// Initial traffic split, region -> percent (must sum to 100). Empty means
  /// 100% on the primary. Drives RouteFor and PartialFailover.
  std::map<std::string, int32_t> split;
};

/// Result of a drain-based handover.
struct HandoverReport {
  std::string from;
  std::string to;
  /// Inflight produce units hit zero before the deadline (graceful: the new
  /// primary starts from a fully replicated position).
  bool drained = false;
  /// Deadline expired with work still inflight; the handover proceeded
  /// anyway and the offset-sync bounded replay covers the remainder.
  bool abandoned = false;
  int64_t drain_ms = 0;
  int64_t synced_partitions = 0;
};

/// The "all-active coordinating service" of Figure 6, grown from binary
/// failover into capacity-aware failover: tracks which region's update
/// service is primary for each service, splits traffic across regions by
/// deterministic key hashing, shifts k% at a time (partial failover), drains
/// a region before a planned handover, and applies hysteresis so flapping
/// regions don't thrash primaries.
class AllActiveCoordinator {
 public:
  explicit AllActiveCoordinator(MultiRegionTopology* topology,
                                CoordinatorOptions options = {});

  /// Registers a service with an initial primary region (100% split there).
  Status RegisterService(const std::string& service, const std::string& primary_region,
                         ServiceOptions service_options = {});

  Result<std::string> Primary(const std::string& service) const;
  bool IsPrimary(const std::string& service, const std::string& region) const;

  /// Current traffic split (region -> percent; entries sum to 100).
  Result<std::map<std::string, int32_t>> Split(const std::string& service) const;

  /// Deterministic traffic routing: hashes (service, key) into a percent
  /// bucket and walks the split. When the assigned region's regional cluster
  /// is down the key reroutes (deterministically) to the next healthy
  /// region, counted in "allactive.rerouted" — per-key failover without
  /// touching the split.
  Result<std::string> RouteFor(const std::string& service, const std::string& key) const;

  /// Partial failover: shifts up to `percent` points of the service's split
  /// from the current primary to `to_region` (bounded by what the primary
  /// still holds). The primary designation is unchanged — this is the
  /// "shift k% of traffic away" step that precedes or replaces a full flip.
  /// Returns the points actually moved.
  Result<int32_t> PartialFailover(const std::string& service,
                                  const std::string& to_region, int32_t percent);

  /// Drain-based handover to `to_region`: stop-new-work on the current
  /// primary (its capacity layer rejects new produce with kUnavailable),
  /// wait for its inflight window to empty (up to drain_deadline_ms, then
  /// abandon), sync `group`'s consumer offsets across (retried under a
  /// deadline budget), then flip the primary and 100% of the split. Pass an
  /// empty `group` to skip the offset sync (no consumer follows this
  /// service). Counts as a failover.
  Result<HandoverReport> DrainHandover(const std::string& service,
                                       const std::string& to_region,
                                       const std::string& group,
                                       const std::string& topic);

  /// Elects a new healthy primary immediately (operator-initiated; skips
  /// hysteresis). Moves the full split. Returns the new primary region.
  Result<std::string> Failover(const std::string& service);

  /// One health-check sweep. Updates per-region health streaks, then fails
  /// over every service whose primary is unhealthy *for it* (a region with
  /// only its aggregate cluster down is still healthy for services with
  /// needs_aggregate = false) — provided the primary has been unhealthy for
  /// unhealthy_sweeps_before_failover sweeps and the service is past its
  /// failover cooldown. Targets must be healthy for the service and past
  /// the flap-hysteresis bar. Returns how many services moved; a service
  /// with no eligible region stays put and is retried next sweep. Pair with
  /// MultiRegionTopology::SyncRegionHealth when outages are scripted on a
  /// fault injector.
  Result<int64_t> HealthCheckOnce();

  int64_t failovers() const;
  /// Subset of failovers() initiated by HealthCheckOnce.
  int64_t auto_failovers() const;

  const CoordinatorOptions& options() const { return options_; }

 private:
  struct ServiceState {
    std::string primary;
    bool needs_aggregate = true;
    std::map<std::string, int32_t> split;  // region -> percent, sums to 100
    // Far in the past (but safe from int64 underflow in sweep arithmetic).
    int64_t last_failover_sweep = -1'000'000'000;
  };
  struct RegionHealth {
    int32_t healthy_streak = 0;
    int32_t unhealthy_streak = 0;
    bool ever_unhealthy = false;
  };

  /// Is `region` healthy for this service's needs? (Caller may be unlocked —
  /// reads only broker availability atomics.)
  bool HealthyFor(const ServiceState& state, const Region* region) const;
  /// First region != exclude that is healthy for the service and (when
  /// `respect_hysteresis`) past the target-eligibility bar. Empty if none.
  std::string ElectLocked(const ServiceState& state, const std::string& exclude,
                          bool respect_hysteresis) const;
  /// Flips primary + split to `target` and tallies. Caller holds mu_.
  void CommitFailoverLocked(ServiceState* state, const std::string& target);

  MultiRegionTopology* topology_;
  CoordinatorOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, ServiceState> services_;
  std::map<std::string, RegionHealth> region_health_;
  int64_t sweep_ = 0;
  int64_t failovers_ = 0;
  int64_t auto_failovers_ = 0;
  mutable common::RetryPolicy sync_retry_;
  Counter* rerouted_;
};

/// Active/passive consumption (Section 6, Figure 7): a single logical
/// consumer (unique name) reads the aggregate cluster of the primary region;
/// on failover the offset sync job translates its committed progress to the
/// new region and consumption resumes there with zero loss and a bounded
/// replay window. Used by consistency-first services (payments, auditing).
class ActivePassiveConsumer {
 public:
  ActivePassiveConsumer(MultiRegionTopology* topology, std::string group,
                        std::string topic, std::string initial_region);

  /// Polls borrowed views from the current region's aggregate cluster and
  /// commits (FetchedBatch lifetime rules as for Consumer::PollViews).
  Result<stream::FetchedBatch> PollViews(size_t max_messages);

  /// Fails over: syncs offsets from the old region to `new_region` and
  /// reopens the consumer there. Both steps run under a RetryPolicy with a
  /// deadline budget ("retries.allactive.failover.*" in the topology
  /// registry) — mid-disaster the offset-sync plane is exactly the thing
  /// that flakes. If a previous attempt left the consumer stranded (synced
  /// but not reopened), calling again with the same region retries the
  /// reopen instead of erroring.
  Status FailoverTo(const std::string& new_region);

  const std::string& current_region() const { return region_; }

 private:
  Status OpenConsumer();

  MultiRegionTopology* topology_;
  std::string group_;
  std::string topic_;
  std::string region_;
  common::RetryPolicy failover_retry_;
  std::unique_ptr<stream::Consumer> consumer_;
};

}  // namespace uberrt::allactive

#endif  // UBERRT_ALLACTIVE_COORDINATOR_H_
