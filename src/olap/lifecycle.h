#ifndef UBERRT_OLAP_LIFECYCLE_H_
#define UBERRT_OLAP_LIFECYCLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "olap/segment.h"
#include "storage/object_store.h"

namespace uberrt::olap {

/// Where a sealed segment's bytes live (paper Section 4.3.4: fresh data is
/// served from memory, history migrates to the archival tier).
enum class SegmentTier {
  kHot = 0,   ///< fully decoded in process memory (dictionaries + indexes)
  kWarm = 1,  ///< only the serialized URT_SEG1 frame resident; columns
              ///< materialize lazily on first touch
  kCold = 2,  ///< evicted to the object store; reloaded (to warm) on query
};

/// URT_SEG1 archival frame: the segment blob plus the cluster-level sealing
/// state that Segment::Serialize cannot know (seal seq, time bounds, upsert
/// validity bits). Without the validity bits, store-path recovery
/// resurrected overwritten upsert rows: restored segments came back
/// all-valid. The same frame doubles as the warm tier's packed form.
struct SegmentFrame {
  int64_t seq = -1;
  TimestampMs min_time = INT64_MIN;
  TimestampMs max_time = INT64_MAX;
  /// Upsert tables only; null = all rows valid. Snapshots go stale the
  /// moment a later row supersedes a key — restore replays from row
  /// contents, never trusts these bits.
  std::shared_ptr<std::vector<bool>> validity;
  std::shared_ptr<Segment> segment;
};

std::string EncodeSegmentFrame(const SegmentFrame& frame);
/// Eager decode (recovery path): every column materializes now. A blob
/// without the frame magic is Corruption.
Result<SegmentFrame> DecodeSegmentFrame(const std::string& blob);
/// Warm-tier decode: frame metadata is skipped (the live handle keeps the
/// authoritative seq/time-bounds/validity) and the segment decodes lazily
/// per column, pinning `blob` until the segment is dropped.
Result<std::shared_ptr<Segment>> DecodeSegmentFrameLazy(
    std::shared_ptr<const std::string> blob);

class LifecycleManager;

/// The tier state of ONE sealed segment. Shared (by shared_ptr) between the
/// home partition, its peer replicas and the lifecycle manager's registry,
/// so a demotion or reload reaches every holder at once and a replicated
/// segment is never resident twice.
///
/// Lock discipline: `mu_` is a leaf mutex — nothing else is ever acquired
/// under it; callers hold at most a table's rw_mu (shared). Demotion and
/// reload take no rw_mu at all: in-flight queries keep the representation
/// they Acquire()d alive through the returned shared_ptr pin, so swapping
/// tiers under a running query is safe by construction. A Segment handed
/// out by Acquire() is never mutated except by its own monotone lazy
/// column decode (internally synchronized); shrinking a warm segment
/// replaces the Segment object instead of clearing the shared one.
///
/// Store I/O happens under mu_ only on the cold paths (eviction put,
/// reload get), each bounded by the manager's retry budget.
class SegmentHandle {
 public:
  /// Creates a hot handle and registers it with `manager` (null = an
  /// unmanaged handle that stays hot forever — standalone
  /// RealtimePartition use without a cluster).
  static std::shared_ptr<SegmentHandle> Create(
      std::shared_ptr<Segment> segment, int64_t seq, TimestampMs min_time,
      TimestampMs max_time, std::shared_ptr<std::vector<bool>> validity,
      std::string store_key, LifecycleManager* manager);

  const std::string& name() const { return name_; }
  const std::string& store_key() const { return store_key_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t seq() const { return seq_; }
  TimestampMs min_time() const { return min_time_; }
  TimestampMs max_time() const { return max_time_; }

  SegmentTier tier() const;

  /// Plan-time pruning without materialization: hot segments answer with
  /// the exact dictionary-backed check; warm/cold consult the resident
  /// SegmentPruneInfo (same min/max/bloom, conservatively no dictionary
  /// backstop) — pruning never requires decoding a demoted segment.
  bool CanMatch(const FilterPredicate& pred) const;

  /// Query-path pin: returns the current representation (hot segment, or
  /// the warm lazy segment). Cold triggers a store reload — a promotion to
  /// warm. `observed` (optional) reports the tier served. The returned
  /// shared_ptr keeps the segment alive across any concurrent demotion.
  Result<std::shared_ptr<Segment>> Acquire(SegmentTier* observed = nullptr);
  /// Acquire + materialize every column (recovery replay).
  Result<std::shared_ptr<Segment>> AcquireFull();

  /// Restore replay swaps validity vectors; the handle must carry the live
  /// one so later demotions archive the current bits.
  void SetValidity(std::shared_ptr<std::vector<bool>> validity);
  /// Upsert ingest marks a superseded row invalid through the handle so the
  /// bit flip is synchronized against a concurrent demotion snapshotting
  /// the same bits (queries are already excluded by the table's rw_mu).
  void InvalidateRow(size_t row);

  /// hot -> warm: encodes the packed frame (current validity) and replaces
  /// the decoded segment with a lazy one over it. No-op unless hot.
  Status DemoteToWarm();
  /// warm -> cold: drops the frame after making sure the store holds it
  /// (put-if-absent with retries). Fails — and the segment stays warm —
  /// while the store is down. No-op unless warm.
  Status DemoteToCold();
  /// Re-packs a warm segment: drops its lazily materialized columns by
  /// swapping in a fresh lazy segment over the same frame. No-op unless
  /// warm.
  void ShrinkWarm();

  /// Process-memory footprint of the current representation (decoded
  /// segment and/or packed frame + resident prune info + validity bits).
  /// Cold segments cost only the prune info.
  int64_t ResidentBytes() const;
  /// Store-side bytes while cold (0 otherwise) — the cold-tier gauge.
  int64_t ColdBytes() const;

  uint64_t last_touch() const {
    return last_touch_.load(std::memory_order_relaxed);
  }
  /// Bumps the query-recency clock (manager-issued logical ticks).
  void Touch();

 private:
  SegmentHandle() = default;

  /// Copy of the current validity bits, taken under validity_mu_ (demotion
  /// frame encode; null when all rows are valid).
  std::shared_ptr<std::vector<bool>> SnapshotValidity() const;

  std::string name_;
  std::string store_key_;
  int64_t num_rows_ = 0;
  int64_t seq_ = -1;
  TimestampMs min_time_ = INT64_MIN;
  TimestampMs max_time_ = INT64_MAX;
  SegmentPruneInfo prune_;  ///< immutable after Create; resident per tier
  LifecycleManager* manager_ = nullptr;

  mutable std::mutex mu_;  // leaf; guards the representation below
  SegmentTier tier_ = SegmentTier::kHot;
  std::shared_ptr<Segment> segment_;  ///< hot: full; warm: lazy; cold: null
  std::shared_ptr<const std::string> packed_;  ///< warm: frame blob
  int64_t cold_bytes_ = 0;

  /// Guards the validity pointer and its bits against the one writer that
  /// runs outside the table's rw_mu (demotion's snapshot). Leaf, ordered
  /// after mu_; never held across store I/O.
  mutable std::mutex validity_mu_;
  std::shared_ptr<std::vector<bool>> validity_;

  std::atomic<uint64_t> last_touch_{0};
};

/// Owns the tier policy: a registry of every live SegmentHandle, the
/// query-recency clock, the store plumbing for cold evictions/reloads, and
/// the olap.tier.* metrics. One per OlapCluster.
class LifecycleManager {
 public:
  /// `memory_budget_bytes` caps sealed-segment memory plus whatever the
  /// external-bytes hook reports (result caches). 0 = unlimited: no
  /// demotions ever happen on their own.
  LifecycleManager(storage::ObjectStore* store, MetricsRegistry* metrics,
                   int64_t memory_budget_bytes);

  void Register(const std::shared_ptr<SegmentHandle>& handle);

  void SetMemoryBudget(int64_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  int64_t memory_budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Bytes charged to the budget besides segments (the broker result
  /// caches). Set once at cluster wiring, before any concurrent use.
  void SetExternalBytesFn(std::function<int64_t()> fn) {
    external_bytes_fn_ = std::move(fn);
  }

  /// LRU demotion (oldest last_touch first) until hot+warm resident bytes
  /// plus external bytes fit the budget: hot->warm, then re-pack warm
  /// (drop lazily materialized columns), then warm->cold. Cold eviction
  /// stops at the first store failure (retried on the next pass). No-op
  /// without a budget. Callers must NOT hold any table rw_mu — cold
  /// eviction does store I/O. Returns demotions performed.
  int64_t EnforceBudget();

  /// Test/bench hook: demote by recency (most recent kept) until at most
  /// `max_hot` handles are hot and at most `max_warm` warm — exact tier
  /// ratios for the footprint/latency curves. Handles kept warm are shrunk
  /// back to the packed frame (lazily-materialized columns dropped). Only
  /// demotes (a cold handle never re-promotes here). Returns the first
  /// store error, if any.
  Status ApplyTierTargets(int64_t max_hot, int64_t max_warm);

  /// Hot+warm resident bytes across all live handles (excludes cold store
  /// bytes and the external/result-cache bytes).
  int64_t ManagedBytes();
  /// ManagedBytes plus the external-bytes hook — what EnforceBudget
  /// compares against the budget.
  int64_t BudgetedBytes();

  /// Re-publishes olap.tier.{hot,warm,cold}_bytes from a registry walk.
  void RefreshGauges();

  uint64_t Tick() { return clock_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // --- used by SegmentHandle -----------------------------------------------
  Result<std::string> LoadBlob(const std::string& key);
  Status EnsureDurable(const std::string& key, const std::string& blob);
  void CountPromotion() { promotions_->Increment(); }
  void CountDemotion() { demotions_->Increment(); }
  void CountMaterializations(int64_t n) {
    if (n > 0) materializations_->Increment(n);
  }

 private:
  /// Live handles, oldest last_touch first; expired weak_ptrs are pruned.
  std::vector<std::shared_ptr<SegmentHandle>> SnapshotLru();

  storage::ObjectStore* store_;
  std::unique_ptr<common::RetryPolicy> store_retry_;
  std::function<int64_t()> external_bytes_fn_;

  std::mutex registry_mu_;
  std::vector<std::weak_ptr<SegmentHandle>> handles_;

  std::mutex enforce_mu_;  ///< one budget / tier-target pass at a time
  std::atomic<int64_t> budget_{0};
  std::atomic<uint64_t> clock_{0};

  Gauge* hot_bytes_;
  Gauge* warm_bytes_;
  Gauge* cold_bytes_;
  Counter* demotions_;
  Counter* promotions_;
  Counter* materializations_;
};

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_LIFECYCLE_H_
