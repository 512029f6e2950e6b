#ifndef UBERRT_STREAM_CONSUMER_H_
#define UBERRT_STREAM_CONSUMER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/message_bus.h"

namespace uberrt::stream {

/// Where a consumer starts when it has no committed offset.
enum class OffsetReset { kEarliest, kLatest };

/// Group consumer against a MessageBus (physical or federated logical
/// cluster). Mirrors the Kafka client model: join a group, poll the
/// partitions assigned to this member, commit positions. Rebalances are
/// picked up automatically at the next PollViews when the group generation
/// moved (a member joined/left or the topic migrated clusters).
///
/// Not thread-safe: one Consumer per thread, like the Kafka client.
class Consumer {
 public:
  Consumer(MessageBus* bus, std::string group, std::string topic,
           std::string member_id, OffsetReset reset = OffsetReset::kEarliest);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Joins the consumer group. Must be called before PollViews.
  Status Subscribe();

  /// Leaves the group.
  Status Close();

  /// Batch fetch: up to `max_messages` borrowed zero-copy views from this
  /// member's assigned partitions (round-robin across them; empty when
  /// caught up). The returned FetchedBatch pins the log segments the views
  /// borrow, so they outlive retention and rebalances; decode to owning
  /// Messages (view.ToMessage()) only where ownership is genuinely needed.
  Result<FetchedBatch> PollViews(size_t max_messages);

  /// Commits the positions reached by PollViews for all assigned partitions.
  Status Commit();

  /// Positions currently held (partition -> next offset to read).
  const std::map<int32_t, int64_t>& positions() const { return positions_; }

  /// Overrides the position of one partition (used by failover logic that
  /// resumes from a synced offset, Section 6).
  void Seek(int32_t partition, int64_t offset) { positions_[partition] = offset; }

  const std::string& member_id() const { return member_id_; }

 private:
  Status RefreshAssignmentIfNeeded();
  Result<int64_t> InitialOffset(int32_t partition) const;

  MessageBus* bus_;
  std::string group_;
  std::string topic_;
  std::string member_id_;
  OffsetReset reset_;
  bool subscribed_ = false;
  int64_t seen_generation_ = -1;
  std::vector<int32_t> assignment_;
  std::map<int32_t, int64_t> positions_;
  size_t next_partition_index_ = 0;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_CONSUMER_H_
