#ifndef UBERRT_STREAM_BROKER_H_
#define UBERRT_STREAM_BROKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/status.h"
#include "stream/admission.h"
#include "stream/log.h"
#include "stream/message.h"
#include "stream/message_bus.h"

namespace uberrt::stream {

/// Physical-cluster behaviour knobs.
///
/// `num_nodes` together with the coordination model reproduces the empirical
/// observation of Section 4.1.1 that "the ideal cluster size is less than
/// 150 nodes for optimum performance": every produce pays a coordination
/// cost (controller metadata + replication bookkeeping) that grows
/// superlinearly with cluster size, so aggregate cluster capacity
/// (nodes x per-produce rate) peaks near 120-150 nodes and degrades beyond.
/// With `coordination_model_enabled = false` (the default) no artificial
/// work is done.
struct BrokerOptions {
  int32_t num_nodes = 3;
  bool coordination_model_enabled = false;
  /// Per-produce busy-work iterations: base + quad * num_nodes^2.
  double coordination_base_iters = 30.0;
  double coordination_quad_iters = 0.004;
};

/// One physical Kafka-like cluster: topics of partitioned append-only logs,
/// producer acks, consumer-group coordination with committed offsets, and
/// retention enforcement.
///
/// Thread-safe: every public method may be called concurrently with every
/// other, including DeleteTopic and SetAvailable racing in-flight
/// produce/fetch traffic. Topics are `shared_ptr`-owned — an operation takes
/// a reference under the topic-map lock and keeps the topic (and its
/// partition logs) alive for the duration of the call, so a concurrent
/// DeleteTopic never invalidates data another thread is touching; the topic
/// is destroyed when the last in-flight operation drops its reference. Three
/// independent locks (topic map, group map, committed-offset map) keep
/// produce/fetch on different topics and group coordination from
/// serializing on one broker-wide mutex; see DESIGN.md "Threading model"
/// for the lock ordering rules.
class Broker : public MessageBus {
 public:
  explicit Broker(std::string name, BrokerOptions options = {},
                  Clock* clock = SystemClock::Instance());

  const std::string& name() const { return name_; }
  const BrokerOptions& options() const { return options_; }

  // --- Topic management -------------------------------------------------

  Status CreateTopic(const std::string& topic, TopicConfig config) override;
  /// Removes the topic from the map. In-flight operations that already hold
  /// a reference finish against the orphaned logs; new calls get NotFound.
  Status DeleteTopic(const std::string& topic);
  bool HasTopic(const std::string& topic) const override;
  Result<TopicConfig> GetTopicConfig(const std::string& topic) const;
  std::vector<std::string> ListTopics() const;
  Result<int32_t> NumPartitions(const std::string& topic) const override;

  // --- Produce / fetch ---------------------------------------------------

  /// Appends a message. The partition is `message.partition` when >= 0,
  /// otherwise derived from the key hash, otherwise round-robin. A message
  /// with timestamp 0 is stamped with the broker clock; that is the only
  /// case that copies it.
  /// A missing topic is NotFound even while the cluster is unavailable, so
  /// retry logic never spins on a topic that will never exist.
  Result<ProduceResult> Produce(const std::string& topic, const Message& message,
                                AckMode ack = AckMode::kLeader) override;

  /// Appends a pre-encoded batch to one explicit partition with a single
  /// memcpy into the partition log's arena segment — the per-batch costs
  /// (topic lookup, availability/fault gates, coordination work) are paid
  /// once for the whole batch. Non-lossless topics drop the entire batch
  /// while the cluster is down, mirroring Produce.
  Result<ProduceResult> ProduceBatch(const std::string& topic, int32_t partition,
                                     const wire::EncodedBatch& batch,
                                     AckMode ack = AckMode::kLeader) override;

  /// Offset-preserving replication (federated topic migration), exempt
  /// from admission and the fault plane. Replicate appends a batch whose
  /// first record lands at `base_offset` in `partition`
  /// (PartitionLog::AppendBatchAt); ReplicateStartOffset moves an empty
  /// partition's log start offset to the source's (PartitionLog::StartAt).
  Status Replicate(const std::string& topic, int32_t partition, int64_t base_offset,
                   const wire::EncodedBatch& batch);
  Status ReplicateStartOffset(const std::string& topic, int32_t partition,
                              int64_t start_offset);

  /// Zero-copy batch fetch: borrowed views into the partition log's arena
  /// segments, no per-message allocation (see FetchedBatch lifetime rules).
  Result<FetchedBatch> FetchViews(const std::string& topic, int32_t partition,
                                  int64_t offset, size_t max_messages) const override;

  Result<int64_t> BeginOffset(const std::string& topic, int32_t partition) const override;
  Result<int64_t> EndOffset(const std::string& topic, int32_t partition) const override;

  // --- Consumer group coordination ---------------------------------------

  /// Adds the member to the group for the topic and triggers a rebalance.
  Status JoinGroup(const std::string& group, const std::string& topic,
                   const std::string& member) override;
  Status LeaveGroup(const std::string& group, const std::string& topic,
                    const std::string& member) override;
  /// Range assignment of the topic's partitions for this member: partitions
  /// are split into contiguous blocks, one block per member in sorted member
  /// order (Kafka's default strategy). Bumps with every membership change;
  /// poll loops re-read it each cycle.
  Result<std::vector<int32_t>> GetAssignment(const std::string& group,
                                             const std::string& topic,
                                             const std::string& member) const override;
  /// Rebalance generation for (group, topic); starts at 0.
  int64_t GroupGeneration(const std::string& group, const std::string& topic) const override;

  Status CommitOffset(const std::string& group, const std::string& topic,
                      int32_t partition, int64_t offset) override;
  /// NotFound until the first commit.
  Result<int64_t> CommittedOffset(const std::string& group, const std::string& topic,
                                  int32_t partition) const override;

  /// Sum over partitions of (end offset - committed offset) for the group.
  Result<int64_t> ConsumerLag(const std::string& group, const std::string& topic) const override;

  // --- Operations ---------------------------------------------------------

  /// Applies every topic's retention policy; returns total dropped messages.
  int64_t ApplyRetention();

  /// Memory held by the cluster's partition logs, summed over every topic.
  LogFootprint Footprint() const;

  /// Simulates a whole-cluster outage (tolerated by federation, Section 4.1.1).
  void SetAvailable(bool available);
  bool available() const;

  /// Attaches the process-wide fault plane. Produce consults
  /// Check("broker.produce.<name>") and FetchViews Check("broker.fetch.<name>")
  /// after the availability gate, so an injected produce fault always means
  /// the message was NOT appended (acked-or-error for lossless topics).
  void SetFaultInjector(common::FaultInjector* faults) {
    faults_.store(faults, std::memory_order_release);
  }

  /// Attaches a capacity admission layer consulted on every Produce /
  /// ProduceBatch after the availability and fault gates, before the append
  /// (a rejected produce was never stored). Priority comes from the
  /// message's kHeaderPriority header; batches are admitted at kImportant
  /// with units = record_count. Replicate() is exempt: replication is
  /// internal traffic whose source was already admitted. Pass nullptr to
  /// detach. The admission object must outlive the broker or be detached
  /// first.
  void SetAdmission(ProduceAdmission* admission) {
    admission_.store(admission, std::memory_order_release);
  }

  MetricsRegistry* metrics() { return &metrics_; }

 private:
  /// Immutable shape after creation: `config` and the `partitions` vector
  /// never change (PartitionLog is internally synchronized), so holders of a
  /// shared_ptr<Topic> may read them without any broker lock.
  struct Topic {
    TopicConfig config;
    std::vector<std::unique_ptr<PartitionLog>> partitions;
    std::atomic<uint64_t> round_robin{0};
  };
  struct Group {
    std::vector<std::string> members;  // sorted
    int64_t generation = 0;
  };

  /// Looks up the topic under `topics_mu_` and returns an owning reference.
  Result<std::shared_ptr<Topic>> FindTopic(const std::string& topic) const;
  /// The target log of a Replicate* call: NotFound, Unavailable while the
  /// cluster is down, InvalidArgument on a bad partition.
  Result<PartitionLog*> ReplicaLog(const std::string& topic, int32_t partition,
                                   std::shared_ptr<Topic>* holder) const;
  void SpinCoordinationWork(AckMode ack) const;

  std::string name_;
  BrokerOptions options_;
  Clock* clock_;

  // Lock order (when nesting is unavoidable): topics_mu_ -> groups_mu_ ->
  // offsets_mu_. Current code never holds two at once; broker calls into
  // PartitionLog (its own mutex) only after releasing broker locks or from
  // an owned shared_ptr.
  mutable std::mutex topics_mu_;   // guards topics_ (the map, not the Topics)
  std::map<std::string, std::shared_ptr<Topic>> topics_;
  mutable std::mutex groups_mu_;   // guards groups_
  // keyed by group + '\0' + topic
  std::map<std::string, Group> groups_;
  mutable std::mutex offsets_mu_;  // guards committed_
  std::map<std::string, int64_t> committed_;  // group\0topic\0partition -> offset
  std::atomic<bool> available_{true};
  std::atomic<common::FaultInjector*> faults_{nullptr};
  std::atomic<ProduceAdmission*> admission_{nullptr};
  // Cached site names so the hot path does not concatenate per call.
  std::string produce_site_;
  std::string fetch_site_;
  mutable MetricsRegistry metrics_;
  // Hot-path counters resolved once; MetricsRegistry pointers are stable.
  Counter* produced_counter_;
  Counter* dropped_counter_;
  Counter* retention_dropped_counter_;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_BROKER_H_
