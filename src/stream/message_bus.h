#ifndef UBERRT_STREAM_MESSAGE_BUS_H_
#define UBERRT_STREAM_MESSAGE_BUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/log.h"
#include "stream/message.h"

namespace uberrt::stream {

/// Producer acknowledgement level, as in Kafka.
enum class AckMode {
  kNone = 0,    ///< fire-and-forget
  kLeader = 1,  ///< leader append acknowledged
  kAll = 2,     ///< all replicas acknowledged (higher coordination cost)
};

/// Per-topic configuration. `lossless = false` models the topic tuning the
/// paper describes for surge pricing (Section 5.1): "the Kafka cluster
/// configured for higher throughput but not lossless guarantee" — producing
/// to an unavailable non-lossless topic silently drops instead of failing.
struct TopicConfig {
  int32_t num_partitions = 1;
  int32_t replication_factor = 1;
  RetentionPolicy retention;
  bool lossless = true;
};

struct ProduceResult {
  int32_t partition = -1;
  int64_t offset = -1;
  bool dropped = false;  ///< true when a non-lossless topic dropped the message
};

/// Client-facing pub/sub surface — the paper's "Stream" abstraction
/// (Section 3). Both a single physical cluster (Broker) and the federated
/// logical cluster (KafkaFederation, Section 4.1.1) implement it, which is
/// precisely how federation stays transparent: producers and consumers are
/// written against this interface and never know which physical cluster
/// hosts a topic.
class MessageBus {
 public:
  virtual ~MessageBus() = default;

  virtual Status CreateTopic(const std::string& topic, TopicConfig config) = 0;
  virtual bool HasTopic(const std::string& topic) const = 0;
  virtual Result<int32_t> NumPartitions(const std::string& topic) const = 0;

  /// Appends one message. Taken by reference: the bus encodes it straight
  /// into the partition log, and a failover retry reuses the same message.
  virtual Result<ProduceResult> Produce(const std::string& topic, const Message& message,
                                        AckMode ack) = 0;

  /// Appends a pre-encoded batch (wire::BatchBuilder) to one partition.
  /// ProduceResult.offset is the base offset of the batch's first record.
  /// Timestamps are the producer's responsibility: frames are appended as
  /// encoded, never re-stamped.
  virtual Result<ProduceResult> ProduceBatch(const std::string& topic,
                                             int32_t partition,
                                             const wire::EncodedBatch& batch,
                                             AckMode ack) = 0;

  /// The one read primitive: a batch of borrowed zero-copy views (see
  /// FetchedBatch for the lifetime rules). Callers that must own the data
  /// call MessageView::ToMessage() on the views they keep.
  virtual Result<FetchedBatch> FetchViews(const std::string& topic,
                                          int32_t partition, int64_t offset,
                                          size_t max_messages) const = 0;
  virtual Result<int64_t> BeginOffset(const std::string& topic,
                                      int32_t partition) const = 0;
  virtual Result<int64_t> EndOffset(const std::string& topic,
                                    int32_t partition) const = 0;

  virtual Status JoinGroup(const std::string& group, const std::string& topic,
                           const std::string& member) = 0;
  virtual Status LeaveGroup(const std::string& group, const std::string& topic,
                            const std::string& member) = 0;
  virtual Result<std::vector<int32_t>> GetAssignment(const std::string& group,
                                                     const std::string& topic,
                                                     const std::string& member) const = 0;
  virtual int64_t GroupGeneration(const std::string& group,
                                  const std::string& topic) const = 0;
  virtual Status CommitOffset(const std::string& group, const std::string& topic,
                              int32_t partition, int64_t offset) = 0;
  virtual Result<int64_t> CommittedOffset(const std::string& group,
                                          const std::string& topic,
                                          int32_t partition) const = 0;
  virtual Result<int64_t> ConsumerLag(const std::string& group,
                                      const std::string& topic) const = 0;
};

}  // namespace uberrt::stream

#endif  // UBERRT_STREAM_MESSAGE_BUS_H_
