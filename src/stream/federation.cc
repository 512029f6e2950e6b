#include "stream/federation.h"

#include <algorithm>

#include "stream/assignment.h"

namespace uberrt::stream {

namespace {

std::string GroupKey(const std::string& group, const std::string& topic) {
  return group + '\0' + topic;
}

std::string OffsetKey(const std::string& group, const std::string& topic,
                      int32_t partition) {
  return group + '\0' + topic + '\0' + std::to_string(partition);
}

/// Copies every retained record of `topic` from `source` to the same
/// partition and offset on `target`: each fetch's raw frames are re-appended
/// verbatim as one batch, as uReplicator does — no Message is materialized.
Status CopyTopic(const Broker& source, Broker* target, const std::string& topic) {
  Result<int32_t> partitions = source.NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = source.BeginOffset(topic, p);
    Result<int64_t> end = source.EndOffset(topic, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    int64_t offset = begin.value();
    // A source truncated by retention (possibly to empty) keeps its log
    // start offset, so offsets consumers committed past are never reused.
    if (offset > 0) {
      UBERRT_RETURN_IF_ERROR(target->ReplicateStartOffset(topic, p, offset));
    }
    while (offset < end.value()) {
      Result<FetchedBatch> batch = source.FetchViews(topic, p, offset, 1024);
      if (!batch.ok()) return batch.status();
      if (batch.value().empty()) break;
      wire::BatchBuilder builder;
      for (const wire::MessageView& v : batch.value().messages) {
        builder.AddEncodedFrame(v.raw_frame, v.timestamp);
      }
      UBERRT_RETURN_IF_ERROR(
          target->Replicate(topic, p, offset, builder.Finish()));
      offset = batch.value().messages.back().offset + 1;
    }
  }
  return Status::Ok();
}

}  // namespace

Status KafkaFederation::AddCluster(std::unique_ptr<Broker> cluster,
                                   int32_t topic_capacity) {
  if (!cluster) return Status::InvalidArgument("null cluster");
  if (topic_capacity <= 0) return Status::InvalidArgument("capacity must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  std::string name = cluster->name();
  if (clusters_.count(name) > 0) return Status::AlreadyExists("cluster: " + name);
  ClusterEntry entry;
  entry.broker = std::move(cluster);
  entry.topic_capacity = topic_capacity;
  clusters_.emplace(std::move(name), std::move(entry));
  return Status::Ok();
}

Result<std::shared_ptr<Broker>> KafkaFederation::GetCluster(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clusters_.find(name);
  if (it == clusters_.end()) return Status::NotFound("no cluster: " + name);
  return it->second.broker;
}

std::vector<std::string> KafkaFederation::ListClusters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : clusters_) out.push_back(name);
  return out;
}

Result<std::string> KafkaFederation::HostingCluster(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topic_to_cluster_.find(topic);
  if (it == topic_to_cluster_.end()) return Status::NotFound("no topic: " + topic);
  return it->second;
}

Result<KafkaFederation::ClusterEntry*> KafkaFederation::PickClusterLocked() {
  ClusterEntry* best = nullptr;
  for (auto& [name, entry] : clusters_) {
    if (!entry.broker->available()) continue;
    if (entry.hosted_topics >= entry.topic_capacity) continue;
    if (best == nullptr || entry.hosted_topics < best->hosted_topics) best = &entry;
  }
  if (best == nullptr) {
    return Status::ResourceExhausted("all clusters full or down; add a cluster");
  }
  return best;
}

Result<std::shared_ptr<Broker>> KafkaFederation::RouteLocked(
    const std::string& topic) const {
  auto it = topic_to_cluster_.find(topic);
  if (it == topic_to_cluster_.end()) return Status::NotFound("no topic: " + topic);
  auto cit = clusters_.find(it->second);
  if (cit == clusters_.end()) return Status::Internal("dangling cluster route");
  return cit->second.broker;
}

Result<std::shared_ptr<Broker>> KafkaFederation::Route(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  return RouteLocked(topic);
}

Status KafkaFederation::CreateTopic(const std::string& topic, TopicConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  if (topic_to_cluster_.count(topic) > 0) {
    return Status::AlreadyExists("topic exists: " + topic);
  }
  Result<ClusterEntry*> picked = PickClusterLocked();
  if (!picked.ok()) return picked.status();
  UBERRT_RETURN_IF_ERROR(picked.value()->broker->CreateTopic(topic, config));
  picked.value()->hosted_topics++;
  topic_to_cluster_[topic] = picked.value()->broker->name();
  topic_configs_[topic] = config;
  topics_created_->Increment();
  return Status::Ok();
}

bool KafkaFederation::HasTopic(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  return topic_to_cluster_.count(topic) > 0;
}

Result<int32_t> KafkaFederation::NumPartitions(const std::string& topic) const {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  return broker.value()->NumPartitions(topic);
}

Result<ProduceResult> KafkaFederation::Produce(const std::string& topic,
                                               const Message& message, AckMode ack) {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  Result<ProduceResult> result = broker.value()->Produce(topic, message, ack);
  if (result.ok() || !result.status().IsUnavailable()) return result;
  // Hosting cluster is down: fail the topic over to a healthy cluster and
  // retry once. This is the availability improvement of federation.
  UBERRT_RETURN_IF_ERROR(FailoverTopic(topic));
  Result<std::shared_ptr<Broker>> rerouted = Route(topic);
  if (!rerouted.ok()) return rerouted.status();
  failover_produces_->Increment();
  return rerouted.value()->Produce(topic, message, ack);
}

Result<ProduceResult> KafkaFederation::ProduceBatch(const std::string& topic,
                                                    int32_t partition,
                                                    const wire::EncodedBatch& batch,
                                                    AckMode ack) {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  Result<ProduceResult> result = broker.value()->ProduceBatch(topic, partition, batch, ack);
  if (result.ok() || !result.status().IsUnavailable()) return result;
  // Hosting cluster is down: fail over and retry once, exactly like the
  // per-message path. The batch was not appended (acked-or-error holds).
  UBERRT_RETURN_IF_ERROR(FailoverTopic(topic));
  Result<std::shared_ptr<Broker>> rerouted = Route(topic);
  if (!rerouted.ok()) return rerouted.status();
  failover_produces_->Increment();
  return rerouted.value()->ProduceBatch(topic, partition, batch, ack);
}

Result<FetchedBatch> KafkaFederation::FetchViews(const std::string& topic,
                                                 int32_t partition, int64_t offset,
                                                 size_t max_messages) const {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  return broker.value()->FetchViews(topic, partition, offset, max_messages);
}

Result<int64_t> KafkaFederation::BeginOffset(const std::string& topic,
                                             int32_t partition) const {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  return broker.value()->BeginOffset(topic, partition);
}

Result<int64_t> KafkaFederation::EndOffset(const std::string& topic,
                                           int32_t partition) const {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  return broker.value()->EndOffset(topic, partition);
}

Status KafkaFederation::MigrateTopic(const std::string& topic,
                                     const std::string& target_cluster) {
  std::shared_ptr<Broker> source;
  std::shared_ptr<Broker> target;
  TopicConfig config;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Result<std::shared_ptr<Broker>> src = RouteLocked(topic);
    if (!src.ok()) return src.status();
    source = src.value();
    if (source->name() == target_cluster) {
      return Status::InvalidArgument("topic already on " + target_cluster);
    }
    auto cit = clusters_.find(target_cluster);
    if (cit == clusters_.end()) return Status::NotFound("no cluster: " + target_cluster);
    if (cit->second.hosted_topics >= cit->second.topic_capacity) {
      return Status::ResourceExhausted("target cluster full");
    }
    target = cit->second.broker;
    config = topic_configs_[topic];
  }
  // Copy data preserving partition/offset so consumer positions stay valid.
  UBERRT_RETURN_IF_ERROR(target->CreateTopic(topic, config));
  Status copied = CopyTopic(*source, target.get(), topic);
  if (!copied.ok()) {
    target->DeleteTopic(topic).ok();  // no orphan: a retry starts clean
    return copied;
  }
  // Flip the route atomically; in-flight consumers continue seamlessly.
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string old_cluster = topic_to_cluster_[topic];
    clusters_[old_cluster].hosted_topics--;
    clusters_[target_cluster].hosted_topics++;
    topic_to_cluster_[topic] = target_cluster;
  }
  source->DeleteTopic(topic).ok();
  migrations_->Increment();
  return Status::Ok();
}

Status KafkaFederation::FailoverTopic(const std::string& topic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topic_to_cluster_.find(topic);
  if (it == topic_to_cluster_.end()) return Status::NotFound("no topic: " + topic);
  auto old_cluster = clusters_.find(it->second);
  if (old_cluster != clusters_.end() && old_cluster->second.broker->available()) {
    return Status::FailedPrecondition("hosting cluster is healthy");
  }
  Result<ClusterEntry*> picked = PickClusterLocked();
  if (!picked.ok()) return picked.status();
  UBERRT_RETURN_IF_ERROR(
      picked.value()->broker->CreateTopic(topic, topic_configs_[topic]));
  if (old_cluster != clusters_.end()) old_cluster->second.hosted_topics--;
  picked.value()->hosted_topics++;
  it->second = picked.value()->broker->name();
  failovers_->Increment();
  return Status::Ok();
}

Status KafkaFederation::JoinGroup(const std::string& group, const std::string& topic,
                                  const std::string& member) {
  std::lock_guard<std::mutex> lock(mu_);
  if (topic_to_cluster_.count(topic) == 0) return Status::NotFound("no topic: " + topic);
  Group& g = groups_[GroupKey(group, topic)];
  if (std::find(g.members.begin(), g.members.end(), member) != g.members.end()) {
    return Status::AlreadyExists("member already in group");
  }
  g.members.push_back(member);
  std::sort(g.members.begin(), g.members.end());
  ++g.generation;
  return Status::Ok();
}

Status KafkaFederation::LeaveGroup(const std::string& group, const std::string& topic,
                                   const std::string& member) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(GroupKey(group, topic));
  if (it == groups_.end()) return Status::NotFound("no such group");
  auto& members = it->second.members;
  auto pos = std::find(members.begin(), members.end(), member);
  if (pos == members.end()) return Status::NotFound("member not in group");
  members.erase(pos);
  ++it->second.generation;
  return Status::Ok();
}

Result<std::vector<int32_t>> KafkaFederation::GetAssignment(
    const std::string& group, const std::string& topic,
    const std::string& member) const {
  int32_t num_partitions = 0;
  {
    Result<int32_t> n = NumPartitions(topic);
    if (!n.ok()) return n.status();
    num_partitions = n.value();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto git = groups_.find(GroupKey(group, topic));
  if (git == groups_.end()) return Status::NotFound("no such group");
  const auto& members = git->second.members;
  auto pos = std::find(members.begin(), members.end(), member);
  if (pos == members.end()) return Status::NotFound("member not in group");
  int32_t member_index = static_cast<int32_t>(pos - members.begin());
  int32_t num_members = static_cast<int32_t>(members.size());
  return RangeAssignment(num_partitions, num_members, member_index);
}

int64_t KafkaFederation::GroupGeneration(const std::string& group,
                                         const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(GroupKey(group, topic));
  return it == groups_.end() ? 0 : it->second.generation;
}

Status KafkaFederation::CommitOffset(const std::string& group, const std::string& topic,
                                     int32_t partition, int64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  committed_[OffsetKey(group, topic, partition)] = offset;
  return Status::Ok();
}

Result<int64_t> KafkaFederation::CommittedOffset(const std::string& group,
                                                 const std::string& topic,
                                                 int32_t partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = committed_.find(OffsetKey(group, topic, partition));
  if (it == committed_.end()) return Status::NotFound("no committed offset");
  return it->second;
}

Result<int64_t> KafkaFederation::ConsumerLag(const std::string& group,
                                             const std::string& topic) const {
  Result<std::shared_ptr<Broker>> broker = Route(topic);
  if (!broker.ok()) return broker.status();
  Result<int32_t> partitions = broker.value()->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  int64_t lag = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> end = broker.value()->EndOffset(topic, p);
    if (!end.ok()) return end.status();
    int64_t committed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = committed_.find(OffsetKey(group, topic, p));
      if (it != committed_.end()) {
        committed = it->second;
      } else {
        Result<int64_t> begin = broker.value()->BeginOffset(topic, p);
        if (!begin.ok()) return begin.status();
        committed = begin.value();
      }
    }
    lag += std::max<int64_t>(0, end.value() - committed);
  }
  return lag;
}

}  // namespace uberrt::stream
