#include "stream/broker.h"

#include <algorithm>

#include "common/hash.h"
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

}  // namespace

Broker::Broker(std::string name, BrokerOptions options, Clock* clock)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      produce_site_("broker.produce." + name_),
      fetch_site_("broker.fetch." + name_),
      produced_counter_(metrics_.GetCounter("broker." + name_ + ".produced")),
      dropped_counter_(metrics_.GetCounter("broker." + name_ + ".dropped")),
      retention_dropped_counter_(
          metrics_.GetCounter("broker." + name_ + ".retention_dropped")) {}

Status Broker::CreateTopic(const std::string& topic, TopicConfig config) {
  if (config.num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  auto t = std::make_shared<Topic>();
  t->config = config;
  t->partitions.reserve(static_cast<size_t>(config.num_partitions));
  for (int32_t i = 0; i < config.num_partitions; ++i) {
    t->partitions.push_back(std::make_unique<PartitionLog>());
  }
  std::lock_guard<std::mutex> lock(topics_mu_);
  if (topics_.count(topic) > 0) {
    return Status::AlreadyExists("topic exists: " + topic);
  }
  topics_.emplace(topic, std::move(t));
  return Status::Ok();
}

Status Broker::DeleteTopic(const std::string& topic) {
  std::shared_ptr<Topic> doomed;
  {
    std::lock_guard<std::mutex> lock(topics_mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return Status::NotFound("no topic: " + topic);
    // Keep the last reference until after the lock is released so the
    // (potentially large) logs are never destroyed under topics_mu_.
    doomed = std::move(it->second);
    topics_.erase(it);
  }
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  return topics_.count(topic) > 0;
}

Result<TopicConfig> Broker::GetTopicConfig(const std::string& topic) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  return found.value()->config;
}

std::vector<std::string> Broker::ListTopics() const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  std::vector<std::string> out;
  for (const auto& [name, topic] : topics_) out.push_back(name);
  return out;
}

Result<int32_t> Broker::NumPartitions(const std::string& topic) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  return static_cast<int32_t>(found.value()->partitions.size());
}

Result<std::shared_ptr<Broker::Topic>> Broker::FindTopic(
    const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("no topic: " + topic);
  return it->second;
}

void Broker::SpinCoordinationWork(AckMode ack) const {
  if (!options_.coordination_model_enabled) return;
  double iters = options_.coordination_base_iters +
                 options_.coordination_quad_iters *
                     static_cast<double>(options_.num_nodes) *
                     static_cast<double>(options_.num_nodes);
  if (ack == AckMode::kAll) iters *= 2.0;  // replica round trips
  volatile double sink = 0.0;
  for (int64_t i = 0; i < static_cast<int64_t>(iters); ++i) {
    sink = sink + static_cast<double>(i) * 1e-9;
  }
  (void)sink;
}

Result<ProduceResult> Broker::Produce(const std::string& topic, const Message& message,
                                      AckMode ack) {
  // Topic existence is checked before availability: a missing topic is
  // NotFound even while the cluster is down, so federation retry logic does
  // not spin forever on a topic that will never exist.
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  if (!available_.load(std::memory_order_acquire)) {
    if (!t->config.lossless) {
      // Availability over consistency: non-lossless topics drop silently.
      dropped_counter_->Increment();
      ProduceResult dropped;
      dropped.dropped = true;
      return dropped;
    }
    if (ack == AckMode::kNone) {
      ProduceResult lost;
      lost.dropped = true;
      return lost;  // fire-and-forget into a dead cluster
    }
    return Status::Unavailable("cluster " + name_ + " down");
  }
  // Injected faults fire before the append: an error return always means the
  // message was not stored, so lossless producers see acked-or-error.
  if (common::FaultInjector* faults = faults_.load(std::memory_order_acquire)) {
    UBERRT_RETURN_IF_ERROR(faults->Check(produce_site_));
  }
  // Capacity admission also fires before the append: a shed produce was
  // never stored, so the acked-or-error contract extends to load shedding.
  if (ProduceAdmission* admission = admission_.load(std::memory_order_acquire)) {
    Priority priority = Priority::kImportant;
    auto header = message.headers.find(kHeaderPriority);
    if (header != message.headers.end()) {
      priority = PriorityFromString(header->second);
    }
    UBERRT_RETURN_IF_ERROR(admission->AdmitProduce(topic, priority, 1));
  }
  SpinCoordinationWork(ack);
  int32_t partition = message.partition;
  int32_t num_partitions = static_cast<int32_t>(t->partitions.size());
  if (partition < 0) {
    if (!message.key.empty()) {
      partition = static_cast<int32_t>(
          KeyToPartition(message.key, static_cast<uint32_t>(num_partitions)));
    } else {
      partition = static_cast<int32_t>(t->round_robin.fetch_add(1) %
                                       static_cast<uint64_t>(num_partitions));
    }
  }
  if (partition >= num_partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  PartitionLog& log = *t->partitions[static_cast<size_t>(partition)];
  int64_t offset;
  if (message.timestamp != 0) {
    offset = log.Append(message);
  } else {
    Message stamped = message;
    stamped.timestamp = clock_->NowMs();
    offset = log.Append(stamped);
  }
  produced_counter_->Increment();
  ProduceResult result;
  result.partition = partition;
  result.offset = offset;
  return result;
}

Result<ProduceResult> Broker::ProduceBatch(const std::string& topic, int32_t partition,
                                           const wire::EncodedBatch& batch,
                                           AckMode ack) {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  if (partition < 0 || partition >= static_cast<int32_t>(t->partitions.size())) {
    return Status::InvalidArgument("partition out of range");
  }
  if (!available_.load(std::memory_order_acquire)) {
    if (!t->config.lossless || ack == AckMode::kNone) {
      // Availability over consistency: the whole batch drops silently.
      if (!t->config.lossless) dropped_counter_->Increment(batch.record_count);
      ProduceResult dropped;
      dropped.dropped = true;
      return dropped;
    }
    return Status::Unavailable("cluster " + name_ + " down");
  }
  // Faults fire before the append; an error always means nothing was stored.
  if (common::FaultInjector* faults = faults_.load(std::memory_order_acquire)) {
    UBERRT_RETURN_IF_ERROR(faults->Check(produce_site_));
  }
  // Batches carry no per-record headers; admit at the default priority with
  // the whole batch as one unit block (shed-or-stored, never split).
  if (ProduceAdmission* admission = admission_.load(std::memory_order_acquire)) {
    UBERRT_RETURN_IF_ERROR(
        admission->AdmitProduce(topic, Priority::kImportant, batch.record_count));
  }
  // One coordination round trip per batch, not per record — the lever the
  // Kafka benchmark-practices paper identifies as dominating throughput.
  SpinCoordinationWork(ack);
  Result<int64_t> base =
      t->partitions[static_cast<size_t>(partition)]->AppendBatch(batch);
  if (!base.ok()) return base.status();
  produced_counter_->Increment(batch.record_count);
  ProduceResult result;
  result.partition = partition;
  result.offset = base.value();
  return result;
}

Result<PartitionLog*> Broker::ReplicaLog(const std::string& topic, int32_t partition,
                                         std::shared_ptr<Topic>* holder) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  *holder = std::move(found.value());
  if (!available_.load(std::memory_order_acquire)) {
    return Status::Unavailable("cluster " + name_ + " down");
  }
  if (partition < 0 || partition >= static_cast<int32_t>((*holder)->partitions.size())) {
    return Status::InvalidArgument("replicate: bad partition");
  }
  return (*holder)->partitions[static_cast<size_t>(partition)].get();
}

Status Broker::Replicate(const std::string& topic, int32_t partition,
                         int64_t base_offset, const wire::EncodedBatch& batch) {
  std::shared_ptr<Topic> holder;
  Result<PartitionLog*> log = ReplicaLog(topic, partition, &holder);
  if (!log.ok()) return log.status();
  return log.value()->AppendBatchAt(batch, base_offset);
}

Status Broker::ReplicateStartOffset(const std::string& topic, int32_t partition,
                                    int64_t start_offset) {
  std::shared_ptr<Topic> holder;
  Result<PartitionLog*> log = ReplicaLog(topic, partition, &holder);
  if (!log.ok()) return log.status();
  return log.value()->StartAt(start_offset);
}

Result<FetchedBatch> Broker::FetchViews(const std::string& topic, int32_t partition,
                                        int64_t offset, size_t max_messages) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  if (!available_.load(std::memory_order_acquire)) {
    return Status::Unavailable("cluster " + name_ + " down");
  }
  if (common::FaultInjector* faults = faults_.load(std::memory_order_acquire)) {
    UBERRT_RETURN_IF_ERROR(faults->Check(fetch_site_));
  }
  if (partition < 0 || partition >= static_cast<int32_t>(t->partitions.size())) {
    return Status::InvalidArgument("partition out of range");
  }
  Result<FetchedBatch> views =
      t->partitions[static_cast<size_t>(partition)]->ReadViews(offset, max_messages);
  if (!views.ok()) return views.status();
  // Frames don't store the partition; stamp it at the read boundary. The
  // views outlive the topic even if DeleteTopic or retention race this read
  // (they pin the arena segments).
  for (wire::MessageView& v : views.value().messages) v.partition = partition;
  return views;
}

Result<int64_t> Broker::BeginOffset(const std::string& topic, int32_t partition) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  if (partition < 0 || partition >= static_cast<int32_t>(t->partitions.size())) {
    return Status::InvalidArgument("partition out of range");
  }
  return t->partitions[static_cast<size_t>(partition)]->BeginOffset();
}

Result<int64_t> Broker::EndOffset(const std::string& topic, int32_t partition) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  if (partition < 0 || partition >= static_cast<int32_t>(t->partitions.size())) {
    return Status::InvalidArgument("partition out of range");
  }
  return t->partitions[static_cast<size_t>(partition)]->EndOffset();
}

Status Broker::JoinGroup(const std::string& group, const std::string& topic,
                         const std::string& member) {
  if (!HasTopic(topic)) return Status::NotFound("no topic: " + topic);
  std::lock_guard<std::mutex> lock(groups_mu_);
  Group& g = groups_[GroupKey(group, topic)];
  if (std::find(g.members.begin(), g.members.end(), member) != g.members.end()) {
    return Status::AlreadyExists("member already in group");
  }
  g.members.push_back(member);
  std::sort(g.members.begin(), g.members.end());
  ++g.generation;
  return Status::Ok();
}

Status Broker::LeaveGroup(const std::string& group, const std::string& topic,
                          const std::string& member) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto it = groups_.find(GroupKey(group, topic));
  if (it == groups_.end()) return Status::NotFound("no such group");
  auto& members = it->second.members;
  auto pos = std::find(members.begin(), members.end(), member);
  if (pos == members.end()) return Status::NotFound("member not in group");
  members.erase(pos);
  ++it->second.generation;
  return Status::Ok();
}

Result<std::vector<int32_t>> Broker::GetAssignment(const std::string& group,
                                                   const std::string& topic,
                                                   const std::string& member) const {
  int32_t member_index = -1;
  int32_t num_members = 0;
  {
    std::lock_guard<std::mutex> lock(groups_mu_);
    auto git = groups_.find(GroupKey(group, topic));
    if (git == groups_.end()) return Status::NotFound("no such group");
    const auto& members = git->second.members;
    auto pos = std::find(members.begin(), members.end(), member);
    if (pos == members.end()) return Status::NotFound("member not in group");
    member_index = static_cast<int32_t>(pos - members.begin());
    num_members = static_cast<int32_t>(members.size());
  }
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  int32_t num_partitions = static_cast<int32_t>(found.value()->partitions.size());
  return RangeAssignment(num_partitions, num_members, member_index);
}

int64_t Broker::GroupGeneration(const std::string& group, const std::string& topic) const {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto it = groups_.find(GroupKey(group, topic));
  return it == groups_.end() ? 0 : it->second.generation;
}

Status Broker::CommitOffset(const std::string& group, const std::string& topic,
                            int32_t partition, int64_t offset) {
  std::lock_guard<std::mutex> lock(offsets_mu_);
  committed_[OffsetKey(group, topic, partition)] = offset;
  return Status::Ok();
}

Result<int64_t> Broker::CommittedOffset(const std::string& group,
                                        const std::string& topic,
                                        int32_t partition) const {
  std::lock_guard<std::mutex> lock(offsets_mu_);
  auto it = committed_.find(OffsetKey(group, topic, partition));
  if (it == committed_.end()) return Status::NotFound("no committed offset");
  return it->second;
}

Result<int64_t> Broker::ConsumerLag(const std::string& group,
                                    const std::string& topic) const {
  Result<std::shared_ptr<Topic>> found = FindTopic(topic);
  if (!found.ok()) return found.status();
  std::shared_ptr<Topic> t = std::move(found.value());
  int64_t lag = 0;
  std::lock_guard<std::mutex> lock(offsets_mu_);
  for (size_t p = 0; p < t->partitions.size(); ++p) {
    int64_t end = t->partitions[p]->EndOffset();
    int64_t committed = t->partitions[p]->BeginOffset();
    auto it = committed_.find(OffsetKey(group, topic, static_cast<int32_t>(p)));
    if (it != committed_.end()) committed = std::max(committed, it->second);
    lag += std::max<int64_t>(0, end - committed);
  }
  return lag;
}

int64_t Broker::ApplyRetention() {
  std::vector<std::shared_ptr<Topic>> work;
  {
    std::lock_guard<std::mutex> lock(topics_mu_);
    work.reserve(topics_.size());
    for (auto& [name, topic] : topics_) work.push_back(topic);
  }
  int64_t dropped = 0;
  TimestampMs now = clock_->NowMs();
  for (const std::shared_ptr<Topic>& topic : work) {
    for (auto& partition : topic->partitions) {
      dropped += partition->ApplyRetention(topic->config.retention, now);
    }
  }
  if (dropped > 0) {
    retention_dropped_counter_->Increment(dropped);
  }
  return dropped;
}

LogFootprint Broker::Footprint() const {
  std::vector<std::shared_ptr<Topic>> topics;
  {
    std::lock_guard<std::mutex> lock(topics_mu_);
    for (const auto& [name, topic] : topics_) topics.push_back(topic);
  }
  LogFootprint out;
  for (const std::shared_ptr<Topic>& topic : topics) {
    for (const auto& partition : topic->partitions) {
      const LogFootprint log = partition->Footprint();
      out.resident_bytes += log.resident_bytes;
      out.index_bytes += log.index_bytes;
      out.batches += log.batches;
    }
  }
  return out;
}

void Broker::SetAvailable(bool available) {
  available_.store(available, std::memory_order_release);
}

bool Broker::available() const {
  return available_.load(std::memory_order_acquire);
}

}  // namespace uberrt::stream
