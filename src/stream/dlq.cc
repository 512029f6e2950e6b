#include "stream/dlq.h"

#include <vector>

namespace uberrt::stream {

Status DlqManager::EnsureTopics(const std::string& topic) {
  if (!bus_->HasTopic(topic)) return Status::NotFound("no topic: " + topic);
  Result<int32_t> partitions = bus_->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  TopicConfig config;
  config.num_partitions = partitions.value();
  for (const std::string& side : {RetryTopic(topic), DlqTopic(topic)}) {
    if (!bus_->HasTopic(side)) {
      Status s = bus_->CreateTopic(side, config);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
  }
  return Status::Ok();
}

int32_t DlqManager::RetryCount(const Message& message) {
  auto it = message.headers.find(kHeaderRetryCount);
  if (it == message.headers.end()) return 0;
  return static_cast<int32_t>(std::stol(it->second));
}

Status DlqManager::HandleFailure(const std::string& topic, Message message) {
  int32_t retries = RetryCount(message);
  message.headers[kHeaderRetryCount] = std::to_string(retries + 1);
  message.offset = -1;  // will be re-assigned by the side topic
  const std::string target =
      retries < options_.max_retries ? RetryTopic(topic) : DlqTopic(topic);
  Result<ProduceResult> produced = bus_->Produce(target, std::move(message),
                                                 AckMode::kLeader);
  if (!produced.ok()) return produced.status();
  return Status::Ok();
}

Result<int64_t> DlqManager::DrainDlq(const std::string& topic,
                                     const std::string& consumer_group,
                                     bool reinject) {
  const std::string dlq = DlqTopic(topic);
  Result<int32_t> partitions = bus_->NumPartitions(dlq);
  if (!partitions.ok()) return partitions.status();
  int64_t handled = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    int64_t position;
    Result<int64_t> committed = bus_->CommittedOffset(consumer_group, dlq, p);
    if (committed.ok()) {
      position = committed.value();
    } else {
      Result<int64_t> begin = bus_->BeginOffset(dlq, p);
      if (!begin.ok()) return begin.status();
      position = begin.value();
    }
    while (true) {
      Result<FetchedBatch> batch = bus_->FetchViews(dlq, p, position, 256);
      if (!batch.ok()) return batch.status();
      if (batch.value().empty()) break;
      for (const wire::MessageView& v : batch.value().messages) {
        position = v.offset + 1;
        ++handled;
        if (!reinject) continue;
        // Only reinjected messages are materialized (Produce takes ownership).
        Message m = v.ToMessage();
        m.headers[kHeaderRetryCount] = "0";
        m.offset = -1;
        Result<ProduceResult> produced =
            bus_->Produce(topic, std::move(m), AckMode::kLeader);
        if (!produced.ok()) return produced.status();
      }
    }
    UBERRT_RETURN_IF_ERROR(bus_->CommitOffset(consumer_group, dlq, p, position));
  }
  return handled;
}

Result<int64_t> DlqManager::Merge(const std::string& topic,
                                  const std::string& consumer_group) {
  return DrainDlq(topic, consumer_group, /*reinject=*/true);
}

Result<int64_t> DlqManager::Purge(const std::string& topic,
                                  const std::string& consumer_group) {
  return DrainDlq(topic, consumer_group, /*reinject=*/false);
}

Result<int64_t> DlqManager::DlqDepth(const std::string& topic) const {
  const std::string dlq = DlqTopic(topic);
  Result<int32_t> partitions = bus_->NumPartitions(dlq);
  if (!partitions.ok()) return partitions.status();
  int64_t depth = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = bus_->BeginOffset(dlq, p);
    Result<int64_t> end = bus_->EndOffset(dlq, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    depth += end.value() - begin.value();
  }
  return depth;
}

}  // namespace uberrt::stream
