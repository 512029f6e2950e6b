#include "stream/consumer.h"

namespace uberrt::stream {

Consumer::Consumer(MessageBus* bus, std::string group, std::string topic,
                   std::string member_id, OffsetReset reset)
    : bus_(bus),
      group_(std::move(group)),
      topic_(std::move(topic)),
      member_id_(std::move(member_id)),
      reset_(reset) {}

Consumer::~Consumer() {
  if (subscribed_) Close().ok();
}

Status Consumer::Subscribe() {
  if (subscribed_) return Status::FailedPrecondition("already subscribed");
  UBERRT_RETURN_IF_ERROR(bus_->JoinGroup(group_, topic_, member_id_));
  subscribed_ = true;
  seen_generation_ = -1;  // force assignment refresh on first poll
  return Status::Ok();
}

Status Consumer::Close() {
  if (!subscribed_) return Status::Ok();
  subscribed_ = false;
  return bus_->LeaveGroup(group_, topic_, member_id_);
}

Result<int64_t> Consumer::InitialOffset(int32_t partition) const {
  Result<int64_t> committed = bus_->CommittedOffset(group_, topic_, partition);
  if (committed.ok()) return committed.value();
  if (reset_ == OffsetReset::kEarliest) return bus_->BeginOffset(topic_, partition);
  return bus_->EndOffset(topic_, partition);
}

Status Consumer::RefreshAssignmentIfNeeded() {
  int64_t generation = bus_->GroupGeneration(group_, topic_);
  if (generation == seen_generation_) return Status::Ok();
  Result<std::vector<int32_t>> assignment = bus_->GetAssignment(group_, topic_, member_id_);
  if (!assignment.ok()) return assignment.status();
  assignment_ = std::move(assignment.value());
  seen_generation_ = generation;
  next_partition_index_ = 0;
  std::map<int32_t, int64_t> fresh;
  for (int32_t p : assignment_) {
    auto it = positions_.find(p);
    if (it != positions_.end()) {
      fresh[p] = it->second;  // keep progress across rebalance
    } else {
      Result<int64_t> initial = InitialOffset(p);
      if (!initial.ok()) return initial.status();
      fresh[p] = initial.value();
    }
  }
  positions_ = std::move(fresh);
  return Status::Ok();
}

Result<FetchedBatch> Consumer::PollViews(size_t max_messages) {
  if (!subscribed_) return Status::FailedPrecondition("not subscribed");
  UBERRT_RETURN_IF_ERROR(RefreshAssignmentIfNeeded());
  FetchedBatch out;
  if (assignment_.empty()) return out;
  size_t partitions_tried = 0;
  while (out.size() < max_messages && partitions_tried < assignment_.size()) {
    int32_t partition = assignment_[next_partition_index_];
    next_partition_index_ = (next_partition_index_ + 1) % assignment_.size();
    ++partitions_tried;
    int64_t position = positions_[partition];
    Result<FetchedBatch> batch =
        bus_->FetchViews(topic_, partition, position, max_messages - out.size());
    if (!batch.ok()) {
      if (batch.status().code() == StatusCode::kOutOfRange) {
        // Truncated under us (retention): jump to the earliest retained.
        Result<int64_t> begin = bus_->BeginOffset(topic_, partition);
        if (!begin.ok()) return begin.status();
        positions_[partition] = begin.value();
        continue;
      }
      return batch.status();
    }
    if (!batch.value().empty()) {
      positions_[partition] = batch.value().messages.back().offset + 1;
      partitions_tried = 0;  // found data; keep cycling
      out.Merge(std::move(batch.value()));
    }
  }
  return out;
}

Status Consumer::Commit() {
  if (!subscribed_) return Status::FailedPrecondition("not subscribed");
  for (const auto& [partition, offset] : positions_) {
    UBERRT_RETURN_IF_ERROR(bus_->CommitOffset(group_, topic_, partition, offset));
  }
  return Status::Ok();
}

}  // namespace uberrt::stream
