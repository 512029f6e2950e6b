#include "stream/log.h"

#include <algorithm>
#include <iterator>

#include "common/bytes.h"

namespace uberrt::stream {

std::string& PartitionLog::ArenaForLocked(size_t need) {
  if (!arena_ || arena_->size() + need > arena_->capacity()) {
    // Fixed-capacity arenas: appends never exceed the reserved capacity, so
    // the data pointer is stable for the segment's lifetime and outstanding
    // views never dangle.
    arena_ = std::make_shared<std::string>();
    arena_->reserve(std::max(need, options_.segment_bytes));
  }
  return *arena_;
}

int64_t PartitionLog::CommitLocked(size_t begin, uint32_t record_count,
                                   int64_t max_timestamp) {
  if (segments_.empty() || segments_.back().arena != arena_) {
    segments_.push_back({arena_, end_offset_});
  }
  hwm_timestamp_ = std::max(hwm_timestamp_, max_timestamp);
  batches_.push_back({end_offset_, hwm_timestamp_, static_cast<uint32_t>(begin)});
  int64_t base = end_offset_;
  end_offset_ += record_count;
  bytes_ += static_cast<int64_t>(arena_->size() - begin);
  return base;
}

PartitionLog::BatchExtent PartitionLog::ExtentLocked(BatchIter it,
                                                    const Segment& segment) const {
  const uint32_t segment_end = static_cast<uint32_t>(segment.arena->size());
  const BatchIter next = std::next(it);
  if (next == batches_.end()) return {segment_end, end_offset_ - it->base_offset};
  return {next->begin > it->begin ? next->begin : segment_end,
          next->base_offset - it->base_offset};
}

int64_t PartitionLog::AppendBatchLocked(const wire::EncodedBatch& batch) {
  std::string& arena = ArenaForLocked(batch.data.size());
  size_t begin = arena.size();
  arena.append(batch.data);  // the one memcpy
  return CommitLocked(begin, batch.record_count, batch.max_timestamp);
}

int64_t PartitionLog::Append(const Message& message) {
  const size_t need = wire::kBatchHeaderSize + message.FrameSize();
  std::lock_guard<std::mutex> lock(mu_);
  std::string& arena = ArenaForLocked(need);
  size_t begin = arena.size();
  // Exactly `need` bytes, within the reserved capacity: no reallocation.
  wire::AppendSingleRecordBatch(arena, message);
  return CommitLocked(begin, 1, message.timestamp);
}

namespace {

/// Structural checks shared by both batch appends, run before the lock.
Status CheckBatch(const wire::EncodedBatch& batch) {
  if (batch.record_count == 0) {
    return Status::InvalidArgument("empty batch");
  }
  UBERRT_RETURN_IF_ERROR(wire::ValidateBatch(batch.data));
  if (bytes::ReadU32BE(batch.data.data() + 4) != batch.record_count) {
    return Status::InvalidArgument("batch record_count does not match header");
  }
  return Status::Ok();
}

}  // namespace

Result<int64_t> PartitionLog::AppendBatch(const wire::EncodedBatch& batch) {
  UBERRT_RETURN_IF_ERROR(CheckBatch(batch));
  std::lock_guard<std::mutex> lock(mu_);
  return AppendBatchLocked(batch);
}

Status PartitionLog::AppendBatchAt(const wire::EncodedBatch& batch,
                                   int64_t base_offset) {
  UBERRT_RETURN_IF_ERROR(CheckBatch(batch));
  std::lock_guard<std::mutex> lock(mu_);
  if (base_offset != end_offset_) {
    return Status::InvalidArgument("offset gap: expected " + std::to_string(end_offset_) +
                                   " got " + std::to_string(base_offset));
  }
  AppendBatchLocked(batch);
  return Status::Ok();
}

Status PartitionLog::StartAt(int64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (begin_offset_ != end_offset_) {
    return Status::FailedPrecondition("start offset moves only on an empty log");
  }
  if (offset < end_offset_) {
    return Status::InvalidArgument("start offset " + std::to_string(offset) +
                                   " below end offset " + std::to_string(end_offset_));
  }
  begin_offset_ = end_offset_ = offset;
  return Status::Ok();
}

Result<FetchedBatch> PartitionLog::ReadViews(int64_t offset,
                                             size_t max_messages) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (offset < begin_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " below begin offset " + std::to_string(begin_offset_));
  }
  if (offset > end_offset_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " beyond end offset " + std::to_string(end_offset_));
  }
  FetchedBatch out;
  if (offset == end_offset_ || max_messages == 0) return out;
  // Locate the batch containing `offset`, and the segment holding it.
  auto it = std::upper_bound(
      batches_.begin(), batches_.end(), offset,
      [](int64_t off, const BatchEntry& b) { return off < b.base_offset; });
  --it;  // offset >= begin_offset_ guarantees a containing batch exists
  auto seg = std::upper_bound(
      segments_.begin(), segments_.end(), offset,
      [](int64_t off, const Segment& s) { return off < s.base_offset; });
  --seg;
  auto next_segment_base = [&] {
    return seg + 1 == segments_.end() ? INT64_MAX : (seg + 1)->base_offset;
  };
  int64_t next_segment = next_segment_base();
  out.messages.reserve(std::min<size_t>(
      max_messages, static_cast<size_t>(end_offset_ - offset)));
  int64_t cur = offset;
  for (; it != batches_.end() && out.messages.size() < max_messages; ++it) {
    if (it->base_offset >= next_segment) {
      ++seg;
      next_segment = next_segment_base();
    }
    if (out.pins.empty() || out.pins.back() != seg->arena) out.pins.push_back(seg->arena);
    const BatchExtent extent = ExtentLocked(it, *seg);
    std::string_view arena(seg->arena->data(), extent.end);
    // Seek within the batch by hopping length prefixes — reads almost always
    // start at a batch boundary, so this loop rarely iterates.
    size_t pos = it->begin + wire::kBatchHeaderSize;
    for (int64_t skip = cur - it->base_offset; skip > 0; --skip) {
      pos += 4 + bytes::ReadU32BE(arena.data() + pos);
    }
    // Frames were validated structurally at append time; decode untrusted
    // checks would be pure overhead on the fetch hot path.
    for (int64_t ri = cur - it->base_offset;
         ri < extent.count && out.messages.size() < max_messages; ++ri, ++cur) {
      wire::MessageView view = wire::DecodeFrameTrusted(arena, &pos);
      view.offset = cur;
      out.messages.push_back(view);
    }
  }
  return out;
}

int64_t PartitionLog::BeginOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return begin_offset_;
}

int64_t PartitionLog::EndOffset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_offset_;
}

int64_t PartitionLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_offset_ - begin_offset_;
}

int64_t PartitionLog::Bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t PartitionLog::ApplyRetention(const RetentionPolicy& policy, TimestampMs now) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  auto drop_front = [&] {
    const BatchExtent extent = ExtentLocked(batches_.begin(), segments_.front());
    bytes_ -= static_cast<int64_t>(extent.end - batches_.front().begin);
    begin_offset_ += extent.count;
    dropped += extent.count;
    batches_.pop_front();
    // Release the segments no retained batch lives in any more.
    if (batches_.empty()) {
      segments_.clear();
    } else {
      while (segments_.size() > 1 && segments_[1].base_offset <= batches_.front().base_offset) {
        segments_.pop_front();
      }
    }
  };
  if (policy.max_age_ms > 0) {
    // Strictly by append order: the monotone watermark means a non-expired
    // batch also fences every batch behind it, and a late-arriving old
    // timestamp inherits the watermark of the data appended before it.
    while (!batches_.empty() &&
           batches_.front().hwm_timestamp < now - policy.max_age_ms) {
      drop_front();
    }
  }
  if (policy.max_bytes > 0) {
    // Never drop the newest batch: the active segment stays readable even
    // when a single batch exceeds the byte budget, so an acked produce is
    // never silently truncated by its own arrival.
    while (batches_.size() > 1 && bytes_ > policy.max_bytes) drop_front();
  }
  return dropped;
}

namespace {

/// Estimated heap bytes of a std::deque: whole nodes of libstdc++'s 512-byte
/// buffer size plus one map pointer per node.
template <typename T>
int64_t DequeBytes(const std::deque<T>& d) {
  constexpr size_t kPerNode = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const size_t nodes = d.size() / kPerNode + 1;
  return static_cast<int64_t>(nodes * (kPerNode * sizeof(T) + sizeof(T*)));
}

}  // namespace

LogFootprint PartitionLog::Footprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  LogFootprint out;
  out.index_bytes = DequeBytes(batches_) + DequeBytes(segments_);
  out.resident_bytes = out.index_bytes;
  for (const Segment& s : segments_) out.resident_bytes += static_cast<int64_t>(s.arena->capacity());
  if (arena_ && (segments_.empty() || segments_.back().arena != arena_)) {
    out.resident_bytes += static_cast<int64_t>(arena_->capacity());
  }
  out.batches = static_cast<int64_t>(batches_.size());
  return out;
}

}  // namespace uberrt::stream
