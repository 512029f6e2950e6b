#include "compute/checkpoint.h"

#include "common/bytes.h"

namespace uberrt::compute {

namespace {

/// Object-store directory that holds every job's checkpoints.
constexpr char kCheckpointPrefix[] = "checkpoints/";

/// Exception-free decimal parse. Checkpoint blobs come off the object store
/// and may be truncated or corrupt; std::stoll would throw on them.
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  size_t i = 0;
  bool negative = false;
  if (s[0] == '-') {
    negative = true;
    i = 1;
    if (s.size() == 1) return false;
  }
  int64_t value = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    if (value > (INT64_MAX - (s[i] - '0')) / 10) return false;  // overflow
    value = value * 10 + (s[i] - '0');
  }
  *out = negative ? -value : value;
  return true;
}

}  // namespace

std::string CheckpointData::Encode() const {
  std::string out;
  bytes::AppendString(&out, std::to_string(sequence));
  bytes::AppendString(&out, std::to_string(entries.size()));
  for (const auto& [key, value] : entries) {
    bytes::AppendString(&out, key);
    bytes::AppendString(&out, value);
  }
  return out;
}

Result<CheckpointData> CheckpointData::Decode(const std::string& blob) {
  CheckpointData data;
  size_t pos = 0;
  std::string sequence_str, count_str;
  if (!bytes::ReadString(blob, &pos, &sequence_str) || !bytes::ReadString(blob, &pos, &count_str)) {
    return Status::Corruption("checkpoint header truncated");
  }
  int64_t count = 0;
  if (!ParseInt64(sequence_str, &data.sequence) || !ParseInt64(count_str, &count) ||
      count < 0) {
    return Status::Corruption("checkpoint header corrupt");
  }
  // Each entry needs at least 8 bytes of length prefixes; a count larger
  // than the remaining bytes allow is corruption, not a huge allocation.
  if (static_cast<size_t>(count) > (blob.size() - pos) / 8 + 1) {
    return Status::Corruption("checkpoint entry count exceeds blob size");
  }
  for (int64_t i = 0; i < count; ++i) {
    std::string key, value;
    if (!bytes::ReadString(blob, &pos, &key) || !bytes::ReadString(blob, &pos, &value)) {
      return Status::Corruption("checkpoint entry truncated");
    }
    data.entries.emplace(std::move(key), std::move(value));
  }
  return data;
}

CheckpointStore::CheckpointStore(storage::ObjectStore* store, const std::string& job)
    : store_(store), dir_(kCheckpointPrefix + job + "/") {}

std::string CheckpointStore::Key(int64_t sequence) const {
  return dir_ + "chk-" + std::to_string(sequence);
}

Status CheckpointStore::Save(const CheckpointData& data) {
  UBERRT_RETURN_IF_ERROR(store_->Put(Key(data.sequence), data.Encode()));
  UBERRT_RETURN_IF_ERROR(
      store_->Put(dir_ + "LATEST", std::to_string(data.sequence)));
  // Retention: LATEST now names this checkpoint, so every other blob of the
  // job is subsumed. A failed delete leaves its blob for the next save.
  const std::string latest = Key(data.sequence);
  for (const std::string& key : store_->List(dir_ + "chk-")) {
    if (key != latest) store_->Delete(key).ok();
  }
  return Status::Ok();
}

Result<CheckpointData> CheckpointStore::Load(int64_t sequence) const {
  Result<std::string> blob = store_->Get(Key(sequence));
  if (!blob.ok()) return blob.status();
  return CheckpointData::Decode(blob.value());
}

Result<int64_t> CheckpointStore::LatestSequence() const {
  Result<std::string> latest = store_->Get(dir_ + "LATEST");
  if (!latest.ok()) return latest.status();
  int64_t sequence = 0;
  if (!ParseInt64(latest.value(), &sequence)) {
    return Status::Corruption("LATEST pointer corrupt: " + latest.value());
  }
  return sequence;
}

Result<CheckpointData> CheckpointStore::LoadLatest() const {
  Result<int64_t> sequence = LatestSequence();
  if (!sequence.ok()) return sequence.status();
  return Load(sequence.value());
}

}  // namespace uberrt::compute
