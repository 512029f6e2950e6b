#include "storage/archive.h"

#include "common/bytes.h"

namespace uberrt::storage {

std::string EncodeRowBatch(const std::vector<Row>& rows) {
  std::string out;
  bytes::AppendU32(&out, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) bytes::AppendString(&out, EncodeRow(row));
  return out;
}

Result<std::vector<Row>> DecodeRowBatch(const std::string& data) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!bytes::ReadU32(data, &pos, &count)) {
    return Status::Corruption("batch header truncated");
  }
  // Each row carries at least a 4-byte length prefix; a count beyond the
  // remaining bytes is corruption (and must not drive a huge reserve()).
  if (count > (data.size() - pos) / 4) {
    return Status::Corruption("batch count implausible");
  }
  std::vector<Row> rows;
  rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view encoded;
    if (!bytes::ReadString(data, &pos, &encoded)) return Status::Corruption("row truncated");
    Result<Row> row = DecodeRow(encoded);
    if (!row.ok()) return row.status();
    rows.push_back(std::move(row.value()));
  }
  return rows;
}

ArchiveTable::ArchiveTable(ObjectStore* store, std::string table_name, RowSchema schema)
    : store_(store), name_(std::move(table_name)), schema_(std::move(schema)) {}

Status ArchiveTable::AppendBatch(const std::string& partition,
                                 const std::vector<Row>& rows) {
  if (rows.empty()) return Status::InvalidArgument("empty batch");
  char seq[16];
  std::snprintf(seq, sizeof(seq), "%010lld",
                static_cast<long long>(next_batch_seq_++));
  std::string key = KeyPrefix() + partition + "/" + seq;
  return store_->Put(key, EncodeRowBatch(rows));
}

std::vector<std::string> ArchiveTable::ListPartitions() const {
  std::vector<std::string> out;
  std::string prefix = KeyPrefix();
  for (const std::string& key : store_->List(prefix)) {
    std::string rest = key.substr(prefix.size());
    size_t slash = rest.find('/');
    if (slash == std::string::npos) continue;
    std::string partition = rest.substr(0, slash);
    if (out.empty() || out.back() != partition) out.push_back(partition);
  }
  return out;
}

Result<std::vector<Row>> ArchiveTable::ReadPartition(const std::string& partition) const {
  std::vector<Row> all;
  for (const std::string& key : store_->List(KeyPrefix() + partition + "/")) {
    Result<std::string> blob = store_->Get(key);
    if (!blob.ok()) return blob.status();
    Result<std::vector<Row>> rows = DecodeRowBatch(blob.value());
    if (!rows.ok()) return rows.status();
    for (Row& row : rows.value()) all.push_back(std::move(row));
  }
  return all;
}

Result<int64_t> ArchiveTable::CountRows(const std::vector<std::string>& partitions) const {
  int64_t total = 0;
  for (const std::string& partition : partitions) {
    Result<std::vector<Row>> rows = ReadPartition(partition);
    if (!rows.ok()) return rows.status();
    total += static_cast<int64_t>(rows.value().size());
  }
  return total;
}

}  // namespace uberrt::storage
