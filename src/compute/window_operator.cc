#include "compute/window_operator.h"

#include <algorithm>
#include <bit>

#include "common/bytes.h"
#include "common/hash.h"
#include "storage/archive.h"

namespace uberrt::compute {

namespace {

int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = 16;
  for (const Value& v : row) {
    bytes += 16;
    if (v.type() == ValueType::kString) bytes += static_cast<int64_t>(v.AsString().size());
  }
  return bytes;
}

/// Writes state rows straight into a storage::EncodeRowBatch blob (u32 row
/// count; per row a u32 length and EncodeRow's u32 field count plus tagged
/// fields), with no Row of Values and no per-row encode temporary. Length
/// prefixes are reserved and patched once their bytes are written.
class StateBlobWriter {
 public:
  explicit StateBlobWriter(size_t rows) {
    bytes::AppendU32(&out_, static_cast<uint32_t>(rows));
  }

  void BeginRow(size_t fields) {
    row_at_ = Reserve();
    bytes::AppendU32(&out_, static_cast<uint32_t>(fields));
  }
  void EndRow() { Patch(row_at_); }

  void Int(int64_t v) {
    Tag(ValueType::kInt);
    bytes::AppendU64(&out_, static_cast<uint64_t>(v));
  }
  void Double(double v) {
    Tag(ValueType::kDouble);
    bytes::AppendU64(&out_, std::bit_cast<uint64_t>(v));
  }
  void String(std::string_view v) {
    Tag(ValueType::kString);
    bytes::AppendString(&out_, v);
  }
  /// A string field holding EncodeRow(row).
  void EncodedRow(const Row& row) {
    Tag(ValueType::kString);
    size_t at = Reserve();
    bytes::AppendU32(&out_, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) AppendValue(&out_, v);
    Patch(at);
  }

  std::string Take() { return std::move(out_); }

 private:
  void Tag(ValueType type) { out_.push_back(static_cast<char>(type)); }
  size_t Reserve() {
    out_.append(4, '\0');
    return out_.size() - 4;
  }
  void Patch(size_t at) {
    bytes::PutU32(&out_[at], static_cast<uint32_t>(out_.size() - at - 4));
  }

  std::string out_;
  size_t row_at_ = 0;
};

}  // namespace

void EncodeKeyTo(const Row& row, const std::vector<int>& key_indices,
                 std::string* out) {
  out->clear();
  // Same bytes as EncodeRow of the key-field Row: u32 count then tagged
  // values, with out-of-range indices encoded as nulls.
  bytes::AppendU32(out, static_cast<uint32_t>(key_indices.size()));
  for (int idx : key_indices) {
    if (idx >= 0 && idx < static_cast<int>(row.size())) {
      AppendValue(out, row[static_cast<size_t>(idx)]);
    } else {
      AppendValue(out, Value::Null());
    }
  }
}

std::string EncodeKey(const Row& row, const std::vector<int>& key_indices) {
  std::string out;
  EncodeKeyTo(row, key_indices, &out);
  return out;
}

std::vector<int> ResolveIndices(const RowSchema& schema,
                                const std::vector<std::string>& fields) {
  std::vector<int> out;
  out.reserve(fields.size());
  for (const std::string& f : fields) out.push_back(schema.FieldIndex(f));
  return out;
}

// --- WindowAggregateOperator -------------------------------------------

WindowAggregateOperator::WindowAggregateOperator(const TransformSpec& spec,
                                                 const RowSchema& input)
    : spec_(spec), input_(input) {
  key_indices_ = ResolveIndices(input, spec.key_fields);
  for (const AggregateSpec& agg : spec.aggregates) {
    agg_indices_.push_back(agg.field.empty() ? -1 : input.FieldIndex(agg.field));
  }
}

std::vector<TimestampMs> WindowAggregateOperator::AssignWindows(TimestampMs t) const {
  std::vector<TimestampMs> starts;
  const WindowSpec& w = spec_.window;
  if (w.type == WindowSpec::Type::kTumbling) {
    TimestampMs start = t - ((t % w.size_ms) + w.size_ms) % w.size_ms;
    starts.push_back(start);
  } else if (w.type == WindowSpec::Type::kSliding) {
    TimestampMs last_start = t - ((t % w.slide_ms) + w.slide_ms) % w.slide_ms;
    for (TimestampMs s = last_start; s > t - w.size_ms; s -= w.slide_ms) {
      starts.push_back(s);
    }
  }
  return starts;
}

Row WindowAggregateOperator::KeyValues(const Row& row) const {
  Row key_values;
  key_values.reserve(key_indices_.size());
  for (int idx : key_indices_) {
    key_values.push_back(idx >= 0 && idx < static_cast<int>(row.size())
                             ? row[static_cast<size_t>(idx)]
                             : Value::Null());
  }
  return key_values;
}

int64_t WindowAggregateOperator::WindowStateBytes(const WindowState& ws) const {
  return ApproxRowBytes(ws.key_values) +
         static_cast<int64_t>(spec_.aggregates.size()) * 40 + 48;
}

void WindowAggregateOperator::Accumulate(const Row& row, WindowState* ws) const {
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    int idx = agg_indices_[a];
    ws->accumulators[a].Add(idx >= 0 && idx < static_cast<int>(row.size())
                                ? row[static_cast<size_t>(idx)].ToNumeric()
                                : 0.0);
  }
}

void WindowAggregateOperator::AddToWindow(uint64_t key_hash, std::string_view key,
                                          const Row& source_row, TimestampMs start,
                                          TimestampMs end) {
  bool inserted = false;
  WindowState& ws = windows_.FindOrInsert(key_hash, key, start, &inserted);
  if (inserted) {
    ws.key_values = KeyValues(source_row);
    ws.end = end;
    ws.accumulators.resize(spec_.aggregates.size());
    state_bytes_ += WindowStateBytes(ws);
  }
  Accumulate(source_row, &ws);
}

void WindowAggregateOperator::AddToSession(uint64_t key_hash, std::string_view key,
                                           const Row& source_row, TimestampMs t) {
  // A session for this record spans [t, t + gap). Find overlapping sessions
  // of the same key and merge them.
  TimestampMs new_start = t;
  TimestampMs new_end = t + spec_.window.gap_ms;
  std::vector<AggAccumulator> merged(spec_.aggregates.size());
  std::vector<TimestampMs> to_erase;
  windows_.ForEachMutable([&](FlatKeyedMap<WindowState>::Entry& entry) {
    if (entry.hash != key_hash || entry.key != key) return;
    WindowState& ws = entry.value;
    if (entry.start <= new_end && ws.end >= new_start) {
      new_start = std::min(new_start, entry.start);
      new_end = std::max(new_end, ws.end);
      for (size_t a = 0; a < merged.size(); ++a) merged[a].Merge(ws.accumulators[a]);
      to_erase.push_back(entry.start);
    }
  });
  for (TimestampMs start : to_erase) {
    WindowState* ws = windows_.Find(key_hash, key, start);
    if (ws != nullptr) state_bytes_ -= WindowStateBytes(*ws);
    windows_.Erase(key_hash, key, start);
  }
  bool inserted = false;
  WindowState& ws = windows_.FindOrInsert(key_hash, key, new_start, &inserted);
  ws.key_values = KeyValues(source_row);
  ws.end = new_end;
  ws.accumulators = std::move(merged);
  state_bytes_ += WindowStateBytes(ws);
  Accumulate(source_row, &ws);
}

void WindowAggregateOperator::ProcessRecord(const Element& element, Emitter* out) {
  (void)out;
  TimestampMs t = element.event_time;
  EncodeKeyTo(element.row, key_indices_, &key_scratch_);
  uint64_t key_hash = Fnv1a64(key_scratch_);
  if (spec_.window.type == WindowSpec::Type::kSession) {
    if (t + spec_.window.gap_ms + spec_.allowed_lateness_ms <= current_watermark_) {
      ++late_dropped_;
      return;
    }
    AddToSession(key_hash, key_scratch_, element.row, t);
    return;
  }
  for (TimestampMs start : AssignWindows(t)) {
    TimestampMs end = start + spec_.window.size_ms;
    if (end + spec_.allowed_lateness_ms <= current_watermark_) {
      ++late_dropped_;
      continue;
    }
    AddToWindow(key_hash, key_scratch_, element.row, start, end);
  }
}

void WindowAggregateOperator::Fire(TimestampMs start, const WindowState& ws,
                                   Emitter* out) {
  Row result = ws.key_values;
  result.push_back(Value(static_cast<int64_t>(start)));
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    result.push_back(ws.accumulators[a].Finish(spec_.aggregates[a].kind));
  }
  out->Emit(std::move(result), ws.end - 1);
}

void WindowAggregateOperator::OnWatermark(TimestampMs watermark, Emitter* out) {
  current_watermark_ = std::max(current_watermark_, watermark);
  // Fire windows whose end + lateness has passed. Session windows may keep
  // extending, but once the watermark passes end + gap no record can extend
  // them (later records would open a new session past end). Fired windows
  // are sorted by (start, key) — the retired std::map's iteration order — so
  // emission order is unchanged by the flat-hash migration.
  struct FiredWindow {
    TimestampMs start;
    std::string key;
    uint64_t hash;
  };
  std::vector<FiredWindow> fired;
  windows_.ForEach([&](const FlatKeyedMap<WindowState>::Entry& entry) {
    TimestampMs fire_at = entry.value.end + spec_.allowed_lateness_ms;
    if (watermark == kMaxWatermark || fire_at <= watermark) {
      fired.push_back({entry.start, entry.key, entry.hash});
    }
  });
  std::sort(fired.begin(), fired.end(), [](const FiredWindow& a, const FiredWindow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.key < b.key;
  });
  for (const FiredWindow& fw : fired) {
    WindowState* ws = windows_.Find(fw.hash, fw.key, fw.start);
    if (ws == nullptr) continue;
    Fire(fw.start, *ws, out);
    state_bytes_ -= WindowStateBytes(*ws);
    windows_.Erase(fw.hash, fw.key, fw.start);
  }
}

std::string WindowAggregateOperator::SnapshotState() const {
  // One row per live window:
  // [key(string), start, end, (count,sum,min,max) x aggregates]
  // Sorted by (start, key), so blobs are byte-identical to the pre-flat-hash
  // std::map encoding and deterministic across runs.
  using Entry = FlatKeyedMap<WindowState>::Entry;
  std::vector<const Entry*> entries;
  entries.reserve(windows_.size());
  windows_.ForEach([&](const Entry& entry) { entries.push_back(&entry); });
  std::sort(entries.begin(), entries.end(), [](const Entry* a, const Entry* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->key < b->key;
  });
  StateBlobWriter blob(entries.size());
  for (const Entry* entry : entries) {
    const WindowState& ws = entry->value;
    blob.BeginRow(4 + ws.accumulators.size() * kAccumulatorFields);
    blob.String(entry->key);
    blob.Int(entry->start);
    blob.Int(ws.end);
    blob.EncodedRow(ws.key_values);
    for (const AggAccumulator& acc : ws.accumulators) {
      blob.Int(acc.count);
      blob.Double(acc.sum);
      blob.Double(acc.min);
      blob.Double(acc.max);
    }
    blob.EndRow();
  }
  return blob.Take();
}

Status WindowAggregateOperator::RestoreState(const std::string& blob) {
  Result<std::vector<Row>> rows = storage::DecodeRowBatch(blob);
  if (!rows.ok()) return rows.status();
  windows_.Clear();
  state_bytes_ = 0;
  for (const Row& row : rows.value()) {
    size_t expected = 4 + spec_.aggregates.size() * kAccumulatorFields;
    if (row.size() != expected) return Status::Corruption("window state row size");
    const std::string& key = row[0].AsString();
    TimestampMs start = row[1].AsInt();
    bool inserted = false;
    WindowState& ws = windows_.FindOrInsert(Fnv1a64(key), key, start, &inserted);
    ws.end = row[2].AsInt();
    Result<Row> key_values = DecodeRow(row[3].AsString());
    if (!key_values.ok()) return key_values.status();
    ws.key_values = std::move(key_values.value());
    ws.accumulators.clear();
    for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
      Result<AggAccumulator> acc = ReadAccumulator(row, 4 + a * kAccumulatorFields);
      if (!acc.ok()) return acc.status();
      ws.accumulators.push_back(acc.value());
    }
    state_bytes_ += WindowStateBytes(ws);
  }
  return Status::Ok();
}

int64_t WindowAggregateOperator::StateBytes() const { return state_bytes_; }

// --- WindowJoinOperator --------------------------------------------------

WindowJoinOperator::WindowJoinOperator(const TransformSpec& spec, const RowSchema& left,
                                       const RowSchema& right)
    : spec_(spec), left_(left), right_(right) {
  left_key_indices_ = ResolveIndices(left, spec.key_fields);
  right_key_indices_ = ResolveIndices(right, spec.key_fields);
  // Right fields that are not duplicates of left fields.
  for (size_t i = 0; i < right.fields().size(); ++i) {
    if (left.FieldIndex(right.fields()[i].name) < 0) {
      right_output_indices_.push_back(static_cast<int>(i));
    }
  }
}

Row WindowJoinOperator::JoinRows(const Row& left, const Row& right) const {
  Row out = left;
  for (int idx : right_output_indices_) {
    out.push_back(right[static_cast<size_t>(idx)]);
  }
  return out;
}

void WindowJoinOperator::ProcessRecord(const Element& element, Emitter* out) {
  TimestampMs t = element.event_time;
  TimestampMs size = spec_.window.size_ms;
  TimestampMs start = t - ((t % size) + size) % size;
  if (start + size + spec_.allowed_lateness_ms <= current_watermark_) {
    ++late_dropped_;
    return;
  }
  bool is_left = element.side == 0;
  EncodeKeyTo(element.row, is_left ? left_key_indices_ : right_key_indices_,
              &key_scratch_);
  uint64_t key_hash = Fnv1a64(key_scratch_);
  bool inserted = false;
  Buffers& buffers = buffers_.FindOrInsert(key_hash, key_scratch_, start, &inserted);
  if (is_left) {
    for (const auto& [right_row, right_time] : buffers.right) {
      out->Emit(JoinRows(element.row, right_row), std::max(t, right_time));
    }
    buffers.left.emplace_back(element.row, t);
  } else {
    for (const auto& [left_row, left_time] : buffers.left) {
      out->Emit(JoinRows(left_row, element.row), std::max(t, left_time));
    }
    buffers.right.emplace_back(element.row, t);
  }
  state_bytes_ += ApproxRowBytes(element.row);
}

void WindowJoinOperator::OnWatermark(TimestampMs watermark, Emitter* out) {
  (void)out;
  current_watermark_ = std::max(current_watermark_, watermark);
  struct Expired {
    TimestampMs start;
    std::string key;
    uint64_t hash;
  };
  std::vector<Expired> expired;
  buffers_.ForEach([&](const FlatKeyedMap<Buffers>::Entry& entry) {
    TimestampMs end = entry.start + spec_.window.size_ms;
    if (watermark == kMaxWatermark ||
        end + spec_.allowed_lateness_ms <= watermark) {
      expired.push_back({entry.start, entry.key, entry.hash});
    }
  });
  for (const Expired& e : expired) {
    Buffers* buffers = buffers_.Find(e.hash, e.key, e.start);
    if (buffers == nullptr) continue;
    for (const auto& [row, t] : buffers->left) state_bytes_ -= ApproxRowBytes(row);
    for (const auto& [row, t] : buffers->right) state_bytes_ -= ApproxRowBytes(row);
    buffers_.Erase(e.hash, e.key, e.start);
  }
}

std::string WindowJoinOperator::SnapshotState() const {
  // One row per buffered record: [key, start, side, event_time, enc_row].
  // Buckets sorted by (start, key) with left rows before right, matching the
  // pre-flat-hash std::map blob byte for byte.
  using Entry = FlatKeyedMap<Buffers>::Entry;
  std::vector<const Entry*> buckets;
  buckets.reserve(buffers_.size());
  size_t rows = 0;
  buffers_.ForEach([&](const Entry& entry) {
    buckets.push_back(&entry);
    rows += entry.value.left.size() + entry.value.right.size();
  });
  std::sort(buckets.begin(), buckets.end(), [](const Entry* a, const Entry* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->key < b->key;
  });
  StateBlobWriter blob(rows);
  for (const Entry* bucket : buckets) {
    int64_t side = 0;
    for (const auto* buffer : {&bucket->value.left, &bucket->value.right}) {
      for (const auto& [row, t] : *buffer) {
        blob.BeginRow(5);
        blob.String(bucket->key);
        blob.Int(bucket->start);
        blob.Int(side);
        blob.Int(t);
        blob.EncodedRow(row);
        blob.EndRow();
      }
      ++side;
    }
  }
  return blob.Take();
}

Status WindowJoinOperator::RestoreState(const std::string& blob) {
  Result<std::vector<Row>> rows = storage::DecodeRowBatch(blob);
  if (!rows.ok()) return rows.status();
  buffers_.Clear();
  state_bytes_ = 0;
  for (const Row& row : rows.value()) {
    if (row.size() != 5) return Status::Corruption("join state row size");
    const std::string& key = row[0].AsString();
    TimestampMs start = row[1].AsInt();
    Result<Row> data = DecodeRow(row[4].AsString());
    if (!data.ok()) return data.status();
    state_bytes_ += ApproxRowBytes(data.value());
    bool inserted = false;
    Buffers& buffers = buffers_.FindOrInsert(Fnv1a64(key), key, start, &inserted);
    if (row[2].AsInt() == 0) {
      buffers.left.emplace_back(std::move(data.value()), row[3].AsInt());
    } else {
      buffers.right.emplace_back(std::move(data.value()), row[3].AsInt());
    }
  }
  return Status::Ok();
}

int64_t WindowJoinOperator::StateBytes() const { return state_bytes_; }

}  // namespace uberrt::compute
