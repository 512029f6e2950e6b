#include "olap/segment.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>

#include "common/hash.h"

namespace uberrt::olap {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ReadU32(const std::string& data, size_t* pos, uint32_t* out) {
  if (*pos + 4 > data.size()) return false;
  std::memcpy(out, data.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool ReadU64(const std::string& data, size_t* pos, uint64_t* out) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(out, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

bool ReadString(const std::string& data, size_t* pos, std::string* out) {
  uint32_t len;
  if (!ReadU32(data, pos, &len)) return false;
  if (*pos + len > data.size()) return false;
  out->assign(data, *pos, len);
  *pos += len;
  return true;
}

int64_t ValueMemoryBytes(const Value& v) {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (v.type() == ValueType::kString) bytes += static_cast<int64_t>(v.AsString().size());
  return bytes;
}

/// Coerces a cell to the column's declared type (ingest normalization).
Value CoerceTo(ValueType type, const Value& v) {
  if (v.is_null() || v.type() == type) return v;
  switch (type) {
    case ValueType::kInt:
      return Value(static_cast<int64_t>(v.ToNumeric()));
    case ValueType::kDouble:
      return Value(v.ToNumeric());
    case ValueType::kBool:
      return Value(v.ToNumeric() != 0.0);
    case ValueType::kString:
      return Value(v.ToString());
    case ValueType::kNull:
      return v;
  }
  return v;
}

/// Big-endian u32: lexicographic order of the encoded bytes equals numeric
/// order of the ids, so map-keyed group emission matches the vectorized
/// engine's packed-key sort order exactly.
void AppendU32BE(std::string* out, uint32_t v) {
  char buf[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
  out->append(buf, 4);
}

}  // namespace

// --- BitPackedVector ------------------------------------------------------

BitPackedVector::BitPackedVector(const std::vector<uint32_t>& values,
                                 uint32_t max_value) {
  bits_ = 1;
  while ((1ULL << bits_) <= max_value) ++bits_;
  size_ = values.size();
  words_.assign((size_ * static_cast<size_t>(bits_) + 63) / 64, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    size_t bit = i * static_cast<size_t>(bits_);
    size_t word = bit / 64;
    int shift = static_cast<int>(bit % 64);
    words_[word] |= static_cast<uint64_t>(values[i]) << shift;
    if (shift + bits_ > 64) {
      words_[word + 1] |= static_cast<uint64_t>(values[i]) >> (64 - shift);
    }
  }
}

uint32_t BitPackedVector::Get(size_t index) const {
  size_t bit = index * static_cast<size_t>(bits_);
  size_t word = bit / 64;
  int shift = static_cast<int>(bit % 64);
  uint64_t v = words_[word] >> shift;
  if (shift + bits_ > 64) v |= words_[word + 1] << (64 - shift);
  return static_cast<uint32_t>(v & ((1ULL << bits_) - 1));
}

void BitPackedVector::Unpack(size_t start, size_t count, uint32_t* out) const {
  const uint64_t mask = (1ULL << bits_) - 1;
  const size_t bits = static_cast<size_t>(bits_);
  size_t bit = start * bits;
  for (size_t i = 0; i < count; ++i, bit += bits) {
    size_t word = bit >> 6;
    size_t shift = bit & 63;
    uint64_t v = words_[word] >> shift;
    if (shift + bits > 64) v |= words_[word + 1] << (64 - shift);
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

Result<BitPackedVector> BitPackedVector::FromWords(int bits, size_t size,
                                                   std::vector<uint64_t> words) {
  if (bits < 1 || bits > 32) {
    return Status::Corruption("bit-packed vector: bad bit width");
  }
  if (size > (std::numeric_limits<size_t>::max() - 63) / static_cast<size_t>(bits)) {
    return Status::Corruption("bit-packed vector: size overflow");
  }
  if (words.size() != (size * static_cast<size_t>(bits) + 63) / 64) {
    return Status::Corruption("bit-packed vector: word count mismatch");
  }
  BitPackedVector v;
  v.bits_ = bits;
  v.size_ = size;
  v.words_ = std::move(words);
  return v;
}

// --- AggAccumulator helpers (shared partial-aggregate layout) -------------

void AggAccumulator::Add(double v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum += v;
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

Value AggAccumulator::Finalize(OlapAggregation::Kind kind) const {
  switch (kind) {
    case OlapAggregation::Kind::kCount: return Value(count);
    case OlapAggregation::Kind::kSum: return Value(sum);
    case OlapAggregation::Kind::kMin: return Value(count == 0 ? 0.0 : min);
    case OlapAggregation::Kind::kMax: return Value(count == 0 ? 0.0 : max);
    case OlapAggregation::Kind::kAvg:
      return Value(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return Value::Null();
}

void AppendAccumulator(Row* row, const AggAccumulator& acc) {
  row->push_back(Value(acc.count));
  row->push_back(Value(acc.sum));
  row->push_back(Value(acc.min));
  row->push_back(Value(acc.max));
}

Result<AggAccumulator> ReadAccumulator(const Row& row, size_t offset) {
  if (offset + 4 > row.size()) return Status::Corruption("partial row too short");
  AggAccumulator acc;
  acc.count = row[offset].AsInt();
  acc.sum = row[offset + 1].AsDouble();
  acc.min = row[offset + 2].AsDouble();
  acc.max = row[offset + 3].AsDouble();
  return acc;
}

// --- Segment build ---------------------------------------------------------

void Segment::Column::UnpackRange(size_t start, size_t count, uint32_t* out) const {
  if (!plain.empty()) {
    std::memcpy(out, plain.data() + start, count * sizeof(uint32_t));
  } else {
    packed.Unpack(start, count, out);
  }
}

void Segment::BuildNumericDictionaries() {
  for (Column& column : columns_) {
    column.dict_numeric.resize(column.dictionary.size());
    for (size_t i = 0; i < column.dictionary.size(); ++i) {
      column.dict_numeric[i] = column.dictionary[i].ToNumeric();
    }
  }
}

int64_t Segment::Column::MemoryBytes() const {
  int64_t bytes = 64;
  for (const Value& v : dictionary) bytes += ValueMemoryBytes(v);
  bytes += packed.MemoryBytes();
  bytes += static_cast<int64_t>(plain.capacity() * sizeof(uint32_t));
  if (has_inverted) {
    for (const auto& list : inverted) {
      bytes += static_cast<int64_t>(list.capacity() * sizeof(uint32_t)) + 24;
    }
  }
  return bytes;
}

Result<std::shared_ptr<Segment>> Segment::Build(std::string name, RowSchema schema,
                                                std::vector<Row> rows,
                                                SegmentIndexConfig config) {
  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(name);
  segment->schema_ = std::move(schema);
  segment->config_ = config;
  const size_t num_cols = segment->schema_.NumFields();
  for (const Row& row : rows) {
    if (row.size() != num_cols) {
      return Status::InvalidArgument("row width mismatch in segment build");
    }
  }

  // Sort rows by the sorted column, if any.
  if (!config.sorted_column.empty()) {
    int idx = segment->schema_.FieldIndex(config.sorted_column);
    if (idx < 0) return Status::InvalidArgument("sorted column not in schema");
    segment->sorted_column_ = idx;
    std::stable_sort(rows.begin(), rows.end(), [idx](const Row& a, const Row& b) {
      return a[static_cast<size_t>(idx)] < b[static_cast<size_t>(idx)];
    });
  }
  segment->num_rows_ = rows.size();

  // Dictionary-encode each column.
  segment->columns_.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    Column& column = segment->columns_[c];
    column.type = segment->schema_.fields()[c].type;
    std::set<Value> values;
    for (const Row& row : rows) values.insert(CoerceTo(column.type, row[c]));
    column.dictionary.assign(values.begin(), values.end());
    std::vector<uint32_t> ids(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      auto it = std::lower_bound(column.dictionary.begin(), column.dictionary.end(),
                                 CoerceTo(column.type, rows[r][c]));
      ids[r] = static_cast<uint32_t>(it - column.dictionary.begin());
    }
    uint32_t max_id =
        column.dictionary.empty() ? 0
                                  : static_cast<uint32_t>(column.dictionary.size() - 1);
    if (config.bit_packed_forward_index) {
      column.packed = BitPackedVector(ids, max_id);
    } else {
      column.plain = std::move(ids);
    }
  }

  segment->BuildNumericDictionaries();
  segment->BuildZoneMaps();
  segment->BuildIndexes(config);
  return segment;
}

void Segment::BuildIndexes(const SegmentIndexConfig& config) {
  constexpr size_t kBatch = 1024;
  std::vector<uint32_t> batch(std::min(kBatch, std::max<size_t>(num_rows_, 1)));

  // Inverted indexes (batch-decoded forward index instead of per-row Get).
  for (const std::string& name : config.inverted_columns) {
    int idx = schema_.FieldIndex(name);
    if (idx < 0) continue;
    Column& column = columns_[static_cast<size_t>(idx)];
    column.has_inverted = true;
    column.inverted.assign(column.dictionary.size(), {});
    for (size_t base = 0; base < num_rows_; base += kBatch) {
      size_t count = std::min(kBatch, num_rows_ - base);
      column.UnpackRange(base, count, batch.data());
      for (size_t i = 0; i < count; ++i) {
        column.inverted[batch[i]].push_back(static_cast<uint32_t>(base + i));
      }
    }
  }

  // Star-tree cube.
  star_dims_.clear();
  star_metrics_.clear();
  for (const std::string& dim : config.star_tree_dimensions) {
    int idx = schema_.FieldIndex(dim);
    if (idx >= 0) star_dims_.push_back(idx);
  }
  for (const std::string& metric : config.star_tree_metrics) {
    int idx = schema_.FieldIndex(metric);
    if (idx >= 0) star_metrics_.push_back(idx);
  }
  star_tree_.clear();
  if (star_dims_.empty()) return;
  const size_t dims = star_dims_.size();
  const size_t stride = 1 + star_metrics_.size();
  std::vector<std::vector<uint32_t>> dim_ids(dims, std::vector<uint32_t>(num_rows_));
  for (size_t d = 0; d < dims; ++d) {
    columns_[static_cast<size_t>(star_dims_[d])].UnpackRange(0, num_rows_,
                                                            dim_ids[d].data());
  }
  std::vector<std::vector<double>> metric_values(star_metrics_.size());
  for (size_t m = 0; m < star_metrics_.size(); ++m) {
    const Column& mc = columns_[static_cast<size_t>(star_metrics_[m])];
    std::vector<uint32_t> ids(num_rows_);
    mc.UnpackRange(0, num_rows_, ids.data());
    metric_values[m].reserve(num_rows_);
    for (uint32_t id : ids) metric_values[m].push_back(mc.dict_numeric[id]);
  }

  // Level k: stable-sort the rows by their k-prefix (ties keep row order, so
  // every cell accumulates its rows in row order), then run-length
  // aggregate each run of equal prefixes into one cell.
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0u);
  star_tree_.resize(dims + 1);
  for (size_t k = 0; k <= dims; ++k) {
    auto prefix_less = [&](uint32_t a, uint32_t b) {
      for (size_t d = 0; d < k; ++d) {
        if (dim_ids[d][a] != dim_ids[d][b]) return dim_ids[d][a] < dim_ids[d][b];
      }
      return false;
    };
    if (k > 0) std::stable_sort(order.begin(), order.end(), prefix_less);
    StarTreeLevel& level = star_tree_[k];
    for (size_t i = 0; i < num_rows_; ++i) {
      uint32_t r = order[i];
      if (i == 0 || prefix_less(order[i - 1], r)) {
        for (size_t d = 0; d < k; ++d) level.ids.push_back(dim_ids[d][r]);
        level.accs.resize(level.accs.size() + stride);
      }
      AggAccumulator* cell = &level.accs[level.accs.size() - stride];
      cell[0].Add(0.0);
      for (size_t m = 0; m < star_metrics_.size(); ++m) {
        cell[1 + m].Add(metric_values[m][r]);
      }
    }
    if (k == 0 && level.accs.empty()) level.accs.resize(stride);
    level.ids.shrink_to_fit();
    level.accs.shrink_to_fit();
  }
}

Value Segment::GetValue(size_t row_index, int column_index) const {
  const Column& column = columns_[static_cast<size_t>(column_index)];
  return column.dictionary[column.IdAt(row_index)];
}

Row Segment::GetRow(size_t row_index) const {
  Row row;
  row.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    row.push_back(GetValue(row_index, static_cast<int>(c)));
  }
  return row;
}

int64_t Segment::MemoryBytes() const {
  // Lazy decode mutates columns_ under lazy_->mu; hold it across the walk
  // so footprint accounting never races a first-touch materialization.
  std::unique_lock<std::mutex> lock;
  if (lazy_ != nullptr) lock = std::unique_lock<std::mutex>(lazy_->mu);
  int64_t bytes = 128;
  for (const Column& column : columns_) bytes += column.MemoryBytes();
  for (const ZoneMap& zone : zones_) {
    bytes += 16 + static_cast<int64_t>(zone.bloom.capacity() * sizeof(uint64_t)) +
             ValueMemoryBytes(zone.min) + ValueMemoryBytes(zone.max);
  }
  for (const StarTreeLevel& level : star_tree_) {
    bytes += 48 + static_cast<int64_t>(level.ids.capacity() * sizeof(uint32_t) +
                                       level.accs.capacity() * sizeof(AggAccumulator));
  }
  return bytes;
}

// --- Zone maps & bloom pruning ---------------------------------------------

namespace {

/// Dictionaries below this stay bloom-less: a binary search over a handful
/// of values beats maintaining and probing filter words.
constexpr size_t kBloomMinCardinality = 64;
/// Filter bits per distinct value (2 probes -> ~5% false positives).
constexpr uint64_t kBloomBitsPerValue = 8;

uint64_t BloomHash(const Value& v) { return Fnv1a64(EncodeRow({v})); }

}  // namespace

bool Segment::ZoneMap::MayContain(uint64_t hash) const {
  if (bloom.empty()) return true;
  uint64_t h2 = (hash >> 32) | 1;
  for (uint64_t probe = 0; probe < 2; ++probe) {
    uint64_t bit = (hash + probe * h2) & bloom_mask;
    if ((bloom[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void Segment::BuildZoneMaps(bool keep_blooms) {
  if (!keep_blooms) zones_.clear();
  zones_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    ZoneMap& zone = zones_[c];
    const Column& column = columns_[c];
    if (column.dictionary.empty()) continue;
    // The dictionary is sorted, so min/max need no extra storage.
    zone.min = column.dictionary.front();
    zone.max = column.dictionary.back();
    if (keep_blooms && !zone.bloom.empty()) continue;
    zone.bloom.clear();
    zone.bloom_mask = 0;
    if (column.dictionary.size() < kBloomMinCardinality) continue;
    uint64_t bits = 64;
    while (bits < column.dictionary.size() * kBloomBitsPerValue) bits <<= 1;
    zone.bloom_mask = bits - 1;
    zone.bloom.assign(bits / 64, 0);
    for (const Value& v : column.dictionary) {
      uint64_t hash = BloomHash(v);
      uint64_t h2 = (hash >> 32) | 1;
      for (uint64_t probe = 0; probe < 2; ++probe) {
        uint64_t bit = (hash + probe * h2) & zone.bloom_mask;
        zone.bloom[bit >> 6] |= 1ULL << (bit & 63);
      }
    }
  }
}

bool Segment::CanMatch(const FilterPredicate& pred) const {
  int idx = ColumnIndex(pred.column);
  if (idx < 0) return true;  // unknown column: execution reports the error
  if (zones_.size() != columns_.size()) return true;
  const Column& column = columns_[static_cast<size_t>(idx)];
  const ZoneMap& zone = zones_[static_cast<size_t>(idx)];
  if (column.dictionary.empty()) return false;  // no rows, nothing matches
  // Coerce exactly like PredicateIdRange so pruning can never disagree with
  // execution.
  Value target = CoerceTo(column.type, pred.value);
  const Value& lo = zone.min;
  const Value& hi = zone.max;
  switch (pred.op) {
    case FilterPredicate::Op::kEq: {
      if (target < lo || hi < target) return false;
      if (!zone.MayContain(BloomHash(target))) return false;
      // The dictionary is resident, so back the bloom's "maybe" with the
      // exact membership answer.
      return std::binary_search(column.dictionary.begin(),
                                column.dictionary.end(), target);
    }
    case FilterPredicate::Op::kNe:
      // Prunable only when every row holds exactly the target value.
      return !(column.dictionary.size() == 1 && !(lo < target) && !(target < lo));
    case FilterPredicate::Op::kLt:
      return lo < target;
    case FilterPredicate::Op::kLe:
      return !(target < lo);
    case FilterPredicate::Op::kGt:
      return target < hi;
    case FilterPredicate::Op::kGe:
      return !(hi < target);
  }
  return true;
}

// --- Detached prune info (warm/cold tiers) ----------------------------------

bool SegmentPruneInfo::CanMatch(const FilterPredicate& pred) const {
  const ColumnPrune* col = nullptr;
  for (const ColumnPrune& c : columns_) {
    if (c.name == pred.column) {
      col = &c;
      break;
    }
  }
  if (col == nullptr) return true;  // unknown column: execution reports it
  if (!col->any_rows) return false;
  Value target = CoerceTo(col->type, pred.value);
  const Value& lo = col->min;
  const Value& hi = col->max;
  switch (pred.op) {
    case FilterPredicate::Op::kEq: {
      if (target < lo || hi < target) return false;
      // Bloom-only membership — no resident dictionary to back the "maybe"
      // with an exact answer, so a false positive scans a segment the hot
      // check would have pruned; never the reverse.
      if (!col->bloom.empty()) {
        uint64_t hash = BloomHash(target);
        uint64_t h2 = (hash >> 32) | 1;
        for (uint64_t probe = 0; probe < 2; ++probe) {
          uint64_t bit = (hash + probe * h2) & col->bloom_mask;
          if ((col->bloom[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
        }
      }
      return true;
    }
    case FilterPredicate::Op::kNe:
      // min == max means every row holds exactly the one distinct value.
      return !(!(lo < hi) && !(hi < lo) && !(lo < target) && !(target < lo));
    case FilterPredicate::Op::kLt:
      return lo < target;
    case FilterPredicate::Op::kLe:
      return !(target < lo);
    case FilterPredicate::Op::kGt:
      return target < hi;
    case FilterPredicate::Op::kGe:
      return !(hi < target);
  }
  return true;
}

int64_t SegmentPruneInfo::MemoryBytes() const {
  int64_t bytes = 32;
  for (const ColumnPrune& c : columns_) {
    bytes += 64 + static_cast<int64_t>(c.name.size()) +
             static_cast<int64_t>(c.bloom.capacity() * sizeof(uint64_t)) +
             ValueMemoryBytes(c.min) + ValueMemoryBytes(c.max);
  }
  return bytes;
}

SegmentPruneInfo Segment::BuildPruneInfo() const {
  std::vector<SegmentPruneInfo::ColumnPrune> cols;
  cols.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    SegmentPruneInfo::ColumnPrune p;
    p.name = schema_.fields()[c].name;
    p.type = columns_[c].type;
    p.any_rows = !columns_[c].dictionary.empty();
    if (p.any_rows) {
      p.min = columns_[c].dictionary.front();
      p.max = columns_[c].dictionary.back();
    }
    if (c < zones_.size()) {
      p.bloom = zones_[c].bloom;
      p.bloom_mask = zones_[c].bloom_mask;
    }
    cols.push_back(std::move(p));
  }
  return SegmentPruneInfo(std::move(cols));
}

// --- Filtering -------------------------------------------------------------

Result<std::pair<uint32_t, uint32_t>> Segment::PredicateIdRange(
    const Column& column, const FilterPredicate& pred) const {
  Value target = CoerceTo(column.type, pred.value);
  auto lo_it = std::lower_bound(column.dictionary.begin(), column.dictionary.end(),
                                target);
  auto hi_it = std::upper_bound(column.dictionary.begin(), column.dictionary.end(),
                                target);
  uint32_t lo = static_cast<uint32_t>(lo_it - column.dictionary.begin());
  uint32_t hi = static_cast<uint32_t>(hi_it - column.dictionary.begin());
  uint32_t n = static_cast<uint32_t>(column.dictionary.size());
  switch (pred.op) {
    case FilterPredicate::Op::kEq: return std::make_pair(lo, hi);
    case FilterPredicate::Op::kLt: return std::make_pair(0u, lo);
    case FilterPredicate::Op::kLe: return std::make_pair(0u, hi);
    case FilterPredicate::Op::kGt: return std::make_pair(hi, n);
    case FilterPredicate::Op::kGe: return std::make_pair(lo, n);
    case FilterPredicate::Op::kNe:
      return Status::InvalidArgument("kNe has no contiguous id range");
  }
  return Status::Internal("bad predicate op");
}

Result<std::vector<uint32_t>> Segment::FilterRows(
    const std::vector<FilterPredicate>& preds, bool* all, int64_t* rows_scanned) const {
  *all = false;
  std::vector<const FilterPredicate*> scan_preds;
  std::vector<uint32_t> candidates;
  bool have_candidates = false;

  auto intersect = [&](std::vector<uint32_t> rows) {
    if (!have_candidates) {
      candidates = std::move(rows);
      have_candidates = true;
      return;
    }
    std::vector<uint32_t> merged;
    std::set_intersection(candidates.begin(), candidates.end(), rows.begin(),
                          rows.end(), std::back_inserter(merged));
    candidates = std::move(merged);
  };

  for (const FilterPredicate& pred : preds) {
    int idx = ColumnIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.column);
    const Column& column = columns_[static_cast<size_t>(idx)];
    if (pred.op == FilterPredicate::Op::kNe) {
      scan_preds.push_back(&pred);
      continue;
    }
    Result<std::pair<uint32_t, uint32_t>> range = PredicateIdRange(column, pred);
    if (!range.ok()) return range.status();
    auto [lo, hi] = range.value();
    if (lo >= hi) return std::vector<uint32_t>{};  // no dictionary match
    if (idx == sorted_column_) {
      // Sorted column: rows with ids in [lo,hi) are contiguous; binary
      // search the row range.
      size_t row_lo = 0, row_hi = num_rows_;
      {
        size_t a = 0, b = num_rows_;
        while (a < b) {
          size_t mid = (a + b) / 2;
          if (column.IdAt(mid) < lo) a = mid + 1; else b = mid;
        }
        row_lo = a;
        a = row_lo;
        b = num_rows_;
        while (a < b) {
          size_t mid = (a + b) / 2;
          if (column.IdAt(mid) < hi) a = mid + 1; else b = mid;
        }
        row_hi = a;
      }
      std::vector<uint32_t> rows;
      rows.reserve(row_hi - row_lo);
      for (size_t r = row_lo; r < row_hi; ++r) rows.push_back(static_cast<uint32_t>(r));
      intersect(std::move(rows));
    } else if (column.has_inverted) {
      // Inverted index: union of the posting lists in the id range. This is
      // also how range predicates are served ("range index").
      std::vector<uint32_t> rows;
      for (uint32_t id = lo; id < hi; ++id) {
        rows.insert(rows.end(), column.inverted[id].begin(), column.inverted[id].end());
      }
      std::sort(rows.begin(), rows.end());
      intersect(std::move(rows));
    } else {
      scan_preds.push_back(&pred);
    }
  }

  auto matches_scan = [&](uint32_t r) {
    for (const FilterPredicate* pred : scan_preds) {
      int idx = ColumnIndex(pred->column);
      const Column& column = columns_[static_cast<size_t>(idx)];
      uint32_t id = column.IdAt(r);
      if (pred->op == FilterPredicate::Op::kNe) {
        Value target = CoerceTo(column.type, pred->value);
        const Value& v = column.dictionary[id];
        if (!(v < target) && !(target < v)) return false;  // equal -> excluded
      } else {
        Result<std::pair<uint32_t, uint32_t>> range = PredicateIdRange(column, *pred);
        auto [lo, hi] = range.value();
        if (id < lo || id >= hi) return false;
      }
    }
    return true;
  };

  if (!have_candidates) {
    if (scan_preds.empty()) {
      *all = true;
      return std::vector<uint32_t>{};
    }
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < num_rows_; ++r) {
      ++*rows_scanned;
      if (matches_scan(static_cast<uint32_t>(r))) rows.push_back(static_cast<uint32_t>(r));
    }
    return rows;
  }
  if (scan_preds.empty()) return candidates;
  std::vector<uint32_t> rows;
  for (uint32_t r : candidates) {
    ++*rows_scanned;
    if (matches_scan(r)) rows.push_back(r);
  }
  return rows;
}

// --- Execute ----------------------------------------------------------------

Result<OlapResult> Segment::Execute(const OlapQuery& query,
                                    const std::vector<bool>* validity,
                                    OlapQueryStats* stats) const {
  if (lazy_ != nullptr) {
    UBERRT_RETURN_IF_ERROR(EnsureForQuery(query, stats));
  }
  ++stats->segments_scanned;
  if (query.force_scalar) return ExecuteScalar(query, validity, stats);
  if (!query.aggregations.empty()) {
    OlapResult result;
    if (TryStarTree(query, validity, &result)) {
      ++stats->star_tree_hits;
      return result;
    }
  }
  return ExecuteVectorized(query, validity, stats);
}

Result<OlapResult> Segment::ExecuteScalar(const OlapQuery& query,
                                          const std::vector<bool>* validity,
                                          OlapQueryStats* stats) const {
  OlapResult result;
  if (!query.aggregations.empty()) {
    int64_t scanned_before = stats->rows_scanned;
    bool all = false;
    Result<std::vector<uint32_t>> rows =
        FilterRows(query.filters, &all, &stats->rows_scanned);
    if (!rows.ok()) return rows.status();
    // One accounting per row per query: when the filter phase already
    // examined rows (scan predicates), the aggregate phase adds nothing.
    const bool filter_scanned = stats->rows_scanned != scanned_before;

    std::vector<int> group_indices;
    for (const std::string& g : query.group_by) {
      int idx = ColumnIndex(g);
      if (idx < 0) return Status::InvalidArgument("unknown group column: " + g);
      group_indices.push_back(idx);
    }
    std::vector<int> agg_indices;
    for (const OlapAggregation& agg : query.aggregations) {
      int idx = agg.column.empty() ? -1 : ColumnIndex(agg.column);
      if (!agg.column.empty() && idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " + agg.column);
      }
      agg_indices.push_back(idx);
    }

    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    auto process_row = [&](uint32_t r) {
      if (validity != nullptr && !(*validity)[r]) return;
      if (!filter_scanned) ++stats->rows_scanned;
      std::string group_key;
      for (int idx : group_indices) {
        AppendU32BE(&group_key, columns_[static_cast<size_t>(idx)].IdAt(r));
      }
      GroupEntry& entry = groups[group_key];
      if (entry.accs.empty()) {
        entry.accs.resize(query.aggregations.size());
        for (int idx : group_indices) {
          entry.key_values.push_back(GetValue(r, idx));
        }
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        double v = agg_indices[a] >= 0 ? GetValue(r, agg_indices[a]).ToNumeric() : 0.0;
        entry.accs[a].Add(v);
      }
    };
    if (all) {
      for (size_t r = 0; r < num_rows_; ++r) process_row(static_cast<uint32_t>(r));
    } else {
      for (uint32_t r : rows.value()) process_row(r);
    }
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (const AggAccumulator& acc : entry.accs) AppendAccumulator(&row, acc);
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  // Raw selection.
  if (query.select_columns.empty()) {
    return Status::InvalidArgument("query needs select columns or aggregations");
  }
  std::vector<int> select_indices;
  for (const std::string& s : query.select_columns) {
    int idx = ColumnIndex(s);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + s);
    select_indices.push_back(idx);
  }
  int64_t scanned_before = stats->rows_scanned;
  bool all = false;
  Result<std::vector<uint32_t>> rows =
      FilterRows(query.filters, &all, &stats->rows_scanned);
  if (!rows.ok()) return rows.status();
  const bool filter_scanned = stats->rows_scanned != scanned_before;
  auto emit = [&](uint32_t r) {
    if (validity != nullptr && !(*validity)[r]) return true;
    if (!filter_scanned) ++stats->rows_scanned;
    Row row;
    row.reserve(select_indices.size());
    for (int idx : select_indices) row.push_back(GetValue(r, idx));
    result.rows.push_back(std::move(row));
    // Per-segment short-circuit only valid without ORDER BY.
    return !(query.limit >= 0 && query.order_by.empty() &&
             static_cast<int64_t>(result.rows.size()) >= query.limit);
  };
  if (all) {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!emit(static_cast<uint32_t>(r))) break;
    }
  } else {
    for (uint32_t r : rows.value()) {
      if (!emit(r)) break;
    }
  }
  return result;
}

// --- Serialization -----------------------------------------------------------

std::string Segment::Serialize() const {
  // A lazy segment's pinned blob IS its serialized form (bloom sections
  // included), whatever subset of columns happens to be materialized.
  if (lazy_ != nullptr) return lazy_->blob->substr(lazy_->base_offset);
  std::string out;
  AppendString(&out, name_);
  AppendU32(&out, static_cast<uint32_t>(schema_.NumFields()));
  for (const FieldSpec& f : schema_.fields()) {
    AppendString(&out, f.name);
    out.push_back(static_cast<char>(f.type));
  }
  AppendU64(&out, num_rows_);
  // Index config (indexes themselves are rebuilt on load).
  out.push_back(config_.bit_packed_forward_index ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(config_.inverted_columns.size()));
  for (const std::string& c : config_.inverted_columns) AppendString(&out, c);
  AppendString(&out, config_.sorted_column);
  AppendU32(&out, static_cast<uint32_t>(config_.star_tree_dimensions.size()));
  for (const std::string& c : config_.star_tree_dimensions) AppendString(&out, c);
  AppendU32(&out, static_cast<uint32_t>(config_.star_tree_metrics.size()));
  for (const std::string& c : config_.star_tree_metrics) AppendString(&out, c);
  // Columns: dictionary (as one encoded row) + forward index.
  for (const Column& column : columns_) {
    Row dict_row(column.dictionary.begin(), column.dictionary.end());
    AppendString(&out, EncodeRow(dict_row));
    if (!config_.bit_packed_forward_index) {
      for (size_t r = 0; r < num_rows_; ++r) AppendU32(&out, column.plain[r]);
    } else {
      AppendU32(&out, static_cast<uint32_t>(column.packed.bits_per_value()));
      AppendU64(&out, column.packed.words().size());
      for (uint64_t w : column.packed.words()) AppendU64(&out, w);
    }
  }
  // Zone-map bloom filters, computed once at seal; min/max re-derive from
  // the sorted dictionaries on load.
  for (const ZoneMap& zone : zones_) {
    AppendU64(&out, zone.bloom_mask);
    AppendU64(&out, zone.bloom.size());
    for (uint64_t w : zone.bloom) AppendU64(&out, w);
  }
  return out;
}

namespace {

/// Everything that precedes the per-column payload, shared by the eager and
/// lazy decoders so the two can never drift on the header layout.
struct SegmentHeaderInfo {
  std::string name;
  std::vector<FieldSpec> fields;
  uint64_t num_rows = 0;
  SegmentIndexConfig config;
};

Status ParseSegmentHeader(const std::string& blob, size_t* pos,
                          SegmentHeaderInfo* out) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  if (!ReadString(blob, pos, &out->name)) return corrupt();
  uint32_t num_fields;
  if (!ReadU32(blob, pos, &num_fields)) return corrupt();
  for (uint32_t i = 0; i < num_fields; ++i) {
    FieldSpec f;
    if (!ReadString(blob, pos, &f.name)) return corrupt();
    if (*pos >= blob.size()) return corrupt();
    f.type = static_cast<ValueType>(blob[(*pos)++]);
    out->fields.push_back(std::move(f));
  }
  if (!ReadU64(blob, pos, &out->num_rows)) return corrupt();
  if (*pos >= blob.size()) return corrupt();
  out->config.bit_packed_forward_index = blob[(*pos)++] != 0;
  uint32_t n;
  if (!ReadU32(blob, pos, &n)) return corrupt();
  for (uint32_t i = 0; i < n; ++i) {
    std::string c;
    if (!ReadString(blob, pos, &c)) return corrupt();
    out->config.inverted_columns.push_back(std::move(c));
  }
  if (!ReadString(blob, pos, &out->config.sorted_column)) return corrupt();
  if (!ReadU32(blob, pos, &n)) return corrupt();
  for (uint32_t i = 0; i < n; ++i) {
    std::string c;
    if (!ReadString(blob, pos, &c)) return corrupt();
    out->config.star_tree_dimensions.push_back(std::move(c));
  }
  if (!ReadU32(blob, pos, &n)) return corrupt();
  for (uint32_t i = 0; i < n; ++i) {
    std::string c;
    if (!ReadString(blob, pos, &c)) return corrupt();
    out->config.star_tree_metrics.push_back(std::move(c));
  }
  return Status::Ok();
}

}  // namespace

Result<std::shared_ptr<Segment>> Segment::Deserialize(const std::string& blob) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  size_t pos = 0;
  SegmentHeaderInfo header;
  UBERRT_RETURN_IF_ERROR(ParseSegmentHeader(blob, &pos, &header));
  const uint32_t num_fields = static_cast<uint32_t>(header.fields.size());
  const uint64_t num_rows = header.num_rows;
  const SegmentIndexConfig& config = header.config;

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(header.name);
  segment->schema_ = RowSchema(header.fields);
  segment->num_rows_ = num_rows;
  segment->config_ = config;
  segment->sorted_column_ = config.sorted_column.empty()
                                ? -1
                                : segment->schema_.FieldIndex(config.sorted_column);
  segment->columns_.resize(num_fields);
  constexpr size_t kBatch = 1024;
  std::vector<uint32_t> batch(kBatch);
  for (uint32_t c = 0; c < num_fields; ++c) {
    Column& column = segment->columns_[c];
    column.type = header.fields[c].type;
    std::string dict_blob;
    if (!ReadString(blob, &pos, &dict_blob)) return corrupt();
    Result<Row> dict = DecodeRow(dict_blob);
    if (!dict.ok()) return dict.status();
    column.dictionary = std::move(dict.value());
    const uint32_t dict_size = static_cast<uint32_t>(column.dictionary.size());
    if (!config.bit_packed_forward_index) {
      if (num_rows > (blob.size() - pos) / 4) return corrupt();
      column.plain.resize(num_rows);
      for (uint64_t r = 0; r < num_rows; ++r) {
        if (!ReadU32(blob, &pos, &column.plain[r])) return corrupt();
        if (column.plain[r] >= dict_size) {
          return Status::Corruption("segment blob: dict id out of range");
        }
      }
    } else {
      uint32_t bits;
      uint64_t num_words;
      if (!ReadU32(blob, &pos, &bits)) return corrupt();
      if (!ReadU64(blob, &pos, &num_words)) return corrupt();
      if (num_words > (blob.size() - pos) / 8) return corrupt();
      std::vector<uint64_t> words(num_words);
      for (uint64_t w = 0; w < num_words; ++w) {
        if (!ReadU64(blob, &pos, &words[w])) return corrupt();
      }
      // Adopt the serialized words directly (no unpack/repack round trip),
      // then batch-decode once to validate every id against the dictionary
      // so hostile blobs can't drive out-of-range lookups later.
      Result<BitPackedVector> packed =
          BitPackedVector::FromWords(static_cast<int>(bits), num_rows, std::move(words));
      if (!packed.ok()) return packed.status();
      column.packed = std::move(packed.value());
      for (uint64_t base = 0; base < num_rows; base += kBatch) {
        size_t count = static_cast<size_t>(std::min<uint64_t>(kBatch, num_rows - base));
        column.packed.Unpack(base, count, batch.data());
        for (size_t i = 0; i < count; ++i) {
          if (batch[i] >= dict_size) {
            return Status::Corruption("segment blob: dict id out of range");
          }
        }
      }
    }
  }
  // Bloom words are adopted as serialized (hostile geometry rejected);
  // min/max come from the dictionaries.
  segment->zones_.resize(num_fields);
  for (uint32_t c = 0; c < num_fields; ++c) {
    ZoneMap& zone = segment->zones_[c];
    uint64_t mask, num_words;
    if (!ReadU64(blob, &pos, &mask)) return corrupt();
    if (!ReadU64(blob, &pos, &num_words)) return corrupt();
    if (num_words > (blob.size() - pos) / 8) return corrupt();
    const uint64_t bits = num_words * 64;
    if ((num_words == 0 && mask != 0) ||
        (num_words > 0 && (mask != bits - 1 || (bits & (bits - 1)) != 0))) {
      return Status::Corruption("segment blob: bad bloom geometry");
    }
    zone.bloom_mask = mask;
    zone.bloom.resize(num_words);
    for (uint64_t w = 0; w < num_words; ++w) {
      if (!ReadU64(blob, &pos, &zone.bloom[w])) return corrupt();
    }
  }
  segment->BuildNumericDictionaries();
  segment->BuildZoneMaps(/*keep_blooms=*/true);
  segment->BuildIndexes(config);
  return segment;
}

Result<std::shared_ptr<Segment>> Segment::DeserializeLazy(
    std::shared_ptr<const std::string> blob, size_t offset) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  const std::string& data = *blob;
  size_t pos = offset;
  SegmentHeaderInfo header;
  UBERRT_RETURN_IF_ERROR(ParseSegmentHeader(data, &pos, &header));
  const size_t num_fields = header.fields.size();

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->name_ = std::move(header.name);
  segment->schema_ = RowSchema(header.fields);
  segment->num_rows_ = header.num_rows;
  segment->config_ = header.config;
  segment->sorted_column_ =
      header.config.sorted_column.empty()
          ? -1
          : segment->schema_.FieldIndex(header.config.sorted_column);
  segment->columns_.resize(num_fields);

  auto lazy = std::make_unique<LazySource>();
  lazy->blob = blob;
  lazy->base_offset = offset;
  lazy->columns.resize(num_fields);
  lazy->decoded.assign(num_fields, false);
  // One structural pass: record where each column's payload lives (so a
  // truncated blob fails here, not mid-query) without decoding anything.
  for (size_t c = 0; c < num_fields; ++c) {
    segment->columns_[c].type = header.fields[c].type;
    LazyColumn& lc = lazy->columns[c];
    lc.dict_pos = pos;
    uint32_t dict_len;
    if (!ReadU32(data, &pos, &dict_len)) return corrupt();
    if (dict_len > data.size() - pos) return corrupt();
    pos += dict_len;
    if (!header.config.bit_packed_forward_index) {
      lc.plain_pos = pos;
      if (header.num_rows > (data.size() - pos) / 4) return corrupt();
      pos += static_cast<size_t>(header.num_rows) * 4;
    } else {
      if (!ReadU32(data, &pos, &lc.bits)) return corrupt();
      if (!ReadU64(data, &pos, &lc.num_words)) return corrupt();
      lc.words_pos = pos;
      if (lc.num_words > (data.size() - pos) / 8) return corrupt();
      pos += static_cast<size_t>(lc.num_words) * 8;
    }
  }
  // The trailing bloom sections are deliberately not parsed: a lazy segment
  // carries no zone maps (CanMatch degrades to conservative-true); the
  // detached SegmentPruneInfo on its handle does the real plan-time pruning.
  segment->lazy_ = std::move(lazy);
  return segment;
}

Status Segment::EnsureColumnIndexes(const std::vector<int>& indexes,
                                    OlapQueryStats* stats) const {
  if (lazy_ == nullptr) return Status::Ok();
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  const std::string& data = *lazy_->blob;
  std::lock_guard<std::mutex> lock(lazy_->mu);
  constexpr size_t kBatch = 1024;
  std::vector<uint32_t> batch;
  for (int idx : indexes) {
    if (idx < 0 || static_cast<size_t>(idx) >= columns_.size()) continue;
    const size_t c = static_cast<size_t>(idx);
    if (lazy_->decoded[c]) continue;
    Column& column = columns_[c];
    const LazyColumn& lc = lazy_->columns[c];
    size_t pos = lc.dict_pos;
    std::string dict_blob;
    if (!ReadString(data, &pos, &dict_blob)) return corrupt();
    Result<Row> dict = DecodeRow(dict_blob);
    if (!dict.ok()) return dict.status();
    column.dictionary = std::move(dict.value());
    const uint32_t dict_size = static_cast<uint32_t>(column.dictionary.size());
    if (!config_.bit_packed_forward_index) {
      pos = lc.plain_pos;
      column.plain.resize(num_rows_);
      for (size_t r = 0; r < num_rows_; ++r) {
        if (!ReadU32(data, &pos, &column.plain[r])) return corrupt();
        if (column.plain[r] >= dict_size) {
          return Status::Corruption("segment blob: dict id out of range");
        }
      }
    } else {
      pos = lc.words_pos;
      std::vector<uint64_t> words(static_cast<size_t>(lc.num_words));
      for (uint64_t w = 0; w < lc.num_words; ++w) {
        if (!ReadU64(data, &pos, &words[w])) return corrupt();
      }
      Result<BitPackedVector> packed = BitPackedVector::FromWords(
          static_cast<int>(lc.bits), num_rows_, std::move(words));
      if (!packed.ok()) return packed.status();
      column.packed = std::move(packed.value());
      // Same hostile-id validation as the eager decoder.
      if (batch.empty()) batch.resize(std::min(kBatch, std::max<size_t>(num_rows_, 1)));
      for (size_t base = 0; base < num_rows_; base += kBatch) {
        size_t count = std::min(kBatch, num_rows_ - base);
        column.packed.Unpack(base, count, batch.data());
        for (size_t i = 0; i < count; ++i) {
          if (batch[i] >= dict_size) {
            return Status::Corruption("segment blob: dict id out of range");
          }
        }
      }
    }
    column.dict_numeric.resize(column.dictionary.size());
    for (size_t i = 0; i < column.dictionary.size(); ++i) {
      column.dict_numeric[i] = column.dictionary[i].ToNumeric();
    }
    lazy_->decoded[c] = true;
    if (stats != nullptr) ++stats->columns_materialized;
  }
  return Status::Ok();
}

Status Segment::EnsureForQuery(const OlapQuery& query,
                               OlapQueryStats* stats) const {
  if (lazy_ == nullptr) return Status::Ok();
  std::vector<int> indexes;
  auto add = [&](const std::string& name) {
    if (name.empty()) return;
    int idx = ColumnIndex(name);
    if (idx >= 0) indexes.push_back(idx);  // unknown: Execute reports it
  };
  for (const FilterPredicate& pred : query.filters) add(pred.column);
  for (const std::string& g : query.group_by) add(g);
  for (const OlapAggregation& agg : query.aggregations) add(agg.column);
  for (const std::string& s : query.select_columns) add(s);
  return EnsureColumnIndexes(indexes, stats);
}

Status Segment::EnsureAllColumns() const {
  if (lazy_ == nullptr) return Status::Ok();
  std::vector<int> all(columns_.size());
  for (size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  return EnsureColumnIndexes(all, nullptr);
}

int64_t Segment::DiskBytes() const {
  if (lazy_ != nullptr) {
    return static_cast<int64_t>(lazy_->blob->size() - lazy_->base_offset);
  }
  return static_cast<int64_t>(Serialize().size());
}

}  // namespace uberrt::olap
