#include "olap/segment.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>

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
Value CoerceTo(ValueType type, Value v) {
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

bool IsNumeric(ValueType type) {
  return type == ValueType::kInt || type == ValueType::kDouble ||
         type == ValueType::kBool;
}

/// A predicate's comparison target in a column's representation.
struct PredicateTarget {
  Value value;
  /// False when no cell of the column can equal the target (2.5 against an
  /// INT column): Eq matches nothing and Ne everything.
  bool exact = true;
};

/// The one predicate-target rule of every dictionary lookup, zone-map and
/// bloom probe: a numeric target is coerced to a numeric column's type only
/// when that loses nothing. A lossy target stays as given, so range
/// predicates keep the exact bound (numbers compare by value across types).
PredicateTarget ResolveTarget(ValueType type, const Value& v) {
  if (v.is_null() || v.type() == type) return {v, true};
  if (!IsNumeric(type) || !IsNumeric(v.type())) return {CoerceTo(type, v), true};
  const double d = v.ToNumeric();
  // Out of int64 range (or NaN): the cast itself would be undefined.
  if (type == ValueType::kInt && !(d >= -0x1p63 && d < 0x1p63)) return {v, false};
  Value coerced = CoerceTo(type, v);
  if (coerced.ToNumeric() == d) return {std::move(coerced), true};
  return {v, false};
}

/// A range predicate (Lt/Le/Gt/Ge) against one value, by Value ordering.
bool InRange(FilterPredicate::Op op, const Value& v, const Value& target) {
  switch (op) {
    case FilterPredicate::Op::kLt: return v < target;
    case FilterPredicate::Op::kLe: return !(target < v);
    case FilterPredicate::Op::kGt: return target < v;
    default: return !(v < target);  // kGe
  }
}

/// Hash consistent with Value ordering equivalence (what a sorted
/// dictionary treats as one value): numbers hash by numeric value, so an
/// INT 2 and a DOUBLE 2.0 (or -0.0 and 0.0) hash alike. Drives both the
/// consuming dictionaries' hash index and the bloom filters.
uint64_t ValueHash(const Value& v) {
  if (v.is_null()) return 0x9E3779B97F4A7C15ULL;
  if (v.type() == ValueType::kString) return Fnv1a64(v.AsString());
  double d = v.ToNumeric();
  if (d == 0.0) d = 0.0;
  uint64_t h;
  std::memcpy(&h, &d, sizeof(h));
  // fmix64 (MurmurHash3): small integers have all-zero low mantissa bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
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

int64_t Segment::Column::MemoryBytes() const {
  int64_t bytes = 64;
  for (const Value& v : dictionary) bytes += ValueMemoryBytes(v);
  bytes += packed.MemoryBytes();
  bytes += static_cast<int64_t>(plain.capacity() * sizeof(uint32_t));
  bytes += static_cast<int64_t>(id_slots.capacity() * sizeof(uint32_t));
  if (has_inverted) {
    for (const auto& list : inverted) {
      bytes += static_cast<int64_t>(list.capacity() * sizeof(uint32_t)) + 24;
    }
  }
  return bytes;
}

size_t Segment::Column::ProbeSlot(const Value& v) const {
  const size_t mask = id_slots.size() - 1;
  size_t slot = ValueHash(v) & mask;
  while (id_slots[slot] != kNoId) {
    const Value& held = dictionary[id_slots[slot]];
    // Value ordering equivalence: what the sorted dictionary will merge.
    if (!(held < v) && !(v < held)) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

uint32_t Segment::Column::FindOrAddId(Value v) {
  if ((dictionary.size() + 1) * 2 > id_slots.size()) {
    id_slots.assign(std::max<size_t>(16, id_slots.size() * 2), kNoId);
    const size_t mask = id_slots.size() - 1;
    for (uint32_t id = 0; id < dictionary.size(); ++id) {
      size_t slot = ValueHash(dictionary[id]) & mask;
      while (id_slots[slot] != kNoId) slot = (slot + 1) & mask;
      id_slots[slot] = id;
    }
  }
  const size_t slot = ProbeSlot(v);
  if (id_slots[slot] != kNoId) return id_slots[slot];
  const uint32_t id = static_cast<uint32_t>(dictionary.size());
  id_slots[slot] = id;
  dict_numeric.push_back(v.ToNumeric());
  dictionary.push_back(std::move(v));
  return id;
}

std::shared_ptr<Segment> Segment::Consuming(RowSchema schema) {
  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->schema_ = std::move(schema);
  segment->consuming_ = true;
  segment->columns_.resize(segment->schema_.NumFields());
  for (size_t c = 0; c < segment->columns_.size(); ++c) {
    segment->columns_[c].type = segment->schema_.fields()[c].type;
  }
  return segment;
}

Status Segment::Append(Row row) {
  if (!consuming_) return Status::FailedPrecondition("append to a sealed segment");
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row width mismatch for segment schema " +
                                   schema_.ToString());
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& column = columns_[c];
    column.plain.push_back(column.FindOrAddId(CoerceTo(column.type, std::move(row[c]))));
  }
  ++num_rows_;
  return Status::Ok();
}

Status Segment::Seal(std::string name, const SegmentIndexConfig& config) {
  if (!consuming_) return Status::FailedPrecondition("segment already sealed");
  int sorted_column = -1;
  if (!config.sorted_column.empty()) {
    sorted_column = schema_.FieldIndex(config.sorted_column);
    if (sorted_column < 0) return Status::InvalidArgument("sorted column not in schema");
  }
  name_ = std::move(name);
  config_ = config;
  sorted_column_ = sorted_column;
  consuming_ = false;

  // Sort each dictionary and remap the forward index onto the sorted ids.
  for (Column& column : columns_) {
    const size_t size = column.dictionary.size();
    std::vector<uint32_t> order(size);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return column.dictionary[a] < column.dictionary[b];
    });
    std::vector<uint32_t> remap(size);
    std::vector<Value> dictionary;
    std::vector<double> dict_numeric;
    dictionary.reserve(size);
    dict_numeric.reserve(size);
    for (uint32_t id = 0; id < size; ++id) {
      remap[order[id]] = id;
      dictionary.push_back(std::move(column.dictionary[order[id]]));
      dict_numeric.push_back(column.dict_numeric[order[id]]);
    }
    column.dictionary = std::move(dictionary);
    column.dict_numeric = std::move(dict_numeric);
    for (uint32_t& id : column.plain) id = remap[id];
    std::vector<uint32_t>().swap(column.id_slots);
  }

  // Sorted column: stable-reorder the rows by its (now value-ordered) ids.
  if (sorted_column >= 0) {
    const std::vector<uint32_t>& keys = columns_[static_cast<size_t>(sorted_column)].plain;
    std::vector<uint32_t> rows(num_rows_);
    std::iota(rows.begin(), rows.end(), 0u);
    std::stable_sort(rows.begin(), rows.end(),
                     [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    for (Column& column : columns_) {
      std::vector<uint32_t> ids(num_rows_);
      for (size_t r = 0; r < num_rows_; ++r) ids[r] = column.plain[rows[r]];
      column.plain = std::move(ids);
    }
  }

  for (Column& column : columns_) {
    if (config.bit_packed_forward_index) {
      const uint32_t max_id =
          column.dictionary.empty() ? 0
                                    : static_cast<uint32_t>(column.dictionary.size() - 1);
      column.packed = BitPackedVector(column.plain, max_id);
      std::vector<uint32_t>().swap(column.plain);
    } else {
      column.plain.shrink_to_fit();
    }
  }
  BuildZoneMaps();
  BuildIndexes(config);
  return Status::Ok();
}

Result<std::shared_ptr<Segment>> Segment::Build(std::string name, RowSchema schema,
                                                std::vector<Row> rows,
                                                SegmentIndexConfig config) {
  std::shared_ptr<Segment> segment = Consuming(std::move(schema));
  for (Row& row : rows) UBERRT_RETURN_IF_ERROR(segment->Append(std::move(row)));
  UBERRT_RETURN_IF_ERROR(segment->Seal(std::move(name), config));
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

std::pair<double, double> Segment::NumericBounds(int column_index) const {
  const std::vector<double>& values = columns_[static_cast<size_t>(column_index)].dict_numeric;
  if (values.empty()) return {0.0, 0.0};
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return {*lo, *hi};
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

/// Bloom membership probe; an empty filter answers "maybe". Hashes with
/// ValueHash, as BuildZoneMaps does over the dictionary's own values.
bool BloomMayContain(const std::vector<uint64_t>& bloom, uint64_t mask,
                     const Value& v) {
  if (bloom.empty()) return true;
  uint64_t hash = ValueHash(v);
  uint64_t h2 = (hash >> 32) | 1;
  for (uint64_t probe = 0; probe < 2; ++probe) {
    uint64_t bit = (hash + probe * h2) & mask;
    if ((bloom[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

/// Zone-map test shared by the hot and the detached (warm/cold) pruning
/// probes: false means no value in [lo, hi] — and, for Eq, none the bloom
/// admits — can satisfy `op` against `target`.
bool ZoneCanMatch(FilterPredicate::Op op, const PredicateTarget& target,
                  const Value& lo, const Value& hi,
                  const std::vector<uint64_t>& bloom, uint64_t bloom_mask) {
  const Value& t = target.value;
  switch (op) {
    case FilterPredicate::Op::kEq:
      return target.exact && !(t < lo) && !(hi < t) &&
             BloomMayContain(bloom, bloom_mask, t);
    case FilterPredicate::Op::kNe:
      // Prunable only when every row holds exactly the target (min == max).
      return !target.exact || lo < hi || lo < t || t < lo;
    case FilterPredicate::Op::kLt: return lo < t;
    case FilterPredicate::Op::kLe: return !(t < lo);
    case FilterPredicate::Op::kGt: return t < hi;
    case FilterPredicate::Op::kGe: return !(hi < t);
  }
  return true;
}

}  // namespace

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
      uint64_t hash = ValueHash(v);
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
  // Same target rule as PredicateIds, so pruning never disagrees with
  // execution.
  const PredicateTarget target = ResolveTarget(column.type, pred.value);
  if (!ZoneCanMatch(pred.op, target, zone.min, zone.max, zone.bloom, zone.bloom_mask)) {
    return false;
  }
  // The dictionary is resident, so back the bloom's "maybe" with the exact
  // membership answer.
  return pred.op != FilterPredicate::Op::kEq ||
         std::binary_search(column.dictionary.begin(), column.dictionary.end(),
                            target.value);
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
  // Bloom-only membership — no resident dictionary to back the "maybe" with
  // an exact answer, so a false positive scans a segment the hot check
  // would have pruned; never the reverse.
  return ZoneCanMatch(pred.op, ResolveTarget(col->type, pred.value), col->min,
                      col->max, col->bloom, col->bloom_mask);
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

Segment::IdSet Segment::PredicateIds(const Column& column,
                                     const FilterPredicate& pred) const {
  const PredicateTarget target = ResolveTarget(column.type, pred.value);
  const bool eq = pred.op == FilterPredicate::Op::kEq || pred.op == FilterPredicate::Op::kNe;
  if (eq && !target.exact) return {};
  const std::vector<Value>& dictionary = column.dictionary;
  if (consuming_) {
    // Unsorted dictionary: one hash lookup for equality, one pass over the
    // dictionary into an id match table otherwise.
    if (eq) {
      const uint32_t id =
          column.id_slots.empty() ? kNoId : column.id_slots[column.ProbeSlot(target.value)];
      if (id == kNoId) return {};
      return {id, id + 1, {}};
    }
    IdSet ids;
    ids.table.resize(dictionary.size());
    bool any = false;
    for (size_t id = 0; id < dictionary.size(); ++id) {
      ids.table[id] = InRange(pred.op, dictionary[id], target.value) ? 1 : 0;
      any = any || ids.table[id] != 0;
    }
    if (!any) return {};
    return ids;
  }
  const uint32_t lo = static_cast<uint32_t>(
      std::lower_bound(dictionary.begin(), dictionary.end(), target.value) -
      dictionary.begin());
  const uint32_t hi = static_cast<uint32_t>(
      std::upper_bound(dictionary.begin(), dictionary.end(), target.value) -
      dictionary.begin());
  const uint32_t n = static_cast<uint32_t>(dictionary.size());
  switch (pred.op) {
    case FilterPredicate::Op::kEq:
    case FilterPredicate::Op::kNe: return {lo, hi, {}};
    case FilterPredicate::Op::kLt: return {0, lo, {}};
    case FilterPredicate::Op::kLe: return {0, hi, {}};
    case FilterPredicate::Op::kGt: return {hi, n, {}};
    case FilterPredicate::Op::kGe: return {lo, n, {}};
  }
  return {};
}

std::pair<size_t, size_t> Segment::SortedRowRange(const Column& column,
                                                  const IdSet& ids) const {
  // Ids are non-decreasing with row index, so binary search both ends.
  auto first_row_at_least = [&](uint32_t id) {
    size_t a = 0, b = num_rows_;
    while (a < b) {
      size_t mid = (a + b) / 2;
      if (column.IdAt(mid) < id) a = mid + 1; else b = mid;
    }
    return a;
  };
  return {first_row_at_least(ids.lo), first_row_at_least(ids.hi)};
}

Result<std::vector<uint32_t>> Segment::FilterRows(
    const std::vector<FilterPredicate>& preds, bool* all, int64_t* rows_scanned) const {
  *all = false;
  struct ScanPred {
    const Column* column;
    IdSet ids;
    bool negate;
  };
  std::vector<ScanPred> scan_preds;
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
    IdSet ids = PredicateIds(column, pred);
    if (pred.op == FilterPredicate::Op::kNe) {
      scan_preds.push_back({&column, std::move(ids), true});
      continue;
    }
    if (ids.None()) return std::vector<uint32_t>{};  // no dictionary match
    if (idx == sorted_column_) {
      auto [row_lo, row_hi] = SortedRowRange(column, ids);
      std::vector<uint32_t> rows;
      rows.reserve(row_hi - row_lo);
      for (size_t r = row_lo; r < row_hi; ++r) rows.push_back(static_cast<uint32_t>(r));
      intersect(std::move(rows));
    } else if (column.has_inverted) {
      // Inverted index: union of the posting lists in the id range. This is
      // also how range predicates are served ("range index").
      std::vector<uint32_t> rows;
      for (uint32_t id = ids.lo; id < ids.hi; ++id) {
        rows.insert(rows.end(), column.inverted[id].begin(), column.inverted[id].end());
      }
      std::sort(rows.begin(), rows.end());
      intersect(std::move(rows));
    } else {
      scan_preds.push_back({&column, std::move(ids), false});
    }
  }

  auto matches_scan = [&](uint32_t r) {
    for (const ScanPred& sp : scan_preds) {
      if (sp.ids.Contains(sp.column->IdAt(r)) == sp.negate) return false;
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
  if (!consuming_) ++stats->segments_scanned;
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

Result<std::shared_ptr<Segment>> Segment::OpenBlob(const std::string& data,
                                                   size_t offset,
                                                   std::vector<LazyColumn>* layout,
                                                   size_t* end) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
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
  layout->assign(num_fields, LazyColumn{});
  for (size_t c = 0; c < num_fields; ++c) {
    segment->columns_[c].type = header.fields[c].type;
    LazyColumn& lc = (*layout)[c];
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
  *end = pos;
  return segment;
}

Status Segment::DecodeColumn(const std::string& data, const LazyColumn& layout,
                             Column* column) const {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  auto bad_id = [] { return Status::Corruption("segment blob: dict id out of range"); };
  size_t pos = layout.dict_pos;
  std::string dict_blob;
  if (!ReadString(data, &pos, &dict_blob)) return corrupt();
  Result<Row> dict = DecodeRow(dict_blob);
  if (!dict.ok()) return dict.status();
  column->dictionary = std::move(dict.value());
  const uint32_t dict_size = static_cast<uint32_t>(column->dictionary.size());
  if (!config_.bit_packed_forward_index) {
    pos = layout.plain_pos;
    column->plain.resize(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!ReadU32(data, &pos, &column->plain[r])) return corrupt();
      if (column->plain[r] >= dict_size) return bad_id();
    }
  } else {
    pos = layout.words_pos;
    std::vector<uint64_t> words(static_cast<size_t>(layout.num_words));
    for (uint64_t& w : words) {
      if (!ReadU64(data, &pos, &w)) return corrupt();
    }
    // Adopt the serialized words directly (no unpack/repack round trip),
    // then batch-decode once to validate every id against the dictionary
    // so hostile blobs can't drive out-of-range lookups later.
    Result<BitPackedVector> packed = BitPackedVector::FromWords(
        static_cast<int>(layout.bits), num_rows_, std::move(words));
    if (!packed.ok()) return packed.status();
    column->packed = std::move(packed.value());
    constexpr size_t kBatch = 1024;
    std::vector<uint32_t> batch(std::min(kBatch, std::max<size_t>(num_rows_, 1)));
    for (size_t base = 0; base < num_rows_; base += kBatch) {
      size_t count = std::min(kBatch, num_rows_ - base);
      column->packed.Unpack(base, count, batch.data());
      for (size_t i = 0; i < count; ++i) {
        if (batch[i] >= dict_size) return bad_id();
      }
    }
  }
  column->dict_numeric.resize(column->dictionary.size());
  for (size_t i = 0; i < column->dictionary.size(); ++i) {
    column->dict_numeric[i] = column->dictionary[i].ToNumeric();
  }
  return Status::Ok();
}

Result<std::shared_ptr<Segment>> Segment::Deserialize(const std::string& blob) {
  auto corrupt = [] { return Status::Corruption("segment blob truncated"); };
  std::vector<LazyColumn> layout;
  size_t pos = 0;
  Result<std::shared_ptr<Segment>> opened = OpenBlob(blob, 0, &layout, &pos);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<Segment> segment = std::move(opened.value());
  const size_t num_fields = segment->columns_.size();
  for (size_t c = 0; c < num_fields; ++c) {
    UBERRT_RETURN_IF_ERROR(segment->DecodeColumn(blob, layout[c], &segment->columns_[c]));
  }
  // Bloom words are adopted as serialized (hostile geometry rejected);
  // min/max come from the dictionaries.
  segment->zones_.resize(num_fields);
  for (size_t c = 0; c < num_fields; ++c) {
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
  segment->BuildZoneMaps(/*keep_blooms=*/true);
  segment->BuildIndexes(segment->config_);
  return segment;
}

Result<std::shared_ptr<Segment>> Segment::DeserializeLazy(
    std::shared_ptr<const std::string> blob, size_t offset) {
  auto lazy = std::make_unique<LazySource>();
  size_t end = 0;
  Result<std::shared_ptr<Segment>> opened = OpenBlob(*blob, offset, &lazy->columns, &end);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<Segment> segment = std::move(opened.value());
  lazy->blob = std::move(blob);
  lazy->base_offset = offset;
  lazy->decoded.assign(segment->columns_.size(), false);
  // The trailing bloom sections are deliberately not parsed: a lazy segment
  // carries no zone maps (CanMatch degrades to conservative-true); the
  // detached SegmentPruneInfo on its handle does the real plan-time pruning.
  segment->lazy_ = std::move(lazy);
  return segment;
}

Status Segment::EnsureColumnIndexes(const std::vector<int>& indexes,
                                    OlapQueryStats* stats) const {
  if (lazy_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(lazy_->mu);
  for (int idx : indexes) {
    if (idx < 0 || static_cast<size_t>(idx) >= columns_.size()) continue;
    const size_t c = static_cast<size_t>(idx);
    if (lazy_->decoded[c]) continue;
    UBERRT_RETURN_IF_ERROR(DecodeColumn(*lazy_->blob, lazy_->columns[c], &columns_[c]));
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
