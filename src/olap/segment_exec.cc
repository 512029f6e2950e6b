/// Vectorized execution engine for sealed and consuming segments
/// (Pinot-style, paper Section 4.3): selection bitmaps + batched
/// forward-index decode + dict-id-native aggregation kernels. The
/// row-at-a-time path lives in segment.cc as Segment::ExecuteScalar and
/// stays the parity oracle.
#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <ranges>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "olap/bitmap.h"
#include "olap/segment.h"

namespace uberrt::olap {

namespace {

/// Rows decoded per batch. Large enough to amortize per-batch setup, small
/// enough that the id/row buffers stay cache-resident.
constexpr size_t kBatchRows = 1024;

/// Open-addressing hash map from packed group key to dense group index
/// (linear probing, power-of-two capacity, <75% load). Groups get dense
/// indexes in first-seen order; accumulators live in a flat side array.
class GroupIndex {
 public:
  GroupIndex() { Rehash(64); }

  /// Returns the dense index of `key`, inserting it if new.
  size_t FindOrInsert(uint64_t key, bool* inserted) {
    if ((keys_.size() + 1) * 4 > capacity_ * 3) Rehash(capacity_ * 2);
    size_t mask = capacity_ - 1;
    size_t slot = Hash(key) & mask;
    while (true) {
      uint32_t g = slots_[slot];
      if (g == kEmpty) {
        slots_[slot] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        *inserted = true;
        return keys_.size() - 1;
      }
      if (keys_[g] == key) {
        *inserted = false;
        return g;
      }
      slot = (slot + 1) & mask;
    }
  }

  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  static size_t Hash(uint64_t key) {
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Rehash(size_t new_capacity) {
    capacity_ = new_capacity;
    slots_.assign(new_capacity, kEmpty);
    size_t mask = new_capacity - 1;
    for (size_t g = 0; g < keys_.size(); ++g) {
      size_t slot = Hash(keys_[g]) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<uint32_t>(g);
    }
  }

  size_t capacity_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> keys_;
};

/// Group-by accumulators over dict-id tuples: num_aggs accumulators per
/// group in one flat array, groups numbered densely in first-seen order.
/// When the columns' id widths fit 64 bits a tuple packs into one key
/// (column 0 in the most significant bits) found through GroupIndex; wider
/// tuples fall back to big-endian id strings in an ordered map. Either way
/// AppendRows emits groups in ascending tuple order, which is the scalar
/// oracle's emission order.
class GroupTable {
 public:
  GroupTable(std::vector<const std::vector<Value>*> dictionaries, size_t num_aggs)
      : dictionaries_(std::move(dictionaries)), num_aggs_(num_aggs) {
    size_t total_bits = 0;
    for (const std::vector<Value>* dictionary : dictionaries_) {
      size_t size = dictionary->size();
      widths_.push_back(size > 1 ? static_cast<uint32_t>(std::bit_width(size - 1)) : 0u);
      total_bits += widths_.back();
    }
    packed_ = total_bits <= 64;
  }

  /// The num_aggs accumulators of the group whose column g has dict id
  /// `id_at(g)`; a new group starts zeroed.
  template <typename IdAt>
  AggAccumulator* Find(IdAt id_at) {
    bool inserted = false;
    size_t gi = 0;
    if (packed_) {
      uint64_t key = 0;
      for (size_t g = 0; g < widths_.size(); ++g) key = (key << widths_[g]) | id_at(g);
      gi = index_.FindOrInsert(key, &inserted);
    } else {
      wide_key_.clear();
      for (size_t g = 0; g < widths_.size(); ++g) bytes::AppendU32BE(&wide_key_, id_at(g));
      auto [it, fresh] = wide_.try_emplace(wide_key_, wide_.size());
      gi = it->second;
      inserted = fresh;
    }
    if (inserted) accs_.resize(accs_.size() + num_aggs_);
    return &accs_[gi * num_aggs_];
  }

  /// Late-materializes each group's values once: [group values...,
  /// accumulators...] rows in ascending tuple order.
  void AppendRows(std::vector<Row>* out) const {
    const size_t num_groups = widths_.size();
    std::vector<uint32_t> ids(num_groups);
    auto emit = [&](size_t gi) {
      Row row;
      row.reserve(num_groups + num_aggs_ * kAccumulatorFields);
      for (size_t g = 0; g < num_groups; ++g) row.push_back((*dictionaries_[g])[ids[g]]);
      for (size_t a = 0; a < num_aggs_; ++a) {
        AppendAccumulator(&row, accs_[gi * num_aggs_ + a]);
      }
      out->push_back(std::move(row));
    };
    if (!packed_) {
      for (const auto& [key, gi] : wide_) {
        for (size_t g = 0; g < num_groups; ++g) ids[g] = bytes::ReadU32BE(key.data() + g * 4);
        emit(gi);
      }
      return;
    }
    const std::vector<uint64_t>& keys = index_.keys();
    std::vector<uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    for (uint32_t gi : order) {
      uint64_t key = keys[gi];
      for (size_t g = num_groups; g-- > 0;) {
        ids[g] = static_cast<uint32_t>(key & ((1ULL << widths_[g]) - 1));
        key >>= widths_[g];
      }
      emit(gi);
    }
  }

 private:
  std::vector<const std::vector<Value>*> dictionaries_;
  size_t num_aggs_;
  std::vector<uint32_t> widths_;
  bool packed_ = true;
  GroupIndex index_;
  std::map<std::string, size_t> wide_;
  std::string wide_key_;
  std::vector<AggAccumulator> accs_;
};

}  // namespace

bool Segment::TryStarTree(const OlapQuery& query, const std::vector<bool>* validity,
                          OlapResult* result) const {
  if (star_dims_.empty() || validity != nullptr) return false;
  if (query.aggregations.empty()) return false;
  // Which star dims does the query touch?
  auto dim_position = [&](const std::string& name) {
    int idx = ColumnIndex(name);
    for (size_t d = 0; d < star_dims_.size(); ++d) {
      if (star_dims_[d] == idx) return static_cast<int>(d);
    }
    return -1;
  };
  size_t max_prefix = 0;
  std::vector<std::pair<size_t, const FilterPredicate*>> eq_filters;  // dim position
  for (const FilterPredicate& pred : query.filters) {
    if (pred.op != FilterPredicate::Op::kEq) return false;
    int pos = dim_position(pred.column);
    if (pos < 0) return false;
    eq_filters.emplace_back(static_cast<size_t>(pos), &pred);
    max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
  }
  std::vector<size_t> group_positions;
  std::vector<const std::vector<Value>*> group_dictionaries;
  for (const std::string& g : query.group_by) {
    int pos = dim_position(g);
    if (pos < 0) return false;
    group_positions.push_back(static_cast<size_t>(pos));
    group_dictionaries.push_back(
        &columns_[static_cast<size_t>(star_dims_[static_cast<size_t>(pos)])].dictionary);
    max_prefix = std::max(max_prefix, static_cast<size_t>(pos) + 1);
  }
  // Aggregations must be answerable from the cube metrics: accumulator slot
  // 0 is COUNT, slot 1 + m is metric m.
  std::vector<size_t> agg_slot(query.aggregations.size(), 0);
  for (size_t a = 0; a < query.aggregations.size(); ++a) {
    const AggregateSpec& agg = query.aggregations[a];
    if (agg.kind == AggregateSpec::Kind::kCount) continue;
    int idx = ColumnIndex(agg.field);
    auto it = std::find(star_metrics_.begin(), star_metrics_.end(), idx);
    if (it == star_metrics_.end()) return false;
    agg_slot[a] = 1 + static_cast<size_t>(it - star_metrics_.begin());
  }

  // Resolve EQ filter values to dict ids. A value missing from the
  // dictionary, or two different values on one dimension, match no rows.
  result->rows.clear();
  constexpr uint32_t kUnpinned = 0xFFFFFFFFu;
  std::vector<uint32_t> pinned(max_prefix, kUnpinned);
  for (const auto& [pos, pred] : eq_filters) {
    IdSet ids = PredicateIds(columns_[static_cast<size_t>(star_dims_[pos])], *pred);
    if (ids.None()) return true;
    if (pinned[pos] != kUnpinned && pinned[pos] != ids.lo) return true;
    pinned[pos] = ids.lo;
  }

  // The level's cells are sorted by tuple, so the cells matching the pinned
  // leading dimensions form one contiguous range: binary-search it. Pins on
  // later dimensions are checked per cell within that range.
  const StarTreeLevel& level = star_tree_[max_prefix];
  const size_t k = max_prefix;
  const size_t stride = 1 + star_metrics_.size();
  const size_t seek = static_cast<size_t>(
      std::find(pinned.begin(), pinned.end(), kUnpinned) - pinned.begin());
  const uint32_t* key = pinned.data();
  auto cell_ids = [&](size_t c) { return level.ids.data() + c * k; };
  auto cells = std::views::iota(size_t{0}, level.accs.size() / stride);
  size_t begin = *std::ranges::partition_point(cells, [&](size_t c) {
    return std::lexicographical_compare(cell_ids(c), cell_ids(c) + seek, key, key + seek);
  });
  size_t end = *std::ranges::partition_point(cells, [&](size_t c) {
    return !std::lexicographical_compare(key, key + seek, cell_ids(c), cell_ids(c) + seek);
  });

  GroupTable groups(std::move(group_dictionaries), query.aggregations.size());
  for (size_t c = begin; c < end; ++c) {
    const uint32_t* ids = cell_ids(c);
    bool match = true;
    for (size_t d = seek; d < k && match; ++d) {
      match = pinned[d] == kUnpinned || ids[d] == pinned[d];
    }
    if (!match) continue;
    AggAccumulator* accs = groups.Find([&](size_t g) { return ids[group_positions[g]]; });
    const AggAccumulator* cell = &level.accs[c * stride];
    for (size_t a = 0; a < query.aggregations.size(); ++a) accs[a].Merge(cell[agg_slot[a]]);
  }
  groups.AppendRows(&result->rows);
  return true;
}

Result<SelectionBitmap> Segment::BuildSelection(
    const std::vector<FilterPredicate>& preds, const std::vector<bool>* validity,
    bool* filter_scanned, OlapQueryStats* stats) const {
  *filter_scanned = false;
  SelectionBitmap sel(num_rows_, true);

  struct ScanPred {
    const Column* column = nullptr;
    IdSet ids;
    bool negate = false;
  };
  std::vector<ScanPred> scan_preds;

  auto posting_bitmap = [&](const Column& column, uint32_t lo, uint32_t hi) {
    SelectionBitmap bits(num_rows_, false);
    for (uint32_t id = lo; id < hi; ++id) {
      for (uint32_t r : column.inverted[id]) bits.Set(r);
    }
    return bits;
  };

  for (const FilterPredicate& pred : preds) {
    int idx = ColumnIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.column);
    const Column& column = columns_[static_cast<size_t>(idx)];
    // Ne resolves to the excluded Eq ids; absent from the dictionary means
    // Ne matches every row.
    const bool negate = pred.op == FilterPredicate::Op::kNe;
    IdSet ids = PredicateIds(column, pred);
    if (ids.None()) {
      if (negate) continue;
      // No dictionary match: nothing can qualify.
      sel.ClearAll();
      return sel;
    }
    // Index paths exist on sealed segments only, whose id sets are ranges.
    if (idx == sorted_column_) {
      auto [row_lo, row_hi] = SortedRowRange(column, ids);
      stats->bitmap_words += static_cast<int64_t>(
          negate ? sel.ClearRange(row_lo, row_hi) : sel.IntersectRange(row_lo, row_hi));
    } else if (column.has_inverted) {
      SelectionBitmap postings = posting_bitmap(column, ids.lo, ids.hi);
      stats->bitmap_words +=
          static_cast<int64_t>(negate ? sel.AndNot(postings) : sel.And(postings));
    } else {
      scan_preds.push_back({&column, std::move(ids), negate});
    }
  }

  // Residual predicates: one batched scan pass over the surviving candidates.
  // rows_scanned counts every candidate the pass examines (same accounting as
  // the scalar oracle's FilterRows), and the caller's aggregate/select phase
  // then adds nothing.
  if (!scan_preds.empty() && num_rows_ > 0) {
    *filter_scanned = true;
    std::vector<uint32_t> rows(std::min(kBatchRows, num_rows_));
    std::vector<uint32_t> dense(rows.size());
    for (size_t base = 0; base < num_rows_; base += kBatchRows) {
      size_t hi = std::min(base + kBatchRows, num_rows_);
      size_t live = sel.Extract(base, hi, rows.data());
      if (live == 0) continue;
      stats->rows_scanned += static_cast<int64_t>(live);
      ++stats->exec_batches;
      for (const ScanPred& sp : scan_preds) {
        // Dense unpack when the batch is mostly selected; sparse per-row
        // gather otherwise.
        const bool use_dense = live * 4 >= hi - base;
        if (use_dense) sp.column->UnpackRange(base, hi - base, dense.data());
        size_t out = 0;
        for (size_t i = 0; i < live; ++i) {
          uint32_t r = rows[i];
          uint32_t id = use_dense ? dense[r - base] : sp.column->IdAt(r);
          if (sp.ids.Contains(id) == sp.negate) continue;
          rows[out++] = r;
        }
        live = out;
        if (live == 0) break;
      }
      stats->bitmap_words += static_cast<int64_t>(sel.ClearRange(base, hi));
      for (size_t i = 0; i < live; ++i) sel.Set(rows[i]);
    }
  }

  // Upsert validity folds in last; the scan accounting above deliberately
  // counts pre-validity candidates to match the scalar oracle.
  if (validity != nullptr) {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!(*validity)[r]) sel.Reset(r);
    }
    stats->bitmap_words += static_cast<int64_t>(sel.NumWords());
  }
  return sel;
}

Result<OlapResult> Segment::ExecuteVectorized(const OlapQuery& query,
                                              const std::vector<bool>* validity,
                                              OlapQueryStats* stats) const {
  OlapResult result;

  // Scratch sized to the segment: a small sealed segment (the realtime
  // tables seal every few hundred rows) never zero-fills a full batch.
  const size_t batch_rows = std::min(kBatchRows, num_rows_);
  std::vector<uint32_t> rows(batch_rows);
  std::vector<uint32_t> dense(batch_rows);
  // Batch gather of one column's dict ids for the extracted rows: dense
  // unpack + index when the batch is mostly selected, per-row gets otherwise.
  auto gather = [&](const Column& column, size_t base, size_t span,
                    size_t n, uint32_t* out) {
    if (n * 4 >= span) {
      column.UnpackRange(base, span, dense.data());
      for (size_t i = 0; i < n; ++i) out[i] = dense[rows[i] - base];
    } else {
      for (size_t i = 0; i < n; ++i) out[i] = column.IdAt(rows[i]);
    }
  };

  if (!query.aggregations.empty()) {
    bool filter_scanned = false;
    Result<SelectionBitmap> sel_result =
        BuildSelection(query.filters, validity, &filter_scanned, stats);
    if (!sel_result.ok()) return sel_result.status();
    SelectionBitmap sel = std::move(sel_result.value());

    std::vector<int> group_indices;
    for (const std::string& g : query.group_by) {
      int idx = ColumnIndex(g);
      if (idx < 0) return Status::InvalidArgument("unknown group column: " + g);
      group_indices.push_back(idx);
    }
    std::vector<int> agg_indices;
    for (const AggregateSpec& agg : query.aggregations) {
      int idx = agg.field.empty() ? -1 : ColumnIndex(agg.field);
      if (!agg.field.empty() && idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " + agg.field);
      }
      agg_indices.push_back(idx);
    }
    const size_t num_aggs = query.aggregations.size();
    const size_t num_groups = group_indices.size();

    std::vector<std::vector<uint32_t>> agg_ids(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (agg_indices[a] >= 0) agg_ids[a].resize(batch_rows);
    }
    // dict id -> numeric, so the kernels never build a Value on the hot path.
    auto agg_value = [&](size_t a, size_t i) {
      int idx = agg_indices[a];
      if (idx < 0) return 0.0;
      return columns_[static_cast<size_t>(idx)].dict_numeric[agg_ids[a][i]];
    };
    auto gather_agg_ids = [&](size_t base, size_t span, size_t n) {
      for (size_t a = 0; a < num_aggs; ++a) {
        if (agg_indices[a] < 0) continue;
        gather(columns_[static_cast<size_t>(agg_indices[a])], base, span, n,
               agg_ids[a].data());
      }
    };

    if (num_groups == 0) {
      // Global aggregate: one accumulator per aggregation, no key building.
      std::vector<AggAccumulator> accs(num_aggs);
      size_t total = 0;
      for (size_t base = 0; base < num_rows_; base += kBatchRows) {
        size_t hi = std::min(base + kBatchRows, num_rows_);
        size_t n = sel.Extract(base, hi, rows.data());
        if (n == 0) continue;
        total += n;
        if (!filter_scanned) stats->rows_scanned += static_cast<int64_t>(n);
        ++stats->exec_batches;
        gather_agg_ids(base, hi - base, n);
        for (size_t a = 0; a < num_aggs; ++a) {
          AggAccumulator& acc = accs[a];
          if (agg_indices[a] < 0) {
            // COUNT: merge the batch popcount, no column decode at all.
            acc.Merge({static_cast<int64_t>(n), 0.0, 0.0, 0.0});
            continue;
          }
          const double* lut =
              columns_[static_cast<size_t>(agg_indices[a])].dict_numeric.data();
          const uint32_t* ids = agg_ids[a].data();
          for (size_t i = 0; i < n; ++i) acc.Add(lut[ids[i]]);
        }
      }
      if (total > 0) {
        Row row;
        for (const AggAccumulator& acc : accs) AppendAccumulator(&row, acc);
        result.rows.push_back(std::move(row));
      }
      return result;
    }

    std::vector<const std::vector<Value>*> group_dictionaries;
    for (int idx : group_indices) {
      group_dictionaries.push_back(&columns_[static_cast<size_t>(idx)].dictionary);
    }
    GroupTable groups(std::move(group_dictionaries), num_aggs);
    std::vector<std::vector<uint32_t>> group_ids(num_groups,
                                                 std::vector<uint32_t>(batch_rows));
    for (size_t base = 0; base < num_rows_; base += kBatchRows) {
      size_t hi = std::min(base + kBatchRows, num_rows_);
      size_t n = sel.Extract(base, hi, rows.data());
      if (n == 0) continue;
      if (!filter_scanned) stats->rows_scanned += static_cast<int64_t>(n);
      ++stats->exec_batches;
      for (size_t g = 0; g < num_groups; ++g) {
        gather(columns_[static_cast<size_t>(group_indices[g])], base, hi - base,
               n, group_ids[g].data());
      }
      gather_agg_ids(base, hi - base, n);
      for (size_t i = 0; i < n; ++i) {
        AggAccumulator* acc = groups.Find([&](size_t g) { return group_ids[g][i]; });
        for (size_t a = 0; a < num_aggs; ++a) acc[a].Add(agg_value(a, i));
      }
    }
    groups.AppendRows(&result.rows);
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
  bool filter_scanned = false;
  Result<SelectionBitmap> sel_result =
      BuildSelection(query.filters, validity, &filter_scanned, stats);
  if (!sel_result.ok()) return sel_result.status();
  SelectionBitmap sel = std::move(sel_result.value());

  // Per-segment short-circuit only valid without ORDER BY.
  const bool can_short_circuit = query.limit >= 0 && query.order_by.empty();
  std::vector<std::vector<uint32_t>> select_ids(
      select_indices.size(), std::vector<uint32_t>(batch_rows));
  for (size_t base = 0; base < num_rows_; base += kBatchRows) {
    size_t hi = std::min(base + kBatchRows, num_rows_);
    size_t n = sel.Extract(base, hi, rows.data());
    if (n == 0) continue;
    ++stats->exec_batches;
    for (size_t s = 0; s < select_indices.size(); ++s) {
      gather(columns_[static_cast<size_t>(select_indices[s])], base, hi - base,
             n, select_ids[s].data());
    }
    for (size_t i = 0; i < n; ++i) {
      if (!filter_scanned) ++stats->rows_scanned;
      Row row;
      row.reserve(select_indices.size());
      for (size_t s = 0; s < select_indices.size(); ++s) {
        const Column& column = columns_[static_cast<size_t>(select_indices[s])];
        row.push_back(column.dictionary[select_ids[s][i]]);
      }
      result.rows.push_back(std::move(row));
      if (can_short_circuit &&
          static_cast<int64_t>(result.rows.size()) >= query.limit) {
        return result;
      }
    }
  }
  return result;
}

}  // namespace uberrt::olap
