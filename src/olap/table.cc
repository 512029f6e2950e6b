#include "olap/table.h"

#include <algorithm>

namespace uberrt::olap {

bool EvalPredicate(const FilterPredicate& pred, const Value& v) {
  const Value& target = pred.value;
  bool less = v < target;
  bool greater = target < v;
  bool equal = !less && !greater;
  switch (pred.op) {
    case FilterPredicate::Op::kEq: return equal;
    case FilterPredicate::Op::kNe: return !equal;
    case FilterPredicate::Op::kLt: return less;
    case FilterPredicate::Op::kLe: return less || equal;
    case FilterPredicate::Op::kGt: return greater;
    case FilterPredicate::Op::kGe: return greater || equal;
  }
  return false;
}

RealtimePartition::RealtimePartition(const TableConfig& config, int32_t partition_id,
                                     LifecycleManager* lifecycle)
    : config_(config), partition_id_(partition_id), lifecycle_(lifecycle) {
  if (config_.upsert_enabled) {
    primary_key_index_ = config_.schema.FieldIndex(config_.primary_key_column);
  }
  if (!config_.time_column.empty()) {
    time_index_ = config_.schema.FieldIndex(config_.time_column);
  }
}

Status RealtimePartition::Ingest(Row row) {
  if (row.size() != config_.schema.NumFields()) {
    return Status::InvalidArgument("row width mismatch for table " + config_.name);
  }
  if (config_.upsert_enabled) {
    if (primary_key_index_ < 0) {
      return Status::FailedPrecondition("upsert table lacks primary key column");
    }
    std::string key = row[static_cast<size_t>(primary_key_index_)].ToString();
    auto it = upsert_locations_.find(key);
    if (it != upsert_locations_.end()) {
      // Invalidate the previous version of this key.
      if (it->second.segment_index < 0) {
        buffer_validity_[it->second.row_index] = false;
      } else {
        // Through the handle: the bit flip is synchronized against a
        // concurrent demotion snapshotting the same bits, and — because
        // the vector is shared with peer replicas — reaches every copy.
        sealed_[static_cast<size_t>(it->second.segment_index)]
            .handle->InvalidateRow(it->second.row_index);
      }
    }
    upsert_locations_[key] = {-1, static_cast<uint32_t>(buffer_.size())};
  }
  buffer_.push_back(std::move(row));
  buffer_validity_.push_back(true);
  return Status::Ok();
}

Result<std::shared_ptr<Segment>> RealtimePartition::SealIfNeeded(bool force) {
  if (buffer_.empty()) return std::shared_ptr<Segment>();
  if (!force && static_cast<int64_t>(buffer_.size()) < config_.segment_rows_threshold) {
    return std::shared_ptr<Segment>();
  }
  std::string segment_name = config_.name + "_p" + std::to_string(partition_id_) +
                             "_s" + std::to_string(next_segment_seq_++);
  SegmentIndexConfig index_config = config_.index_config;
  if (config_.upsert_enabled) {
    // Row order must stay stable so upsert locations remain valid.
    index_config.sorted_column.clear();
  }
  bool deferred = false;
  if (config_.deferred_index_build) {
    // Seal fast: dictionaries, packing and zone maps only. The expensive
    // inverted and star-tree builds move to the background compaction pass.
    deferred = !index_config.inverted_columns.empty() ||
               !index_config.star_tree_dimensions.empty();
    index_config.inverted_columns.clear();
    index_config.star_tree_dimensions.clear();
    index_config.star_tree_metrics.clear();
  }
  Result<std::shared_ptr<Segment>> built =
      Segment::Build(segment_name, config_.schema, buffer_, index_config);
  if (!built.ok()) return built.status();

  std::shared_ptr<std::vector<bool>> validity;
  if (config_.upsert_enabled) {
    validity = std::make_shared<std::vector<bool>>(buffer_validity_);
  }
  TimestampMs min_time = INT64_MIN, max_time = INT64_MAX;
  if (time_index_ >= 0) {
    min_time = INT64_MAX;
    max_time = INT64_MIN;
    for (const Row& row : buffer_) {
      TimestampMs t = static_cast<TimestampMs>(
          row[static_cast<size_t>(time_index_)].ToNumeric());
      min_time = std::min(min_time, t);
      max_time = std::max(max_time, t);
    }
  }
  SealedSegment sealed;
  sealed.handle = SegmentHandle::Create(
      built.value(), next_segment_seq_ - 1, min_time, max_time, validity,
      "segments/" + config_.name + "/" + segment_name, lifecycle_);
  sealed.handle->SetNeedsCompaction(deferred);
  sealed.validity = std::move(validity);
  int32_t segment_index = static_cast<int32_t>(sealed_.size());
  sealed_.push_back(std::move(sealed));
  sealed_names_.insert(segment_name);

  // Remap buffered upsert locations into the sealed segment.
  if (config_.upsert_enabled) {
    for (auto& [key, loc] : upsert_locations_) {
      if (loc.segment_index == -1) loc.segment_index = segment_index;
    }
  }
  buffer_.clear();
  buffer_validity_.clear();
  return built.value();
}

int64_t RealtimePartition::NumRows() const {
  int64_t rows = static_cast<int64_t>(buffer_.size());
  for (const SealedSegment& s : sealed_) rows += s.handle->num_rows();
  return rows;
}

int64_t RealtimePartition::MemoryBytes() const {
  int64_t bytes = 0;
  for (const Row& row : buffer_) {
    bytes += 16;
    for (const Value& v : row) {
      bytes += 16;
      if (v.type() == ValueType::kString) bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  for (const SealedSegment& s : sealed_) bytes += s.handle->ResidentBytes();
  return bytes;
}

Result<OlapResult> RealtimePartition::ExecuteOnBuffer(const OlapQuery& query,
                                                      OlapQueryStats* stats) const {
  OlapResult result;
  std::vector<int> filter_indices;
  for (const FilterPredicate& pred : query.filters) {
    int idx = config_.schema.FieldIndex(pred.column);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + pred.column);
    filter_indices.push_back(idx);
  }
  auto matches = [&](const Row& row) {
    for (size_t i = 0; i < query.filters.size(); ++i) {
      if (!EvalPredicate(query.filters[i],
                         row[static_cast<size_t>(filter_indices[i])])) {
        return false;
      }
    }
    return true;
  };

  if (!query.aggregations.empty()) {
    std::vector<int> group_indices;
    for (const std::string& g : query.group_by) {
      int idx = config_.schema.FieldIndex(g);
      if (idx < 0) return Status::InvalidArgument("unknown group column: " + g);
      group_indices.push_back(idx);
    }
    std::vector<int> agg_indices;
    for (const OlapAggregation& agg : query.aggregations) {
      agg_indices.push_back(agg.column.empty() ? -1
                                               : config_.schema.FieldIndex(agg.column));
    }
    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    for (size_t r = 0; r < buffer_.size(); ++r) {
      if (!buffer_validity_[r]) continue;
      ++stats->rows_scanned;
      const Row& row = buffer_[r];
      if (!matches(row)) continue;
      // Typed value encoding, as MergeAndFinalize keys groups: ToString
      // keeps 6 significant digits of a double, merging distinct values.
      std::string key;
      for (int idx : group_indices) AppendValue(&key, row[static_cast<size_t>(idx)]);
      GroupEntry& entry = groups[key];
      if (entry.accs.empty()) {
        entry.accs.resize(query.aggregations.size());
        for (int idx : group_indices) {
          entry.key_values.push_back(row[static_cast<size_t>(idx)]);
        }
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        double v = agg_indices[a] >= 0
                       ? row[static_cast<size_t>(agg_indices[a])].ToNumeric()
                       : 0.0;
        entry.accs[a].Add(v);
      }
    }
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (const AggAccumulator& acc : entry.accs) AppendAccumulator(&row, acc);
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  std::vector<int> select_indices;
  for (const std::string& s : query.select_columns) {
    int idx = config_.schema.FieldIndex(s);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + s);
    select_indices.push_back(idx);
  }
  for (size_t r = 0; r < buffer_.size(); ++r) {
    if (!buffer_validity_[r]) continue;
    ++stats->rows_scanned;
    const Row& row = buffer_[r];
    if (!matches(row)) continue;
    Row out;
    for (int idx : select_indices) out.push_back(row[static_cast<size_t>(idx)]);
    result.rows.push_back(std::move(out));
  }
  return result;
}

void RealtimePartition::PlanMorsels(const OlapQuery& query,
                                    std::vector<int32_t>* morsels,
                                    OlapQueryStats* stats) const {
  // Derive a time window from predicates on the time column for segment
  // pruning ("data is chunked by time boundary", Section 4.3).
  TimestampMs query_min = INT64_MIN, query_max = INT64_MAX;
  if (time_index_ >= 0) {
    for (const FilterPredicate& pred : query.filters) {
      if (pred.column != config_.time_column) continue;
      TimestampMs v = static_cast<TimestampMs>(pred.value.ToNumeric());
      switch (pred.op) {
        case FilterPredicate::Op::kGe:
        case FilterPredicate::Op::kGt:
          query_min = std::max(query_min, v);
          break;
        case FilterPredicate::Op::kLe:
        case FilterPredicate::Op::kLt:
          query_max = std::min(query_max, v);
          break;
        case FilterPredicate::Op::kEq:
          query_min = std::max(query_min, v);
          query_max = std::min(query_max, v);
          break;
        case FilterPredicate::Op::kNe:
          break;
      }
    }
  }

  for (size_t i = 0; i < sealed_.size(); ++i) {
    const SegmentHandle& handle = *sealed_[i].handle;
    if (handle.max_time() < query_min || handle.min_time() > query_max) {
      ++stats->segments_pruned;
      continue;
    }
    bool can_match = true;
    for (const FilterPredicate& pred : query.filters) {
      // Never materializes: warm/cold handles answer from resident prune
      // info.
      if (!handle.CanMatch(pred)) {
        can_match = false;
        break;
      }
    }
    if (!can_match) {
      ++stats->segments_pruned;
      continue;
    }
    morsels->push_back(static_cast<int32_t>(i));
  }
  // The consuming buffer is always a morsel, even when empty: column
  // validation (unknown column -> InvalidArgument) must not depend on how
  // many segments were pruned.
  morsels->push_back(-1);
}

Result<OlapResult> RealtimePartition::ExecuteMorsel(const OlapQuery& query,
                                                    int32_t morsel,
                                                    OlapQueryStats* stats) const {
  if (morsel < 0) return ExecuteOnBuffer(query, stats);
  const SealedSegment& sealed = sealed_[static_cast<size_t>(morsel)];
  SegmentTier observed = SegmentTier::kHot;
  Result<std::shared_ptr<Segment>> segment = sealed.handle->Acquire(&observed);
  if (!segment.ok()) return segment.status();
  switch (observed) {
    case SegmentTier::kHot: ++stats->segments_hot; break;
    case SegmentTier::kWarm: ++stats->segments_warm; break;
    case SegmentTier::kCold: ++stats->segments_cold; break;
  }
  return segment.value()->Execute(query, sealed.validity.get(), stats);
}

Result<OlapResult> RealtimePartition::Execute(const OlapQuery& query,
                                              OlapQueryStats* stats) const {
  std::vector<int32_t> morsels;
  PlanMorsels(query, &morsels, stats);
  OlapResult merged;
  for (int32_t morsel : morsels) {
    Result<OlapResult> partial = ExecuteMorsel(query, morsel, stats);
    if (!partial.ok()) return partial.status();
    for (Row& row : partial.value().rows) merged.rows.push_back(std::move(row));
  }
  return merged;
}

void RealtimePartition::DropSealedSegments() {
  sealed_.clear();
  sealed_names_.clear();
  // Stale sealed locations must go with the segments: a later Ingest of the
  // same key would otherwise write validity through an out-of-range index.
  // Buffer locations stay live (the consuming buffer survives a kill).
  for (auto it = upsert_locations_.begin(); it != upsert_locations_.end();) {
    if (it->second.segment_index >= 0) {
      it = upsert_locations_.erase(it);
    } else {
      ++it;
    }
  }
}

void RealtimePartition::RestoreSegment(SealedSegment segment) {
  sealed_names_.insert(segment.handle->name());
  sealed_.push_back(std::move(segment));
}

bool RealtimePartition::HasSegment(const std::string& name) const {
  return sealed_names_.count(name) > 0;
}

Status RealtimePartition::FinishRestore() {
  std::stable_sort(sealed_.begin(), sealed_.end(),
                   [](const SealedSegment& a, const SealedSegment& b) {
                     return a.handle->seq() < b.handle->seq();
                   });
  if (config_.upsert_enabled) return RebuildUpsertState();
  return Status::Ok();
}

Status RealtimePartition::RebuildUpsertState() {
  if (primary_key_index_ < 0) return Status::Ok();
  upsert_locations_.clear();
  // Fresh all-valid vectors, built locally and published only at the end:
  // archived snapshots are stale the moment a later row superseded one of
  // their keys, so validity is derived from the replay below, never trusted
  // from a restore source.
  std::vector<std::shared_ptr<Segment>> segments(sealed_.size());
  for (size_t si = 0; si < sealed_.size(); ++si) {
    Result<std::shared_ptr<Segment>> segment = sealed_[si].handle->AcquireFull();
    if (!segment.ok()) return segment.status();
    segments[si] = segment.value();
    sealed_[si].validity =
        std::make_shared<std::vector<bool>>(segments[si]->NumRows(), true);
  }
  buffer_validity_.assign(buffer_.size(), true);
  auto claim = [&](const std::string& key, int32_t segment_index,
                   uint32_t row_index) {
    auto it = upsert_locations_.find(key);
    if (it != upsert_locations_.end()) {
      if (it->second.segment_index < 0) {
        buffer_validity_[it->second.row_index] = false;
      } else {
        (*sealed_[static_cast<size_t>(it->second.segment_index)].validity)
            [it->second.row_index] = false;
      }
    }
    upsert_locations_[key] = {segment_index, row_index};
  };
  // Seal order then buffer = ingest order: the last claim per key wins.
  for (size_t si = 0; si < sealed_.size(); ++si) {
    const Segment& segment = *segments[si];
    for (int64_t r = 0; r < segment.NumRows(); ++r) {
      claim(segment.GetValue(static_cast<size_t>(r), primary_key_index_).ToString(),
            static_cast<int32_t>(si), static_cast<uint32_t>(r));
    }
  }
  for (size_t r = 0; r < buffer_.size(); ++r) {
    claim(buffer_[r][static_cast<size_t>(primary_key_index_)].ToString(), -1,
          static_cast<uint32_t>(r));
  }
  // Publish the rebuilt vectors through the handles so later demotions
  // archive the live bits (and peer replicas see them).
  for (SealedSegment& s : sealed_) s.handle->SetValidity(s.validity);
  return Status::Ok();
}

void RealtimePartition::ClaimPendingCompactions(
    std::vector<std::shared_ptr<SegmentHandle>>* out) const {
  for (const SealedSegment& s : sealed_) {
    if (s.handle->ClaimCompaction()) out->push_back(s.handle);
  }
}

SegmentIndexConfig RealtimePartition::CompactionIndexConfig() const {
  SegmentIndexConfig index_config = config_.index_config;
  if (config_.upsert_enabled) index_config.sorted_column.clear();
  return index_config;
}

}  // namespace uberrt::olap
