#include "olap/table.h"

#include <algorithm>

namespace uberrt::olap {

RealtimePartition::RealtimePartition(const TableConfig& config, int32_t partition_id,
                                     LifecycleManager* lifecycle)
    : config_(config),
      partition_id_(partition_id),
      lifecycle_(lifecycle),
      consuming_(Segment::Consuming(config.schema)) {
  if (config_.upsert_enabled) {
    primary_key_index_ = config_.schema.FieldIndex(config_.primary_key_column);
  }
  if (!config_.time_column.empty()) {
    time_index_ = config_.schema.FieldIndex(config_.time_column);
  }
}

Status RealtimePartition::Ingest(Row row) {
  if (config_.upsert_enabled && primary_key_index_ < 0) {
    return Status::FailedPrecondition("upsert table lacks primary key column");
  }
  UBERRT_RETURN_IF_ERROR(consuming_->Append(std::move(row)));
  if (!config_.upsert_enabled) return Status::Ok();
  const uint32_t row_index = static_cast<uint32_t>(consuming_->NumRows() - 1);
  consuming_validity_.push_back(true);
  std::string key = consuming_->GetValue(row_index, primary_key_index_).ToString();
  auto it = upsert_locations_.find(key);
  if (it != upsert_locations_.end()) {
    // Invalidate the previous version of this key.
    if (it->second.segment_index < 0) {
      consuming_validity_[it->second.row_index] = false;
    } else {
      // Through the handle: the bit flip is synchronized against a
      // concurrent demotion snapshotting the same bits, and — because
      // the vector is shared with peer replicas — reaches every copy.
      sealed_[static_cast<size_t>(it->second.segment_index)]
          .handle->InvalidateRow(it->second.row_index);
    }
  }
  upsert_locations_[std::move(key)] = {-1, row_index};
  return Status::Ok();
}

Result<std::shared_ptr<Segment>> RealtimePartition::SealIfNeeded(bool force) {
  const int64_t rows = consuming_->NumRows();
  if (rows == 0) return std::shared_ptr<Segment>();
  if (!force && rows < config_.segment_rows_threshold) {
    return std::shared_ptr<Segment>();
  }
  std::string segment_name = config_.name + "_p" + std::to_string(partition_id_) +
                             "_s" + std::to_string(next_segment_seq_++);
  SegmentIndexConfig index_config = config_.index_config;
  if (config_.upsert_enabled) {
    // Row order must stay stable so upsert locations remain valid.
    index_config.sorted_column.clear();
  }
  UBERRT_RETURN_IF_ERROR(consuming_->Seal(segment_name, index_config));
  std::shared_ptr<Segment> built = std::move(consuming_);
  consuming_ = Segment::Consuming(config_.schema);

  std::shared_ptr<std::vector<bool>> validity;
  if (config_.upsert_enabled) {
    validity = std::make_shared<std::vector<bool>>(std::move(consuming_validity_));
    consuming_validity_.clear();
  }
  TimestampMs min_time = INT64_MIN, max_time = INT64_MAX;
  if (time_index_ >= 0) {
    auto [lo, hi] = built->NumericBounds(time_index_);
    min_time = static_cast<TimestampMs>(lo);
    max_time = static_cast<TimestampMs>(hi);
  }
  SealedSegment sealed;
  sealed.handle = SegmentHandle::Create(
      built, next_segment_seq_ - 1, min_time, max_time, validity,
      "segments/" + config_.name + "/" + segment_name, lifecycle_);
  sealed.validity = std::move(validity);
  int32_t segment_index = static_cast<int32_t>(sealed_.size());
  sealed_.push_back(std::move(sealed));
  sealed_names_.insert(segment_name);

  // Remap consuming upsert locations into the sealed segment.
  if (config_.upsert_enabled) {
    for (auto& [key, loc] : upsert_locations_) {
      if (loc.segment_index == -1) loc.segment_index = segment_index;
    }
  }
  return built;
}

int64_t RealtimePartition::NumRows() const {
  int64_t rows = consuming_->NumRows();
  for (const SealedSegment& s : sealed_) rows += s.handle->num_rows();
  return rows;
}

int64_t RealtimePartition::MemoryBytes() const {
  int64_t bytes = consuming_->MemoryBytes();
  for (const SealedSegment& s : sealed_) bytes += s.handle->ResidentBytes();
  return bytes;
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
  // The consuming segment is always a morsel, even when empty: column
  // validation (unknown column -> InvalidArgument) must not depend on how
  // many segments were pruned.
  morsels->push_back(-1);
}

Result<OlapResult> RealtimePartition::ExecuteMorsel(const OlapQuery& query,
                                                    int32_t morsel,
                                                    OlapQueryStats* stats) const {
  if (morsel < 0) {
    return consuming_->Execute(
        query, config_.upsert_enabled ? &consuming_validity_ : nullptr, stats);
  }
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
  // Consuming locations stay live (the consuming segment survives a kill).
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
  consuming_validity_.assign(static_cast<size_t>(consuming_->NumRows()), true);
  auto claim = [&](const std::string& key, int32_t segment_index,
                   uint32_t row_index) {
    auto it = upsert_locations_.find(key);
    if (it != upsert_locations_.end()) {
      if (it->second.segment_index < 0) {
        consuming_validity_[it->second.row_index] = false;
      } else {
        (*sealed_[static_cast<size_t>(it->second.segment_index)].validity)
            [it->second.row_index] = false;
      }
    }
    upsert_locations_[key] = {segment_index, row_index};
  };
  // Seal order then the consuming segment = ingest order: the last claim
  // per key wins.
  auto claim_all = [&](const Segment& segment, int32_t segment_index) {
    for (int64_t r = 0; r < segment.NumRows(); ++r) {
      claim(segment.GetValue(static_cast<size_t>(r), primary_key_index_).ToString(),
            segment_index, static_cast<uint32_t>(r));
    }
  };
  for (size_t si = 0; si < sealed_.size(); ++si) {
    claim_all(*segments[si], static_cast<int32_t>(si));
  }
  claim_all(*consuming_, -1);
  // Publish the rebuilt vectors through the handles so later demotions
  // archive the live bits (and peer replicas see them).
  for (SealedSegment& s : sealed_) s.handle->SetValidity(s.validity);
  return Status::Ok();
}

}  // namespace uberrt::olap
