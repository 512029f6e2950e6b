#ifndef UBERRT_COMPUTE_WINDOW_OPERATOR_H_
#define UBERRT_COMPUTE_WINDOW_OPERATOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compute/keyed_state.h"
#include "compute/operator.h"

namespace uberrt::compute {

/// Keyed event-time window aggregation: tumbling, sliding and session
/// windows with count/sum/min/max/avg aggregates, allowed lateness and
/// late-record dropping. Output rows are
/// [key fields..., window_start, aggregate columns...] emitted when the
/// watermark passes window end + allowed lateness.
class WindowAggregateOperator : public OperatorInstance {
 public:
  WindowAggregateOperator(const TransformSpec& spec, const RowSchema& input);

  void ProcessRecord(const Element& element, Emitter* out) override;
  void OnWatermark(TimestampMs watermark, Emitter* out) override;
  std::string SnapshotState() const override;
  Status RestoreState(const std::string& blob) override;
  int64_t StateBytes() const override;
  int64_t late_dropped() const override { return late_dropped_; }

  /// Number of live (unfired) windows, for tests.
  int64_t LiveWindows() const { return static_cast<int64_t>(windows_.size()); }

 private:
  struct WindowState {
    Row key_values;
    TimestampMs end = 0;  ///< exclusive
    std::vector<AggAccumulator> accumulators;
  };

  /// Window start times the event timestamp falls into (non-session).
  std::vector<TimestampMs> AssignWindows(TimestampMs t) const;
  /// `key`/`key_hash` come from the reused scratch buffer; `row` feeds the
  /// accumulators. Lazily materializes key_values from `source_row` only on
  /// first touch of a window.
  void AddToWindow(uint64_t key_hash, std::string_view key, const Row& source_row,
                   TimestampMs start, TimestampMs end);
  void AddToSession(uint64_t key_hash, std::string_view key, const Row& source_row,
                    TimestampMs t);
  /// Adds `row`'s aggregate inputs to the window's accumulators.
  void Accumulate(const Row& row, WindowState* ws) const;
  void Fire(TimestampMs start, const WindowState& ws, Emitter* out);
  Row KeyValues(const Row& row) const;
  int64_t WindowStateBytes(const WindowState& ws) const;

  TransformSpec spec_;
  RowSchema input_;
  std::vector<int> key_indices_;
  std::vector<int> agg_indices_;
  TimestampMs current_watermark_ = INT64_MIN;
  /// Keyed state in an open-addressing flat hash map over precomputed
  /// FNV-1a hashes of the encoded key (see keyed_state.h). Snapshot blobs
  /// stay format-compatible with the retired std::map layout: rows are
  /// sorted by (start, key) before encoding, which was exactly the map's
  /// iteration order.
  FlatKeyedMap<WindowState> windows_;
  std::string key_scratch_;  ///< reused per-record key encoding buffer
  int64_t late_dropped_ = 0;
  int64_t state_bytes_ = 0;
};

/// Keyed tumbling-window stream-stream inner join. Buffers rows per
/// (key, window) per side, emits a concatenated row for every cross match,
/// and clears buffers once the watermark passes the window (the
/// memory-bound job class of Section 4.2.1).
class WindowJoinOperator : public OperatorInstance {
 public:
  WindowJoinOperator(const TransformSpec& spec, const RowSchema& left,
                     const RowSchema& right);

  void ProcessRecord(const Element& element, Emitter* out) override;
  void OnWatermark(TimestampMs watermark, Emitter* out) override;
  std::string SnapshotState() const override;
  Status RestoreState(const std::string& blob) override;
  int64_t StateBytes() const override;
  int64_t late_dropped() const override { return late_dropped_; }

 private:
  struct Buffers {
    std::vector<std::pair<Row, TimestampMs>> left;
    std::vector<std::pair<Row, TimestampMs>> right;
  };

  Row JoinRows(const Row& left, const Row& right) const;

  TransformSpec spec_;
  RowSchema left_;
  RowSchema right_;
  std::vector<int> left_key_indices_;
  std::vector<int> right_key_indices_;
  /// Right-schema field indices copied into the output (dup names dropped).
  std::vector<int> right_output_indices_;
  TimestampMs current_watermark_ = INT64_MIN;
  /// Same flat-hash keyed state design as WindowAggregateOperator.
  FlatKeyedMap<Buffers> buffers_;
  std::string key_scratch_;  ///< reused per-record key encoding buffer
  int64_t late_dropped_ = 0;
  int64_t state_bytes_ = 0;
};

/// Encoded key-field values of a row (used for keyed partitioning by the
/// runner as well, so records for one key land on one instance).
std::string EncodeKey(const Row& row, const std::vector<int>& key_indices);

/// Allocation-free variant: clears `out` and appends the encoded key-field
/// values (same bytes as EncodeKey), reusing the buffer's capacity. Hot
/// paths (keyed dispatch, window-state probes) pair this with Fnv1a64(*out).
void EncodeKeyTo(const Row& row, const std::vector<int>& key_indices,
                 std::string* out);

/// Resolves field names to indices; missing fields become -1.
std::vector<int> ResolveIndices(const RowSchema& schema,
                                const std::vector<std::string>& fields);

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_WINDOW_OPERATOR_H_
