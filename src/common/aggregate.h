#ifndef UBERRT_COMMON_AGGREGATE_H_
#define UBERRT_COMMON_AGGREGATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/value.h"

namespace uberrt {

/// One COUNT/SUM/MIN/MAX/AVG aggregation. The same spec and accumulator
/// serve every engine that aggregates (paper Sections 4.2-4.4): FlinkSQL's
/// window aggregation, Pinot-style segments and broker merge, and Presto's
/// in-memory aggregation, so an aggregate means one thing everywhere.
struct AggregateSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind = Kind::kCount;
  std::string field;        ///< input field (ignored for kCount)
  std::string output_name;  ///< name of the result column

  static AggregateSpec Count(std::string output_name) {
    return {Kind::kCount, "", std::move(output_name)};
  }
  static AggregateSpec Sum(std::string field, std::string output_name) {
    return {Kind::kSum, std::move(field), std::move(output_name)};
  }
  static AggregateSpec Min(std::string field, std::string output_name) {
    return {Kind::kMin, std::move(field), std::move(output_name)};
  }
  static AggregateSpec Max(std::string field, std::string output_name) {
    return {Kind::kMax, std::move(field), std::move(output_name)};
  }
  static AggregateSpec Avg(std::string field, std::string output_name) {
    return {Kind::kAvg, std::move(field), std::move(output_name)};
  }

  /// COUNT is INT; every other aggregate is DOUBLE.
  ValueType ResultType() const {
    return kind == Kind::kCount ? ValueType::kInt : ValueType::kDouble;
  }
};

/// The aggregate a function name denotes (case-insensitive), or nullopt
/// when the name is not an aggregate.
std::optional<AggregateSpec::Kind> ParseAggregateKind(std::string_view name);

/// Mergeable, constant-size partial aggregate: the Flink-style incremental
/// state the paper contrasts with Spark's materialize-the-batch approach
/// (Section 4.2), and the partial that segments return for the broker's
/// scatter-gather-merge (Section 4.3). Inputs are numeric views of values
/// (Value::ToNumeric). Add and Merge run once per record or selected row,
/// so they stay inline.
struct AggAccumulator {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Add(double v) {
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

  void Merge(const AggAccumulator& other) {
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

  /// The aggregate's value; MIN/MAX/AVG of nothing read 0.
  Value Finish(AggregateSpec::Kind kind) const;
};

/// Row fields one accumulator occupies: [count INT, sum, min, max DOUBLE].
/// Segment partial rows and window-checkpoint rows share this layout.
inline constexpr size_t kAccumulatorFields = 4;

void AppendAccumulator(Row* row, const AggAccumulator& acc);
/// Reads an accumulator back from `row` at `offset`.
Result<AggAccumulator> ReadAccumulator(const Row& row, size_t offset);

}  // namespace uberrt

#endif  // UBERRT_COMMON_AGGREGATE_H_
