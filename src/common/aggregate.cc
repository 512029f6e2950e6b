#include "common/aggregate.h"

#include <algorithm>
#include <cctype>
#include <iterator>

namespace uberrt {

std::optional<AggregateSpec::Kind> ParseAggregateKind(std::string_view name) {
  static constexpr std::string_view kNames[] = {"COUNT", "SUM", "MIN", "MAX", "AVG"};  // Kind order
  auto same = [](char a, char b) { return std::toupper(static_cast<unsigned char>(a)) == b; };
  for (size_t k = 0; k < std::size(kNames); ++k) {
    if (std::ranges::equal(name, kNames[k], same)) return static_cast<AggregateSpec::Kind>(k);
  }
  return std::nullopt;
}

Value AggAccumulator::Finish(AggregateSpec::Kind kind) const {
  switch (kind) {
    case AggregateSpec::Kind::kCount: return Value(count);
    case AggregateSpec::Kind::kSum: return Value(sum);
    case AggregateSpec::Kind::kMin: return Value(count == 0 ? 0.0 : min);
    case AggregateSpec::Kind::kMax: return Value(count == 0 ? 0.0 : max);
    case AggregateSpec::Kind::kAvg:
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
  if (offset + kAccumulatorFields > row.size()) {
    return Status::Corruption("partial row too short");
  }
  AggAccumulator acc;
  acc.count = row[offset].AsInt();
  acc.sum = row[offset + 1].AsDouble();
  acc.min = row[offset + 2].AsDouble();
  acc.max = row[offset + 3].AsDouble();
  return acc;
}

}  // namespace uberrt
