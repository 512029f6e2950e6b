#include "olap/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace uberrt::olap {
namespace {

TableConfig FareTable(bool upsert) {
  TableConfig config;
  config.name = "fares";
  config.schema = RowSchema({{"ride", ValueType::kString},
                             {"fare", ValueType::kDouble},
                             {"ts", ValueType::kInt}});
  config.time_column = "ts";
  config.segment_rows_threshold = 10;
  config.upsert_enabled = upsert;
  if (upsert) config.primary_key_column = "ride";
  return config;
}

Row Fare(const std::string& ride, double fare, int64_t ts = 0) {
  return {Value(ride), Value(fare), Value(ts)};
}

int64_t CountAll(const RealtimePartition& partition) {
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  OlapQueryStats stats;
  Result<OlapResult> result = partition.Execute(query, &stats);
  EXPECT_TRUE(result.ok());
  // Partitions return one partial accumulator per segment/buffer; sum them.
  int64_t total = 0;
  for (const Row& partial : result.value().rows) total += partial[0].AsInt();
  return total;
}

TEST(RealtimePartitionTest, BufferQueriesBeforeSeal) {
  RealtimePartition partition(FareTable(false), 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(partition.Ingest(Fare("r" + std::to_string(i), 10.0 + i)).ok());
  }
  EXPECT_EQ(partition.NumSealedSegments(), 0);
  EXPECT_EQ(CountAll(partition), 5);

  OlapQuery select;
  select.select_columns = {"ride", "fare"};
  select.filters = {FilterPredicate::Range("fare", FilterPredicate::Op::kGe,
                                           Value(12.0))};
  OlapQueryStats stats;
  Result<OlapResult> result = partition.Execute(select, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 3u);
}

TEST(RealtimePartitionTest, SealAtThresholdAndQueryAcrossBoth) {
  RealtimePartition partition(FareTable(false), 0);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(partition.Ingest(Fare("r" + std::to_string(i), 1.0)).ok());
    partition.SealIfNeeded().ok();
  }
  EXPECT_EQ(partition.NumSealedSegments(), 2);  // 10 + 10, 5 buffered
  EXPECT_EQ(partition.ConsumingRows(), 5);
  EXPECT_EQ(CountAll(partition), 25);
  EXPECT_EQ(partition.NumRows(), 25);
}

TEST(RealtimePartitionTest, ForceSealFlushesSmallBuffer) {
  RealtimePartition partition(FareTable(false), 0);
  partition.Ingest(Fare("r", 1.0)).ok();
  Result<std::shared_ptr<Segment>> none = partition.SealIfNeeded(false);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), nullptr);
  Result<std::shared_ptr<Segment>> forced = partition.SealIfNeeded(true);
  ASSERT_TRUE(forced.ok());
  ASSERT_NE(forced.value(), nullptr);
  EXPECT_EQ(forced.value()->NumRows(), 1);
  EXPECT_EQ(partition.ConsumingRows(), 0);
}

TEST(RealtimePartitionTest, UpsertAcrossSealBoundaries) {
  RealtimePartition partition(FareTable(true), 0);
  // 10 rides fill a segment; then correct 3 of them, twice.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(partition.Ingest(Fare("r" + std::to_string(i), 10.0)).ok());
    partition.SealIfNeeded().ok();
  }
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          partition.Ingest(Fare("r" + std::to_string(i), 100.0 + round)).ok());
    }
  }
  EXPECT_EQ(CountAll(partition), 10);  // one live version per ride
  OlapQuery lookup;
  lookup.select_columns = {"fare"};
  lookup.filters = {FilterPredicate::Eq("ride", Value("r1"))};
  OlapQueryStats stats;
  Result<OlapResult> result = partition.Execute(lookup, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][0].AsDouble(), 101.0);  // latest
}

TEST(RealtimePartitionTest, RowWidthValidated) {
  RealtimePartition partition(FareTable(false), 0);
  EXPECT_FALSE(partition.Ingest({Value("r")}).ok());
}

TEST(RealtimePartitionTest, BufferGroupByKeepsNearlyEqualDoublesApart) {
  // Prices that print alike at 6 significant digits are still two groups in
  // the consuming buffer, exactly as they are once sealed.
  RealtimePartition partition(FareTable(false), 0);
  ASSERT_TRUE(partition.Ingest(Fare("a", 1.0000001)).ok());
  ASSERT_TRUE(partition.Ingest(Fare("b", 1.0000002)).ok());
  ASSERT_TRUE(partition.Ingest(Fare("c", 1.0000002)).ok());
  OlapQuery query;
  query.group_by = {"fare"};
  query.aggregations = {OlapAggregation::Count("n")};
  auto group_counts = [&] {
    OlapQueryStats stats;
    Result<OlapResult> result = partition.Execute(query, &stats);
    EXPECT_TRUE(result.ok());
    std::vector<std::pair<double, int64_t>> counts;
    for (const Row& partial : result.value().rows) {
      counts.emplace_back(partial[0].AsDouble(), partial[1].AsInt());
    }
    std::sort(counts.begin(), counts.end());
    return counts;
  };
  const std::vector<std::pair<double, int64_t>> expected = {{1.0000001, 1},
                                                            {1.0000002, 2}};
  EXPECT_EQ(partition.NumSealedSegments(), 0);
  EXPECT_EQ(group_counts(), expected);
  ASSERT_TRUE(partition.SealIfNeeded(true).ok());
  EXPECT_EQ(partition.NumSealedSegments(), 1);
  EXPECT_EQ(group_counts(), expected);
}

TEST(RealtimePartitionTest, ConsumingCellsAreCoercedToTheColumnType) {
  // INT cells in a DOUBLE column group with their DOUBLE spelling in the
  // consuming segment, exactly as they do once sealed.
  RealtimePartition partition(FareTable(false), 0);
  for (int64_t v : {1, 2, 3}) {
    ASSERT_TRUE(partition.Ingest({Value("r"), Value(v), Value(v)}).ok());
  }
  ASSERT_TRUE(partition.Ingest(Fare("r", 1.0)).ok());
  OlapQuery query;
  query.group_by = {"fare"};
  query.aggregations = {OlapAggregation::Count("n")};
  for (int phase = 0; phase < 2; ++phase) {
    OlapQueryStats stats;
    Result<OlapResult> result = partition.Execute(query, &stats);
    ASSERT_TRUE(result.ok());
    std::vector<std::pair<Value, int64_t>> groups;
    for (const Row& partial : result.value().rows) {
      groups.emplace_back(partial[0], partial[1].AsInt());
    }
    std::sort(groups.begin(), groups.end());
    const std::vector<std::pair<Value, int64_t>> expected = {
        {Value(1.0), 2}, {Value(2.0), 1}, {Value(3.0), 1}};
    EXPECT_EQ(groups, expected) << (phase == 0 ? "consuming" : "sealed");
    ASSERT_TRUE(partition.SealIfNeeded(true).ok());
  }
}

/// Predicate semantics through the one query engine: each spec case filters
/// an INT column `v` and a DOUBLE column `d` holding the same values, and
/// must count the same in the consuming segment and once it has sealed.
struct PredicateCase {
  FilterPredicate::Op op;
  std::vector<int64_t> values;
  double rhs;
  int64_t expected;
};

TableConfig NumbersTable() {
  TableConfig config;
  config.name = "numbers";
  config.schema = RowSchema({{"v", ValueType::kInt},
                             {"d", ValueType::kDouble},
                             {"s", ValueType::kString}});
  config.segment_rows_threshold = 1'000;
  return config;
}

int64_t CountWhere(const RealtimePartition& partition, FilterPredicate pred) {
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {std::move(pred)};
  OlapQueryStats stats;
  Result<OlapResult> result = partition.Execute(query, &stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  int64_t total = 0;
  for (const Row& partial : result.value().rows) total += partial[0].AsInt();
  return total;
}

class PredicateSemanticsTest : public ::testing::TestWithParam<PredicateCase> {};

TEST_P(PredicateSemanticsTest, CountsMatchSpecBeforeAndAfterSeal) {
  const PredicateCase& c = GetParam();
  RealtimePartition partition(NumbersTable(), 0);
  for (int64_t v : c.values) {
    ASSERT_TRUE(
        partition.Ingest({Value(v), Value(static_cast<double>(v)), Value("x")}).ok());
  }
  // A DOUBLE target, plus the INT spelling of an integral one.
  std::vector<Value> targets = {Value(c.rhs)};
  if (c.rhs == static_cast<double>(static_cast<int64_t>(c.rhs))) {
    targets.push_back(Value(static_cast<int64_t>(c.rhs)));
  }
  for (const char* phase : {"consuming", "sealed"}) {
    for (const char* column : {"v", "d"}) {
      for (const Value& target : targets) {
        EXPECT_EQ(CountWhere(partition, {column, c.op, target}), c.expected)
            << phase << " " << column << " op " << static_cast<int>(c.op) << " "
            << target.ToString() << " (" << ValueTypeName(target.type()) << ")";
      }
    }
    ASSERT_TRUE(partition.SealIfNeeded(true).ok());
    EXPECT_EQ(partition.ConsumingRows(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, PredicateSemanticsTest,
    ::testing::Values(PredicateCase{FilterPredicate::Op::kEq, {5}, 5, 1},
                      PredicateCase{FilterPredicate::Op::kEq, {5}, 6, 0},
                      PredicateCase{FilterPredicate::Op::kNe, {5}, 6, 1},
                      PredicateCase{FilterPredicate::Op::kNe, {5}, 5, 0},
                      PredicateCase{FilterPredicate::Op::kLt, {4}, 5, 1},
                      PredicateCase{FilterPredicate::Op::kLt, {5}, 5, 0},
                      PredicateCase{FilterPredicate::Op::kLe, {5}, 5, 1},
                      PredicateCase{FilterPredicate::Op::kLe, {6}, 5, 0},
                      PredicateCase{FilterPredicate::Op::kGt, {6}, 5, 1},
                      PredicateCase{FilterPredicate::Op::kGt, {5}, 5, 0},
                      PredicateCase{FilterPredicate::Op::kGe, {5}, 5, 1},
                      PredicateCase{FilterPredicate::Op::kGe, {4}, 5, 0},
                      // A non-integral bound is never truncated to the INT
                      // column's type: ranges keep it exactly, = matches
                      // nothing and != everything.
                      PredicateCase{FilterPredicate::Op::kLt, {1, 2, 3, 4}, 2.5, 2},
                      PredicateCase{FilterPredicate::Op::kLe, {1, 2, 3, 4}, 2.5, 2},
                      PredicateCase{FilterPredicate::Op::kEq, {1, 2, 3, 4}, 2.5, 0},
                      PredicateCase{FilterPredicate::Op::kNe, {1, 2, 3, 4}, 2.5, 4},
                      PredicateCase{FilterPredicate::Op::kGt, {1, 2, 3, 4}, 2.5, 2},
                      PredicateCase{FilterPredicate::Op::kGe, {1, 2, 3, 4}, 2.5, 2},
                      PredicateCase{FilterPredicate::Op::kGe, {1, 2, 3, 4}, -0.5, 4},
                      PredicateCase{FilterPredicate::Op::kLt, {1, 2, 3, 4}, 4.5, 4}));

TEST(PredicateSemanticsTest, StringSemanticsBeforeAndAfterSeal) {
  RealtimePartition partition(NumbersTable(), 0);
  for (const char* s : {"a", "abc"}) {
    ASSERT_TRUE(partition.Ingest({Value(int64_t{0}), Value(0.0), Value(s)}).ok());
  }
  for (int phase = 0; phase < 2; ++phase) {
    EXPECT_EQ(CountWhere(partition, {"s", FilterPredicate::Op::kEq, Value("abc")}), 1);
    EXPECT_EQ(CountWhere(partition, {"s", FilterPredicate::Op::kLt, Value("b")}), 2);
    EXPECT_EQ(CountWhere(partition, {"s", FilterPredicate::Op::kGe, Value("b")}), 0);
    EXPECT_EQ(CountWhere(partition, {"s", FilterPredicate::Op::kNe, Value("a")}), 1);
    ASSERT_TRUE(partition.SealIfNeeded(true).ok());
  }
}

/// Property: partition query results equal brute force over the ingested
/// rows regardless of seal boundaries.
class PartitionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionPropertyTest, AggregatesMatchBruteForceAcrossSeals) {
  Rng rng(GetParam());
  RealtimePartition partition(FareTable(false), 0);
  double expected_sum = 0;
  int64_t expected_n = 0;
  for (int i = 0; i < 200; ++i) {
    double fare = rng.Uniform(5, 80);
    int64_t ts = rng.Uniform(0, 1'000);
    partition.Ingest(Fare("r" + std::to_string(i), fare, ts)).ok();
    if (rng.Chance(0.1)) partition.SealIfNeeded(true).ok();
    if (fare >= 40) {
      expected_sum += fare;
      ++expected_n;
    }
  }
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  query.filters = {FilterPredicate::Range("fare", FilterPredicate::Op::kGe,
                                          Value(40.0))};
  OlapQueryStats stats;
  Result<OlapResult> result = partition.Execute(query, &stats);
  ASSERT_TRUE(result.ok());
  // Merge the per-segment partials: layout is one 4-field accumulator
  // (count,sum,min,max) per aggregation.
  int64_t n = 0;
  double sum = 0;
  for (const Row& partial : result.value().rows) {
    n += partial[0].AsInt();                          // count acc of COUNT
    sum += partial[kAccumulatorFields + 1].AsDouble();  // sum acc of SUM
  }
  EXPECT_EQ(n, expected_n);
  EXPECT_NEAR(sum, expected_sum, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionPropertyTest,
                         ::testing::Values(3u, 17u, 99u));

}  // namespace
}  // namespace uberrt::olap
