#include <gtest/gtest.h>

#include "common/rng.h"
#include "olap/segment.h"

namespace uberrt::olap {
namespace {

RowSchema OrdersSchema() {
  return RowSchema({{"restaurant", ValueType::kInt},
                    {"item", ValueType::kString},
                    {"total", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

std::vector<Row> MakeOrders(int n, int restaurants = 10) {
  std::vector<Row> rows;
  const char* items[] = {"pizza", "burger", "sushi"};
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(static_cast<int64_t>(i % restaurants)),
                    Value(std::string(items[i % 3])),
                    Value(10.0 + i % 7),
                    Value(static_cast<int64_t>(1000 + i))});
  }
  return rows;
}

std::shared_ptr<Segment> BuildOrDie(std::vector<Row> rows, SegmentIndexConfig config) {
  Result<std::shared_ptr<Segment>> segment =
      Segment::Build("s0", OrdersSchema(), std::move(rows), config);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return segment.value();
}

// --- BitPackedVector property sweep ------------------------------------------

class BitPackTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackTest, RoundTripsAtEveryWidth) {
  uint32_t max_value = GetParam();
  Rng rng(max_value);
  std::vector<uint32_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<uint32_t>(rng.Uniform(0, max_value)));
  }
  BitPackedVector packed(values, max_value);
  ASSERT_EQ(packed.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(packed.Get(i), values[i]);
  // Packing should beat 32-bit storage for small cardinalities.
  if (max_value < 255) {
    EXPECT_LT(packed.MemoryBytes(), static_cast<int64_t>(values.size() * 4));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackTest,
                         ::testing::Values(1u, 2u, 7u, 63u, 255u, 4095u, 1048575u));

TEST_P(BitPackTest, UnpackMatchesGetAtEveryOffset) {
  uint32_t max_value = GetParam();
  Rng rng(max_value + 1);
  std::vector<uint32_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<uint32_t>(rng.Uniform(0, max_value)));
  }
  BitPackedVector packed(values, max_value);
  // Batch decode at misaligned offsets and counts, including word-crossing
  // cell boundaries.
  std::vector<uint32_t> out(values.size());
  for (size_t start : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{997}}) {
    size_t count = std::min<size_t>(values.size() - start, 129);
    packed.Unpack(start, count, out.data());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], values[start + i]) << "start=" << start << " i=" << i;
    }
  }
}

TEST(BitPackedVectorTest, FromWordsAdoptsSerializedWords) {
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 500; ++i) values.push_back(i % 100);
  BitPackedVector packed(values, 99);
  Result<BitPackedVector> adopted = BitPackedVector::FromWords(
      packed.bits_per_value(), packed.size(), packed.words());
  ASSERT_TRUE(adopted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(adopted.value().Get(i), values[i]);
  }
  // Geometry mismatches are corruption, not UB.
  EXPECT_FALSE(BitPackedVector::FromWords(0, 10, {}).ok());
  EXPECT_FALSE(BitPackedVector::FromWords(33, 10, {}).ok());
  std::vector<uint64_t> truncated = packed.words();
  truncated.pop_back();
  EXPECT_FALSE(BitPackedVector::FromWords(packed.bits_per_value(), packed.size(),
                                          std::move(truncated))
                   .ok());
}

// --- Filters across all ops, with and without indexes -----------------------

struct FilterCase {
  FilterPredicate::Op op;
  int64_t value;
  int expected;
};

class SegmentFilterTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, FilterCase>> {};

TEST_P(SegmentFilterTest, MatchesBruteForceSemantics) {
  auto [use_inverted, use_sorted, fc] = GetParam();
  SegmentIndexConfig config;
  if (use_inverted) config.inverted_columns = {"restaurant"};
  if (use_sorted) config.sorted_column = "restaurant";
  auto segment = BuildOrDie(MakeOrders(100), config);

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {{"restaurant", fc.op, Value(fc.value)}};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Partial row: one group (none), accumulator [count,sum,min,max].
  int64_t count = result.value().rows.empty() ? 0 : result.value().rows[0][0].AsInt();
  EXPECT_EQ(count, fc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllIndexes, SegmentFilterTest,
    ::testing::Combine(
        ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(FilterCase{FilterPredicate::Op::kEq, 3, 10},
                          FilterCase{FilterPredicate::Op::kNe, 3, 90},
                          FilterCase{FilterPredicate::Op::kLt, 3, 30},
                          FilterCase{FilterPredicate::Op::kLe, 3, 40},
                          FilterCase{FilterPredicate::Op::kGt, 7, 20},
                          FilterCase{FilterPredicate::Op::kGe, 7, 30},
                          FilterCase{FilterPredicate::Op::kEq, 99, 0})));

TEST(SegmentTest, CombinedFiltersIntersect) {
  auto segment = BuildOrDie(MakeOrders(90), {});
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Eq("restaurant", Value(int64_t{0})),
                   FilterPredicate::Eq("item", Value("pizza"))};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  // restaurant 0 -> rows 0,10,..,80 (9 rows); item pizza -> i%3==0:
  // intersection = i in {0,30,60} -> 3 rows.
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 3);
}

TEST(SegmentTest, GroupByProducesPartialAccumulators) {
  auto segment = BuildOrDie(MakeOrders(30, 3), {});
  OlapQuery query;
  query.group_by = {"item"};
  query.aggregations = {OlapAggregation::Count("n"),
                        OlapAggregation::Sum("total", "sales")};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 3u);  // 3 items
  for (const Row& row : result.value().rows) {
    // [item, count-acc(4), sum-acc(4)]
    ASSERT_EQ(row.size(), 1 + 2 * kAccumulatorFields);
    EXPECT_EQ(row[1].AsInt(), 10);  // count per item
  }
}

TEST(SegmentTest, IntDictionaryKeepsValuesBeyondDoublePrecision) {
  // 2^53 and 2^53 + 1 are one value as doubles; an INT dictionary must keep
  // them apart while consuming and after seal.
  const RowSchema schema({{"id", ValueType::kInt}});
  const int64_t big = int64_t{1} << 53;
  const std::vector<Row> rows{{Value(big)}, {Value(big + 1)}};
  std::shared_ptr<Segment> consuming = Segment::Consuming(schema);
  for (const Row& row : rows) ASSERT_TRUE(consuming->Append(row).ok());
  Result<std::shared_ptr<Segment>> sealed = Segment::Build("s0", schema, rows, {});
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  for (const Segment* segment : {consuming.get(), sealed.value().get()}) {
    EXPECT_EQ(segment->GetValue(0, 0).AsInt(), big);
    EXPECT_EQ(segment->GetValue(1, 0).AsInt(), big + 1);
    for (bool force_scalar : {false, true}) {
      OlapQuery query;
      query.aggregations = {OlapAggregation::Count("n")};
      query.filters = {FilterPredicate::Eq("id", Value(big + 1))};
      query.force_scalar = force_scalar;
      OlapQueryStats stats;
      Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().rows[0][0].AsInt(), 1) << "scalar=" << force_scalar;
    }
  }
}

TEST(SegmentTest, SortedColumnServesRangeWithoutFullScan) {
  SegmentIndexConfig config;
  config.sorted_column = "restaurant";
  auto segment = BuildOrDie(MakeOrders(1000, 100), config);
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Range("restaurant", FilterPredicate::Op::kLt,
                                          Value(int64_t{10}))};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 100);
  EXPECT_EQ(stats.rows_scanned, 100);  // only the matching range visited
}

// rows_scanned is one count per row examined, regardless of engine. The
// seed engine double-counted scan-filtered rows: FilterRows tallied every
// candidate, then the aggregate phase added the survivors again.
TEST(SegmentTest, RowsScannedCountsEachRowOnce) {
  for (bool force_scalar : {false, true}) {
    // Pure scan predicate: the filter pass examines all 100 rows; the
    // aggregate phase must add nothing (seed reported 100 + matches).
    auto segment = BuildOrDie(MakeOrders(100), {});
    OlapQuery query;
    query.force_scalar = force_scalar;
    query.aggregations = {OlapAggregation::Count("n")};
    query.filters = {FilterPredicate::Eq("item", Value("pizza"))};
    OlapQueryStats stats;
    Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows[0][0].AsInt(), 34);
    EXPECT_EQ(stats.rows_scanned, 100) << "force_scalar=" << force_scalar;

    // Index candidates + residual scan predicate: the scan pass examines the
    // 10 candidates once; the aggregate phase adds nothing (seed: 10 + 4).
    SegmentIndexConfig config;
    config.inverted_columns = {"restaurant"};
    auto indexed = BuildOrDie(MakeOrders(100), config);
    query.filters = {FilterPredicate::Eq("restaurant", Value(int64_t{3})),
                     FilterPredicate::Eq("item", Value("pizza"))};
    stats = {};
    result = indexed->Execute(query, nullptr, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(stats.rows_scanned, 10) << "force_scalar=" << force_scalar;

    // Pure index filter: only the selected rows are visited, by the
    // aggregate phase.
    query.filters = {FilterPredicate::Eq("restaurant", Value(int64_t{3}))};
    stats = {};
    result = indexed->Execute(query, nullptr, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows[0][0].AsInt(), 10);
    EXPECT_EQ(stats.rows_scanned, 10) << "force_scalar=" << force_scalar;
  }
}

TEST(SegmentTest, StarTreeAnswersMatchScanExactly) {
  SegmentIndexConfig star;
  star.star_tree_dimensions = {"restaurant", "item"};
  star.star_tree_metrics = {"total"};
  auto with_star = BuildOrDie(MakeOrders(300), star);
  auto without = BuildOrDie(MakeOrders(300), {});

  for (bool filter : {false, true}) {
    OlapQuery query;
    query.group_by = {"restaurant"};
    query.aggregations = {OlapAggregation::Count("n"),
                          OlapAggregation::Sum("total", "sales"),
                          OlapAggregation::Min("total", "lo"),
                          OlapAggregation::Max("total", "hi")};
    if (filter) {
      query.filters = {FilterPredicate::Eq("restaurant", Value(int64_t{2}))};
    }
    OlapQueryStats star_stats, scan_stats;
    Result<OlapResult> fast = with_star->Execute(query, nullptr, &star_stats);
    Result<OlapResult> slow = without->Execute(query, nullptr, &scan_stats);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(star_stats.star_tree_hits, 1);
    EXPECT_EQ(star_stats.rows_scanned, 0);  // no row visits at all
    EXPECT_GT(scan_stats.rows_scanned, 0);
    ASSERT_EQ(fast.value().rows.size(), slow.value().rows.size());
    EXPECT_EQ(fast.value().rows, slow.value().rows);
  }
}

TEST(SegmentTest, WideGroupKeysMatchScalarOracle) {
  // Nine 256-value dimensions need 9 x 8 = 72 key bits, past one packed
  // u64 key: both the star-tree and the vectorized scan take the ordered
  // wide-key path and must still emit the oracle's rows in its order.
  constexpr int kDims = 9;
  std::vector<FieldSpec> fields;
  std::vector<std::string> dims;
  for (int d = 0; d < kDims; ++d) {
    dims.push_back("d" + std::to_string(d));
    fields.push_back({dims.back(), ValueType::kInt});
  }
  fields.push_back({"m", ValueType::kDouble});
  RowSchema schema(fields);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 512; ++i) {
    Row row;
    for (int64_t d = 0; d < kDims; ++d) row.push_back(Value((i * (2 * d + 1)) % 256));
    row.push_back(Value(0.5 * static_cast<double>(i % 13)));
    rows.push_back(std::move(row));
  }
  SegmentIndexConfig star;
  star.star_tree_dimensions = dims;
  star.star_tree_metrics = {"m"};
  for (const SegmentIndexConfig& config : {star, SegmentIndexConfig{}}) {
    Result<std::shared_ptr<Segment>> segment = Segment::Build("wide", schema, rows, config);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    OlapQuery query;
    query.group_by = {dims.rbegin(), dims.rend()};
    query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("m", "s")};
    OlapQueryStats stats, oracle_stats;
    Result<OlapResult> fast = segment.value()->Execute(query, nullptr, &stats);
    query.force_scalar = true;
    Result<OlapResult> oracle = segment.value()->Execute(query, nullptr, &oracle_stats);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(stats.star_tree_hits, config.star_tree_dimensions.empty() ? 0 : 1);
    EXPECT_EQ(fast.value().rows.size(), 256u);
    EXPECT_EQ(fast.value().rows, oracle.value().rows);
  }
}

TEST(SegmentTest, StarTreeDeclinesUnsupportedQueries) {
  SegmentIndexConfig star;
  star.star_tree_dimensions = {"restaurant"};
  star.star_tree_metrics = {"total"};
  auto segment = BuildOrDie(MakeOrders(50), star);
  OlapQuery query;
  query.group_by = {"item"};  // not a star dimension
  query.aggregations = {OlapAggregation::Count("n")};
  OlapQueryStats stats;
  ASSERT_TRUE(segment->Execute(query, nullptr, &stats).ok());
  EXPECT_EQ(stats.star_tree_hits, 0);  // fell back to scan, still correct
}

TEST(SegmentTest, ValidityMaskHidesUpsertedRows) {
  auto segment = BuildOrDie(MakeOrders(10, 1), {});
  std::vector<bool> validity(10, true);
  validity[0] = false;
  validity[5] = false;
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, &validity, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 8);
}

TEST(SegmentTest, SelectionWithLimitShortCircuits) {
  auto segment = BuildOrDie(MakeOrders(1000), {});
  OlapQuery query;
  query.select_columns = {"restaurant", "total"};
  query.limit = 5;
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 5u);
  EXPECT_LT(stats.rows_scanned, 1000);
}

TEST(SegmentTest, SerializeDeserializeRoundTrip) {
  SegmentIndexConfig config;
  config.inverted_columns = {"item"};
  config.sorted_column = "restaurant";
  config.star_tree_dimensions = {"restaurant"};
  config.star_tree_metrics = {"total"};
  auto original = BuildOrDie(MakeOrders(200), config);
  std::string blob = original->Serialize();
  Result<std::shared_ptr<Segment>> restored = Segment::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value()->NumRows(), original->NumRows());
  EXPECT_TRUE(restored.value()->HasStarTree());
  // Same query, same answers.
  OlapQuery query;
  query.group_by = {"restaurant"};
  query.aggregations = {OlapAggregation::Sum("total", "sales")};
  OlapQueryStats s1, s2;
  EXPECT_EQ(original->Execute(query, nullptr, &s1).value().rows,
            restored.value()->Execute(query, nullptr, &s2).value().rows);
  // Every row identical.
  for (int64_t r = 0; r < original->NumRows(); ++r) {
    EXPECT_EQ(original->GetRow(static_cast<size_t>(r)),
              restored.value()->GetRow(static_cast<size_t>(r)));
  }
}

TEST(SegmentTest, DeserializeRejectsCorruptBlob) {
  auto segment = BuildOrDie(MakeOrders(10), {});
  std::string blob = segment->Serialize();
  EXPECT_FALSE(Segment::Deserialize(blob.substr(0, blob.size() / 2)).ok());
  EXPECT_FALSE(Segment::Deserialize("garbage").ok());
}

TEST(SegmentTest, BitPackingShrinksFootprintVsPlain) {
  SegmentIndexConfig packed;
  SegmentIndexConfig plain;
  plain.bit_packed_forward_index = false;
  auto small = BuildOrDie(MakeOrders(5000), packed);
  auto big = BuildOrDie(MakeOrders(5000), plain);
  // Low-cardinality columns pack into a few bits vs 32.
  EXPECT_LT(small->MemoryBytes(), big->MemoryBytes());
}

TEST(SegmentTest, MemoryBytesCountsZoneMapsAndMembershipFilters) {
  // A/B across the bloom cardinality threshold: 64 distinct restaurant ids
  // builds that column's membership filter (kBloomMinCardinality), 63 does
  // not. Everything else about the two segments is identical, so the
  // footprint delta must include the filter's bit array (64 values at
  // 8 bits/value = 64 bytes of words) — the budget the lifecycle manager
  // enforces has to see index memory, not just forward indexes.
  auto with_bloom = BuildOrDie(MakeOrders(128, 64), {});
  auto without_bloom = BuildOrDie(MakeOrders(128, 63), {});
  EXPECT_GE(with_bloom->MemoryBytes() - without_bloom->MemoryBytes(), 64);

  // The accounting survives a serialize/deserialize round trip: the
  // reloaded segments carry the same filters, so the same delta holds.
  auto reload = [](const Segment& s) {
    Result<std::shared_ptr<Segment>> restored = Segment::Deserialize(s.Serialize());
    EXPECT_TRUE(restored.ok()) << restored.status().ToString();
    return restored.value();
  };
  EXPECT_GE(reload(*with_bloom)->MemoryBytes() -
                reload(*without_bloom)->MemoryBytes(),
            64);
}

TEST(SegmentTest, EmptySegmentHandled) {
  auto segment = BuildOrDie({}, {});
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  OlapQueryStats stats;
  Result<OlapResult> result = segment->Execute(query, nullptr, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
}

}  // namespace
}  // namespace uberrt::olap
