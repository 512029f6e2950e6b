/// Randomized differential test: the vectorized segment engine must return
/// exactly the same rows as the row-at-a-time scalar oracle
/// (OlapQuery::force_scalar) for any schema, index configuration, filter
/// set, group-by and validity mask. Doubles are generated on a 0.25 grid at
/// modest magnitude so every sum is exact regardless of accumulation order,
/// making "exactly" mean bitwise equality — including through the star-tree
/// and through a serialize/deserialize round trip.
///
/// Runs at two fixed seeds (reproducible; also wired into the ASan and TSan
/// suites in ci.sh). Index archetypes rotate per iteration so both seeds
/// cover star-tree, sorted-range, inverted, pure-scan and validity paths
/// with bit-packing on and off.
///
/// The seal-invariance fuzz below extends "exactly" across the consuming ->
/// sealed transition: a realtime partition must merge to the same rows
/// while its consuming segment fills, once it has sealed, and through the
/// scalar oracle, even when cells arrive typed as another numeric type than
/// their column and upserts have invalidated consuming rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "olap/cluster.h"
#include "olap/segment.h"
#include "olap/table.h"

namespace uberrt::olap {
namespace {

struct FuzzContext {
  std::shared_ptr<Segment> segment;
  std::vector<bool> validity;
  bool use_validity = false;
  int64_t k1_cardinality = 1;
  std::vector<std::string> k2_pool;
};

Row RandomRow(Rng& rng, const FuzzContext& ctx) {
  Row row;
  row.push_back(Value(rng.Uniform(0, ctx.k1_cardinality - 1)));
  if (rng.Chance(0.05)) {
    row.push_back(Value::Null());
  } else {
    row.push_back(Value(rng.Pick(ctx.k2_pool)));
  }
  // 0.25 grid: sums of a few thousand of these are exact in double, so
  // every accumulation order produces the same bits.
  row.push_back(Value(0.25 * static_cast<double>(rng.Uniform(0, 400))));
  if (rng.Chance(0.05)) {
    row.push_back(Value::Null());
  } else {
    row.push_back(Value(rng.Uniform(-50, 50)));
  }
  return row;
}

FuzzContext BuildRandomSegment(Rng& rng, int iteration) {
  FuzzContext ctx;
  ctx.k1_cardinality = rng.Uniform(1, 20);
  int64_t k2_cardinality = rng.Uniform(1, 50);
  for (int64_t i = 0; i < k2_cardinality; ++i) {
    ctx.k2_pool.push_back("s" + std::to_string(i));
  }
  RowSchema schema({{"k1", ValueType::kInt},
                    {"k2", ValueType::kString},
                    {"v1", ValueType::kDouble},
                    {"v2", ValueType::kInt}});
  size_t num_rows = static_cast<size_t>(rng.Uniform(0, 600));
  std::vector<Row> rows;
  rows.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) rows.push_back(RandomRow(rng, ctx));

  // Rotate through the index archetypes so a fixed iteration count still
  // covers every execution path.
  SegmentIndexConfig config;
  switch (iteration % 5) {
    case 0: break;  // pure scan
    case 1:
      config.inverted_columns = {"k1", "k2"};
      break;
    case 2:
      config.sorted_column = "k1";
      break;
    case 3:
      config.star_tree_dimensions = {"k1", "k2"};
      config.star_tree_metrics = {"v1", "v2"};
      break;
    case 4:
      config.inverted_columns = {"k2"};
      config.sorted_column = "k1";
      config.star_tree_dimensions = {"k1"};
      config.star_tree_metrics = {"v1"};
      break;
  }
  config.bit_packed_forward_index = iteration % 2 == 0;

  Result<std::shared_ptr<Segment>> segment =
      Segment::Build("fuzz", schema, std::move(rows), config);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  ctx.segment = segment.value();

  ctx.use_validity = rng.Chance(0.3);
  if (ctx.use_validity) {
    ctx.validity.assign(num_rows, true);
    for (size_t r = 0; r < num_rows; ++r) {
      if (rng.Chance(0.2)) ctx.validity[r] = false;
    }
  }
  return ctx;
}

FilterPredicate RandomPredicate(Rng& rng, const FuzzContext& ctx) {
  static const FilterPredicate::Op kOps[] = {
      FilterPredicate::Op::kEq, FilterPredicate::Op::kNe,
      FilterPredicate::Op::kLt, FilterPredicate::Op::kLe,
      FilterPredicate::Op::kGt, FilterPredicate::Op::kGe};
  FilterPredicate pred;
  pred.op = kOps[rng.Uniform(0, 5)];
  switch (rng.Uniform(0, 2)) {
    case 0:
      pred.column = "k1";
      // Values deliberately overshoot the cardinality so empty dictionary
      // ranges are exercised.
      pred.value = Value(rng.Uniform(-2, ctx.k1_cardinality + 2));
      break;
    case 1:
      pred.column = "k2";
      pred.value = rng.Chance(0.8) ? Value(rng.Pick(ctx.k2_pool)) : Value("zzz-missing");
      break;
    default:
      pred.column = "v1";
      pred.value = Value(0.25 * static_cast<double>(rng.Uniform(-10, 410)));
      break;
  }
  return pred;
}

OlapQuery RandomAggregateQuery(Rng& rng, const FuzzContext& ctx) {
  OlapQuery query;
  int num_filters = static_cast<int>(rng.Uniform(0, 3));
  for (int f = 0; f < num_filters; ++f) {
    query.filters.push_back(RandomPredicate(rng, ctx));
  }
  switch (rng.Uniform(0, 3)) {
    case 0: break;  // global aggregate
    case 1: query.group_by = {"k1"}; break;
    case 2: query.group_by = {"k2"}; break;
    default: query.group_by = {"k1", "k2"}; break;
  }
  query.aggregations.push_back(OlapAggregation::Count("n"));
  if (rng.Chance(0.8)) {
    query.aggregations.push_back(OlapAggregation::Sum("v1", "sum1"));
  }
  if (rng.Chance(0.5)) {
    query.aggregations.push_back(OlapAggregation::Min("v1", "lo"));
    query.aggregations.push_back(OlapAggregation::Max("v1", "hi"));
  }
  if (rng.Chance(0.5)) {
    query.aggregations.push_back(OlapAggregation::Avg("v2", "mean2"));
  }
  return query;
}

/// Star-tree filter shapes: a pin on the leading dimension (a seek), on the
/// second dimension only (a full-level walk), on both, two different values
/// on one dimension, and values missing from the dictionary.
enum class StarShape { kLeading, kSecond, kBoth, kConflicting, kMissing };

/// Aggregate the star-tree can serve: only Eq filters on star dimensions,
/// group-bys on star dimensions, COUNT or star metrics. `two_dims` is
/// archetype 3 (dims k1, k2; metrics v1, v2); otherwise archetype 4 (dim k1;
/// metric v1).
OlapQuery RandomStarQuery(Rng& rng, const FuzzContext& ctx, bool two_dims,
                          StarShape shape) {
  auto k1 = [&](int64_t v) { return FilterPredicate::Eq("k1", Value(v)); };
  auto k2 = [&](const std::string& v) { return FilterPredicate::Eq("k2", Value(v)); };
  const int64_t k1_value = rng.Uniform(0, ctx.k1_cardinality - 1);
  const std::string& k2_value = rng.Pick(ctx.k2_pool);
  OlapQuery query;
  switch (shape) {
    case StarShape::kLeading: query.filters = {k1(k1_value)}; break;
    case StarShape::kSecond: query.filters = {k2(k2_value)}; break;
    case StarShape::kBoth:
      query.filters = {k2(k2_value), k1(k1_value)};
      if (rng.Chance(0.5)) std::swap(query.filters[0], query.filters[1]);
      break;
    case StarShape::kConflicting:
      // k1_value + 1 may also be missing from the dictionary; either way the
      // two pins contradict each other.
      query.filters = {k1(k1_value), k1(k1_value + 1)};
      break;
    case StarShape::kMissing:
      if (two_dims && rng.Chance(0.5)) {
        query.filters = {k1(k1_value), k2("zzz-missing")};
      } else {
        query.filters = {k1(ctx.k1_cardinality + 3)};
      }
      break;
  }
  static const std::vector<std::vector<std::string>> kTwoDimGroups = {
      {}, {"k1"}, {"k2"}, {"k1", "k2"}, {"k2", "k1"}};
  static const std::vector<std::vector<std::string>> kOneDimGroups = {{}, {"k1"}};
  query.group_by = two_dims ? rng.Pick(kTwoDimGroups) : rng.Pick(kOneDimGroups);
  query.aggregations.push_back(OlapAggregation::Count("n"));
  if (rng.Chance(0.8)) {
    query.aggregations.push_back(OlapAggregation::Sum("v1", "sum1"));
  }
  if (rng.Chance(0.5)) {
    query.aggregations.push_back(OlapAggregation::Min("v1", "lo"));
    query.aggregations.push_back(OlapAggregation::Max("v1", "hi"));
  }
  if (two_dims && rng.Chance(0.5)) {
    query.aggregations.push_back(OlapAggregation::Avg("v2", "mean2"));
  }
  return query;
}

OlapQuery RandomSelectQuery(Rng& rng, const FuzzContext& ctx) {
  OlapQuery query;
  int num_filters = static_cast<int>(rng.Uniform(0, 2));
  for (int f = 0; f < num_filters; ++f) {
    query.filters.push_back(RandomPredicate(rng, ctx));
  }
  static const std::vector<std::vector<std::string>> kSelections = {
      {"k1"}, {"k2", "v1"}, {"k1", "k2", "v1", "v2"}, {"v2"}};
  query.select_columns = kSelections[static_cast<size_t>(rng.Uniform(0, 3))];
  static const int64_t kLimits[] = {-1, -1, 1, 7, 1000};
  query.limit = kLimits[rng.Uniform(0, 4)];
  return query;
}

/// Runs `query` through both engines on the same segment + validity and
/// requires bitwise-identical result rows.
void ExpectParity(const FuzzContext& ctx, OlapQuery query, int iteration,
                  const char* what, OlapQueryStats* vectorized_stats = nullptr) {
  const std::vector<bool>* validity = ctx.use_validity ? &ctx.validity : nullptr;
  OlapQueryStats local_stats, scalar_stats;
  OlapQueryStats& vec_stats = vectorized_stats != nullptr ? *vectorized_stats : local_stats;
  query.force_scalar = false;
  Result<OlapResult> vectorized = ctx.segment->Execute(query, validity, &vec_stats);
  query.force_scalar = true;
  Result<OlapResult> scalar = ctx.segment->Execute(query, validity, &scalar_stats);
  ASSERT_EQ(vectorized.ok(), scalar.ok())
      << what << " iteration " << iteration << ": status mismatch, vectorized="
      << vectorized.status().ToString() << " scalar=" << scalar.status().ToString();
  if (!vectorized.ok()) return;
  ASSERT_EQ(vectorized.value().rows, scalar.value().rows)
      << what << " iteration " << iteration << " diverged (star_tree_hits="
      << vec_stats.star_tree_hits << ", exec_batches=" << vec_stats.exec_batches
      << ")";
}

class VectorizedParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorizedParityTest, VectorizedMatchesScalarOracleExactly) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 60; ++iteration) {
    FuzzContext ctx = BuildRandomSegment(rng, iteration);
    ExpectParity(ctx, RandomAggregateQuery(rng, ctx), iteration, "aggregate");
    ExpectParity(ctx, RandomAggregateQuery(rng, ctx), iteration, "aggregate");
    ExpectParity(ctx, RandomSelectQuery(rng, ctx), iteration, "select");

    // Star archetypes: every Eq-filter shape must be served by the cube
    // (no validity mask, which the star-tree never serves) and still match
    // the oracle bit for bit.
    if (iteration % 5 == 3 || iteration % 5 == 4) {
      const bool two_dims = iteration % 5 == 3;
      FuzzContext star_ctx = ctx;
      star_ctx.use_validity = false;
      for (StarShape shape : {StarShape::kLeading, StarShape::kSecond, StarShape::kBoth,
                              StarShape::kConflicting, StarShape::kMissing}) {
        if (!two_dims && (shape == StarShape::kSecond || shape == StarShape::kBoth)) {
          continue;
        }
        OlapQueryStats stats;
        ExpectParity(star_ctx, RandomStarQuery(rng, ctx, two_dims, shape), iteration,
                     "star", &stats);
        EXPECT_GT(stats.star_tree_hits, 0)
            << "iteration " << iteration << " shape " << static_cast<int>(shape);
      }
    }

    // Every fourth iteration also round-trips through the columnar blob so
    // the FromWords deserialization path serves the vectorized engine.
    if (iteration % 4 == 0) {
      Result<std::shared_ptr<Segment>> restored =
          Segment::Deserialize(ctx.segment->Serialize());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      FuzzContext restored_ctx = ctx;
      restored_ctx.segment = restored.value();
      ExpectParity(restored_ctx, RandomAggregateQuery(rng, ctx), iteration,
                   "restored-aggregate");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, VectorizedParityTest,
                         ::testing::Values(0xC0FFEEULL, 0x5EEDF00DULL));

/// A numeric cell spelled as either numeric type: integral values on the
/// 0.25 grid arrive as INT or DOUBLE at random, so DOUBLE columns hold INT
/// cells (and INT columns integral DOUBLE ones) exactly as a stream would
/// deliver them.
Value AnyNumeric(Rng& rng, double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) && rng.Chance(0.5)) {
    return Value(static_cast<int64_t>(v));
  }
  return Value(v);
}

/// One random partition: key (upsert primary key), k1 INT, k2 STRING,
/// v1 DOUBLE, v2 INT.
TableConfig RandomSealTable(Rng& rng, int iteration, bool upsert) {
  TableConfig config;
  config.name = "seal_fuzz";
  config.schema = RowSchema({{"key", ValueType::kInt},
                             {"k1", ValueType::kInt},
                             {"k2", ValueType::kString},
                             {"v1", ValueType::kDouble},
                             {"v2", ValueType::kInt}});
  config.segment_rows_threshold = 1'000'000;  // seals only when forced
  config.upsert_enabled = upsert;
  if (upsert) config.primary_key_column = "key";
  SegmentIndexConfig& index = config.index_config;
  // Upsert tables keep row order and never pre-aggregate.
  switch (iteration % (upsert ? 2 : 4)) {
    case 0: break;
    case 1: index.inverted_columns = {"k1", "v1"}; break;
    case 2:
      index.star_tree_dimensions = {"k1", "v1"};
      index.star_tree_metrics = {"v1", "v2"};
      break;
    case 3: index.sorted_column = "v1"; break;
  }
  index.bit_packed_forward_index = rng.Chance(0.5);
  return config;
}

Row RandomSealRow(Rng& rng, int64_t keys, int64_t k1_cardinality) {
  Row row;
  row.push_back(Value(rng.Uniform(0, keys - 1)));
  row.push_back(rng.Chance(0.05) ? Value::Null()
                                 : AnyNumeric(rng, rng.Uniform(0, k1_cardinality - 1)));
  row.push_back(Value("s" + std::to_string(rng.Uniform(0, 6))));
  // Few distinct v1 values so it groups and pins well; 0.25 grid keeps
  // every sum exact whatever order the rows accumulate in.
  row.push_back(rng.Chance(0.05) ? Value::Null()
                                 : AnyNumeric(rng, 0.25 * static_cast<double>(
                                                       rng.Uniform(0, 12))));
  row.push_back(AnyNumeric(rng, rng.Uniform(-20, 20)));
  return row;
}

FilterPredicate RandomSealPredicate(Rng& rng, int64_t k1_cardinality) {
  static const FilterPredicate::Op kOps[] = {
      FilterPredicate::Op::kEq, FilterPredicate::Op::kNe,
      FilterPredicate::Op::kLt, FilterPredicate::Op::kLe,
      FilterPredicate::Op::kGt, FilterPredicate::Op::kGe};
  FilterPredicate pred;
  pred.op = kOps[rng.Uniform(0, 5)];
  switch (rng.Uniform(0, 3)) {
    case 0:
      // Half-integral targets on an INT column: never truncated.
      pred.column = "k1";
      pred.value = AnyNumeric(rng, 0.5 * static_cast<double>(
                                             rng.Uniform(-2, 2 * k1_cardinality + 2)));
      break;
    case 1:
      pred.column = "v1";
      pred.value = AnyNumeric(rng, 0.25 * static_cast<double>(rng.Uniform(-1, 13)));
      break;
    case 2:
      pred.column = "v2";
      pred.value = AnyNumeric(rng, 0.5 * static_cast<double>(rng.Uniform(-42, 42)));
      break;
    default:
      pred.column = "k2";
      pred.value = Value("s" + std::to_string(rng.Uniform(0, 7)));
      break;
  }
  return pred;
}

OlapQuery RandomSealQuery(Rng& rng, int64_t k1_cardinality, bool allow_limit) {
  OlapQuery query;
  int num_filters = static_cast<int>(rng.Uniform(0, 2));
  for (int f = 0; f < num_filters; ++f) {
    query.filters.push_back(RandomSealPredicate(rng, k1_cardinality));
  }
  if (rng.Chance(0.25)) {
    static const std::vector<std::vector<std::string>> kSelections = {
        {"v1"}, {"k1", "v1", "v2"}, {"key", "k2"}};
    query.select_columns = rng.Pick(kSelections);
    if (allow_limit && rng.Chance(0.3)) query.limit = rng.Uniform(1, 10);
    return query;
  }
  static const std::vector<std::vector<std::string>> kGroups = {
      {}, {"v1"}, {"k1"}, {"k2"}, {"k1", "v1"}, {"v1", "k2"}};
  query.group_by = rng.Pick(kGroups);
  query.aggregations.push_back(OlapAggregation::Count("n"));
  query.aggregations.push_back(OlapAggregation::Sum("v1", "sum1"));
  if (rng.Chance(0.5)) {
    query.aggregations.push_back(OlapAggregation::Min("v1", "lo"));
    query.aggregations.push_back(OlapAggregation::Max("v2", "hi"));
  }
  if (rng.Chance(0.5)) query.aggregations.push_back(OlapAggregation::Avg("v2", "mean2"));
  return query;
}

/// Partition results merged and finalized as the broker would; selects are
/// sorted when sealing may reorder rows (sorted column).
Result<std::vector<Row>> MergedRows(const RealtimePartition& partition,
                                    const TableConfig& config, OlapQuery query,
                                    bool force_scalar) {
  query.force_scalar = force_scalar;
  OlapQueryStats stats;
  Result<OlapResult> partial = partition.Execute(query, &stats);
  if (!partial.ok()) return partial.status();
  Result<OlapResult> merged =
      MergeAndFinalize(query, config.schema, std::move(partial.value().rows));
  if (!merged.ok()) return merged.status();
  std::vector<Row> rows = std::move(merged.value().rows);
  if (!config.index_config.sorted_column.empty() && query.aggregations.empty()) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

class SealInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SealInvarianceTest, ConsumingSealedAndScalarMergeIdentically) {
  Rng rng(GetParam());
  for (int iteration = 0; iteration < 48; ++iteration) {
    const bool upsert = iteration % 3 == 2;
    const TableConfig config = RandomSealTable(rng, iteration, upsert);
    RealtimePartition partition(config, 0);
    const int64_t k1_cardinality = rng.Uniform(1, 8);
    // Upsert keys repeat, so later versions invalidate earlier rows both in
    // earlier sealed segments and inside the consuming segment.
    const int64_t keys = upsert ? rng.Uniform(1, 60) : 1'000'000;
    const int64_t sealed_rows = rng.Uniform(0, 200);
    const int64_t consuming_rows = rng.Uniform(0, 300);
    for (int64_t r = 0; r < sealed_rows + consuming_rows; ++r) {
      ASSERT_TRUE(partition.Ingest(RandomSealRow(rng, keys, k1_cardinality)).ok());
      if ((r < sealed_rows && rng.Chance(0.02)) || r + 1 == sealed_rows) {
        ASSERT_TRUE(partition.SealIfNeeded(true).ok());
      }
    }
    const bool sorted = !config.index_config.sorted_column.empty();
    std::vector<OlapQuery> queries;
    for (int q = 0; q < 4; ++q) {
      queries.push_back(RandomSealQuery(rng, k1_cardinality, /*allow_limit=*/!sorted));
    }
    auto merged = [&](const OlapQuery& query, bool force_scalar) {
      Result<std::vector<Row>> rows = MergedRows(partition, config, query, force_scalar);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      return rows.ok() ? std::move(rows.value()) : std::vector<Row>{};
    };

    std::vector<std::vector<Row>> consuming, consuming_scalar;
    for (const OlapQuery& query : queries) {
      consuming.push_back(merged(query, false));
      consuming_scalar.push_back(merged(query, true));
    }
    const int64_t segments_before = partition.NumSealedSegments();
    ASSERT_TRUE(partition.SealIfNeeded(true).ok());
    ASSERT_EQ(partition.NumSealedSegments(),
              segments_before + (consuming_rows > 0 ? 1 : 0));
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string where =
          "iteration " + std::to_string(iteration) + " query " + std::to_string(q);
      EXPECT_EQ(consuming_scalar[q], consuming[q]) << where << ": scalar oracle (consuming)";
      EXPECT_EQ(merged(queries[q], false), consuming[q]) << where << ": sealed";
      EXPECT_EQ(merged(queries[q], true), consuming[q]) << where << ": scalar oracle (sealed)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, SealInvarianceTest,
                         ::testing::Values(0xC0FFEEULL, 0x5EEDF00DULL));

}  // namespace
}  // namespace uberrt::olap
