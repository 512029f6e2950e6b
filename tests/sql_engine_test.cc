#include <gtest/gtest.h>

#include "compute/flink_sql.h"
#include "compute/window_operator.h"
#include "olap/cluster.h"
#include "olap/segment.h"
#include "sql/engine.h"
#include "storage/archive.h"
#include "stream/broker.h"

namespace uberrt::sql {
namespace {

using olap::ClusterTableOptions;
using olap::OlapCluster;
using olap::TableConfig;
using storage::ArchiveTable;
using storage::InMemoryObjectStore;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

/// Fixture: a Pinot-like `orders` table (fresh data) + a Hive-like
/// `restaurants` dimension table (archived data) — the classic Section 4.3.2
/// federation target.
class PrestoEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<InMemoryObjectStore>();
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get());

    TopicConfig topic;
    topic.num_partitions = 2;
    ASSERT_TRUE(broker_->CreateTopic("orders_raw", topic).ok());
    TableConfig table;
    table.name = "orders";
    table.schema = RowSchema({{"order_id", ValueType::kInt},
                              {"restaurant_id", ValueType::kInt},
                              {"total", ValueType::kDouble},
                              {"status", ValueType::kString}});
    table.segment_rows_threshold = 40;
    table.index_config.inverted_columns = {"restaurant_id"};
    ASSERT_TRUE(cluster_->CreateTable(table, "orders_raw").ok());
    for (int i = 0; i < 100; ++i) {
      Message m;
      m.key = std::to_string(i % 5);
      m.value = EncodeRow({Value(static_cast<int64_t>(i)),
                           Value(static_cast<int64_t>(i % 5)),
                           Value(10.0 + i % 4),
                           Value(i % 10 == 0 ? std::string("abandoned")
                                             : std::string("delivered"))});
      m.timestamp = 1;
      ASSERT_TRUE(broker_->Produce("orders_raw", std::move(m)).ok());
    }
    ASSERT_TRUE(cluster_->IngestAll("orders").ok());

    // Hive-like dimension table.
    restaurants_ = std::make_unique<ArchiveTable>(
        store_.get(), "restaurants",
        RowSchema({{"restaurant_id", ValueType::kInt}, {"name", ValueType::kString},
                   {"city", ValueType::kString}}));
    std::vector<Row> dim;
    const char* cities[] = {"sf", "sf", "nyc", "nyc", "la"};
    for (int64_t r = 0; r < 5; ++r) {
      dim.push_back({Value(r), Value("rest" + std::to_string(r)),
                     Value(std::string(cities[r]))});
    }
    ASSERT_TRUE(restaurants_->AppendBatch("all", dim).ok());

    catalog_.Register("orders", std::make_unique<OlapConnector>(cluster_.get(), "orders"));
    catalog_.Register("restaurants",
                      std::make_unique<ArchiveConnector>(restaurants_.get()));
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<InMemoryObjectStore> store_;
  std::unique_ptr<OlapCluster> cluster_;
  std::unique_ptr<ArchiveTable> restaurants_;
  Catalog catalog_;
};

TEST_F(PrestoEngineTest, SimpleProjectionAndFilter) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT order_id, total FROM orders WHERE restaurant_id = 2 LIMIT 100");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), 20u);
  EXPECT_EQ(result.value().schema.FieldIndex("total"), 1);
}

TEST_F(PrestoEngineTest, AggregationWithGroupByOrderLimit) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT restaurant_id, COUNT(*) AS n, SUM(total) AS sales FROM orders "
      "WHERE status = 'delivered' GROUP BY restaurant_id ORDER BY sales DESC "
      "LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  // Descending by sales.
  EXPECT_GE(result.value().rows[0][2].ToNumeric(),
            result.value().rows[1][2].ToNumeric());
  // Restaurant 0 lost its i%10==0 orders to the filter.
  for (const Row& row : result.value().rows) {
    if (row[0].AsInt() == 0) {
      EXPECT_EQ(row[1].AsInt(), 10);
    } else {
      EXPECT_EQ(row[1].AsInt(), 20);
    }
  }
}

TEST_F(PrestoEngineTest, PushdownLevelsAgreeButMoveDifferentAmounts) {
  const std::string sql =
      "SELECT restaurant_id, COUNT(*) AS n FROM orders "
      "WHERE restaurant_id = 1 GROUP BY restaurant_id";
  PrestoEngine none(&catalog_, PushdownLevel::kNone);
  PrestoEngine predicate(&catalog_, PushdownLevel::kPredicate);
  PrestoEngine full(&catalog_, PushdownLevel::kFull);

  Result<QueryResult> r_none = none.Execute(sql);
  Result<QueryResult> r_pred = predicate.Execute(sql);
  Result<QueryResult> r_full = full.Execute(sql);
  ASSERT_TRUE(r_none.ok());
  ASSERT_TRUE(r_pred.ok());
  ASSERT_TRUE(r_full.ok());
  // Identical answers.
  ASSERT_EQ(r_none.value().rows.size(), 1u);
  EXPECT_EQ(r_none.value().rows, r_pred.value().rows);
  EXPECT_EQ(r_none.value().rows, r_full.value().rows);
  EXPECT_EQ(r_none.value().rows[0][1].AsInt(), 20);
  // Data movement strictly shrinks with pushdown.
  EXPECT_EQ(r_none.value().stats.rows_fetched, 100);   // full scan
  EXPECT_EQ(r_pred.value().stats.rows_fetched, 20);    // filtered at source
  EXPECT_EQ(r_full.value().stats.rows_fetched, 1);     // aggregated at source
  EXPECT_FALSE(r_none.value().stats.aggregation_pushed);
  EXPECT_FALSE(r_pred.value().stats.aggregation_pushed);
  EXPECT_TRUE(r_full.value().stats.aggregation_pushed);
}

TEST_F(PrestoEngineTest, JoinPinotWithHiveDimensionTable) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT r.city, SUM(o.total) AS sales FROM orders o "
      "JOIN restaurants r ON o.restaurant_id = r.restaurant_id "
      "GROUP BY r.city ORDER BY sales DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);  // sf, nyc, la
  double total = 0;
  for (const Row& row : result.value().rows) total += row[1].ToNumeric();
  // Every order joined exactly once: sum of all totals.
  double expected = 0;
  for (int i = 0; i < 100; ++i) expected += 10.0 + i % 4;
  EXPECT_DOUBLE_EQ(total, expected);
}

TEST_F(PrestoEngineTest, SubqueryFeedsOuterQuery) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT city FROM (SELECT r.city AS city, COUNT(*) AS n FROM orders o "
      "JOIN restaurants r ON o.restaurant_id = r.restaurant_id GROUP BY r.city) t "
      "WHERE n >= 40 ORDER BY city ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // sf: restaurants 0,1 -> 40 orders; nyc: 2,3 -> 40; la: 1 restaurant -> 20.
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "nyc");
  EXPECT_EQ(result.value().rows[1][0].AsString(), "sf");
}

TEST_F(PrestoEngineTest, HavingFiltersAggregatedRows) {
  PrestoEngine engine(&catalog_, PushdownLevel::kPredicate);
  Result<QueryResult> result = engine.Execute(
      "SELECT status, COUNT(*) AS n FROM orders GROUP BY status HAVING n > 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "delivered");
}

TEST_F(PrestoEngineTest, ExpressionsInSelectList) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "SELECT order_id, total * 2 AS doubled FROM orders WHERE order_id < 3 "
      "ORDER BY order_id ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].ToNumeric(), 20.0);
}

TEST_F(PrestoEngineTest, ErrorsSurfaceCleanly) {
  PrestoEngine engine(&catalog_);
  EXPECT_FALSE(engine.Execute("SELECT x FROM missing_table").ok());
  EXPECT_FALSE(engine.Execute("SELECT missing_col FROM orders").ok());
  EXPECT_FALSE(engine
                   .Execute("SELECT COUNT(*) FROM orders GROUP BY "
                            "TUMBLE(ts, INTERVAL '1' MINUTE)")
                   .ok());  // streaming windows belong to FlinkSQL
  EXPECT_FALSE(engine.Execute("SELECT status, COUNT(*) FROM orders").ok());
}

TEST_F(PrestoEngineTest, GlobalAggregateOverEmptyMatchIsZero) {
  PrestoEngine engine(&catalog_);
  Result<QueryResult> result =
      engine.Execute("SELECT COUNT(*) AS n FROM orders WHERE restaurant_id = 777");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 0);
}

TEST_F(PrestoEngineTest, EmptyGroupedAggregateTypesMatchPushdown) {
  const std::string sql =
      "SELECT restaurant_id, COUNT(*) AS n, SUM(total) AS sales FROM orders "
      "WHERE restaurant_id = 777 GROUP BY restaurant_id";
  PrestoEngine local(&catalog_, PushdownLevel::kNone);
  PrestoEngine pushed(&catalog_, PushdownLevel::kFull);
  Result<QueryResult> r_local = local.Execute(sql);
  Result<QueryResult> r_pushed = pushed.Execute(sql);
  ASSERT_TRUE(r_local.ok()) << r_local.status().ToString();
  ASSERT_TRUE(r_pushed.ok()) << r_pushed.status().ToString();
  EXPECT_TRUE(r_local.value().rows.empty());
  EXPECT_TRUE(r_pushed.value().rows.empty());
  EXPECT_FALSE(r_local.value().stats.aggregation_pushed);
  EXPECT_TRUE(r_pushed.value().stats.aggregation_pushed);
  EXPECT_EQ(r_local.value().schema.fields()[1].type, ValueType::kInt);
  EXPECT_EQ(r_local.value().schema.fields()[2].type, ValueType::kDouble);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(r_local.value().schema.fields()[i], r_pushed.value().schema.fields()[i]);
  }
}

// --- One aggregate across the engines -----------------------------------------
//
// FlinkSQL's window aggregation, Pinot-style segments (vectorized and scalar)
// and Presto's in-memory aggregation all run the one AggAccumulator, so the
// same rows give bitwise-identical COUNT/SUM/MIN/MAX/AVG. NULL and string
// cells read as 0 in every engine. Values are dyadic so no engine's
// summation order can round differently.

RowSchema AggSchema() {
  return RowSchema({{"k", ValueType::kString}, {"v", ValueType::kDouble}});
}

std::vector<Row> AggRows() {
  std::vector<Row> rows;
  const double values[] = {1.5, -3.25, 0.125, 1024.0, -0.5, 7.75, 2.0, -64.0, 0.0625};
  for (int i = 0; i < 27; ++i) {
    Value v(values[i % 9]);
    if (i % 7 == 3) v = Value::Null();
    if (i % 11 == 5) v = Value("12");  // a string cell aggregates as 0
    rows.push_back({Value(i % 3 == 0 ? "a" : "b"), std::move(v)});
  }
  return rows;
}

const std::vector<AggregateSpec>& AllAggregates() {
  static const std::vector<AggregateSpec> aggs = {
      AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s"), AggregateSpec::Min("v", "lo"),
      AggregateSpec::Max("v", "hi"), AggregateSpec::Avg("v", "avg")};
  return aggs;
}

const char* kAggSql = "SELECT k, COUNT(*) AS n, sUm(v) AS s, min(v) AS lo, Max(v) AS hi, "
                      "AVG(v) AS avg FROM t";

/// Finished rows [k, n, s, lo, hi, avg] keyed by k.
using AggByKey = std::map<std::string, Row>;

AggByKey WindowAggregate(const std::vector<Row>& rows) {
  compute::TransformSpec spec;
  spec.kind = compute::TransformSpec::Kind::kWindowAggregate;
  spec.key_fields = {"k"};
  spec.window = compute::WindowSpec::Tumbling(1'000'000);
  spec.aggregates = AllAggregates();
  compute::WindowAggregateOperator op(spec, AggSchema());
  struct Collect : compute::Emitter {
    void Emit(Row row, TimestampMs) override { out.push_back(std::move(row)); }
    std::vector<Row> out;
  } emitter;
  for (size_t i = 0; i < rows.size(); ++i) {
    op.ProcessRecord(compute::Element::Record(rows[i], static_cast<TimestampMs>(i)), &emitter);
  }
  op.OnWatermark(compute::kMaxWatermark, &emitter);
  AggByKey result;
  for (Row& row : emitter.out) {
    row.erase(row.begin() + 1);  // window_start
    result[row[0].AsString()] = std::move(row);
  }
  return result;
}

Result<AggByKey> SegmentAggregate(const std::vector<Row>& rows, bool force_scalar,
                                  const std::vector<olap::FilterPredicate>& filters) {
  Result<std::shared_ptr<olap::Segment>> segment =
      olap::Segment::Build("agg", AggSchema(), rows, {});
  if (!segment.ok()) return segment.status();
  olap::OlapQuery query;
  query.aggregations = AllAggregates();
  query.filters = filters;
  query.group_by = {"k"};
  query.force_scalar = force_scalar;
  if (!filters.empty()) query.group_by.clear();  // global: one row even when empty
  olap::OlapQueryStats stats;
  Result<olap::OlapResult> partial = segment.value()->Execute(query, nullptr, &stats);
  if (!partial.ok()) return partial.status();
  Result<olap::OlapResult> merged =
      olap::MergeAndFinalize(query, AggSchema(), std::move(partial.value().rows));
  if (!merged.ok()) return merged.status();
  AggByKey result;
  for (Row& row : merged.value().rows) {
    if (query.group_by.empty()) row.insert(row.begin(), Value(""));
    result[row[0].AsString()] = std::move(row);
  }
  return result;
}

Result<AggByKey> PrestoAggregate(const std::vector<Row>& rows, const std::string& where) {
  InMemoryObjectStore store;
  ArchiveTable table(&store, "t", AggSchema());
  UBERRT_RETURN_IF_ERROR(table.AppendBatch("all", rows));
  Catalog catalog;
  catalog.Register("t", std::make_unique<ArchiveConnector>(&table));
  PrestoEngine engine(&catalog);
  std::string sql = kAggSql;
  if (where.empty()) {
    sql += " GROUP BY k";
  } else {
    sql = "SELECT COUNT(*) AS n, sUm(v) AS s, min(v) AS lo, Max(v) AS hi, AVG(v) AS avg "
          "FROM t WHERE " + where;
  }
  Result<QueryResult> result = engine.Execute(sql);
  if (!result.ok()) return result.status();
  if (result.value().stats.aggregation_pushed) return Status::Internal("not in memory");
  for (size_t i = 0; i < AllAggregates().size(); ++i) {
    const FieldSpec& field = result.value().schema.fields()[result.value().schema.NumFields() -
                                                            AllAggregates().size() + i];
    if (field.type != AllAggregates()[i].ResultType()) return Status::Internal("type");
  }
  AggByKey by_key;
  for (Row& row : result.value().rows) {
    if (!where.empty()) row.insert(row.begin(), Value(""));
    by_key[row[0].AsString()] = std::move(row);
  }
  return by_key;
}

/// Bitwise equality: Value == compares doubles by value, so -0.0 == 0.0.
void ExpectBitwiseEqual(const AggByKey& expected, const AggByKey& actual,
                        const std::string& engine) {
  ASSERT_EQ(expected.size(), actual.size()) << engine;
  for (const auto& [key, row] : expected) {
    ASSERT_EQ(actual.count(key), 1u) << engine << " key " << key;
    EXPECT_EQ(EncodeRow(row), EncodeRow(actual.at(key))) << engine << " key " << key;
  }
}

TEST(CrossEngineAggregateTest, SameRowsSameBits) {
  const std::vector<Row> rows = AggRows();
  AggByKey window = WindowAggregate(rows);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window["a"][1].AsInt(), 9);
  for (bool force_scalar : {false, true}) {
    Result<AggByKey> segment = SegmentAggregate(rows, force_scalar, {});
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ExpectBitwiseEqual(window, segment.value(), force_scalar ? "scalar" : "vectorized");
  }
  Result<AggByKey> presto = PrestoAggregate(rows, "");
  ASSERT_TRUE(presto.ok()) << presto.status().ToString();
  ExpectBitwiseEqual(window, presto.value(), "presto");
}

TEST(CrossEngineAggregateTest, EmptyInputFinishesToZeros) {
  // A window never fires without input; what it would finish is the empty
  // accumulator, which the segment and Presto global aggregates return.
  Row expected{Value("")};
  for (const AggregateSpec& agg : AllAggregates()) {
    expected.push_back(AggAccumulator().Finish(agg.kind));
  }
  const AggByKey empty{{"", expected}};
  for (bool force_scalar : {false, true}) {
    Result<AggByKey> segment = SegmentAggregate(
        AggRows(), force_scalar, {olap::FilterPredicate::Eq("k", Value("none"))});
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ExpectBitwiseEqual(empty, segment.value(), force_scalar ? "scalar" : "vectorized");
  }
  Result<AggByKey> presto = PrestoAggregate(AggRows(), "k = 'none'");
  ASSERT_TRUE(presto.ok()) << presto.status().ToString();
  ExpectBitwiseEqual(empty, presto.value(), "presto");
  EXPECT_TRUE(WindowAggregate({}).empty());
}

TEST(CrossEngineAggregateTest, AggregateNamesParseInAnyCase) {
  EXPECT_EQ(ParseAggregateKind("count"), AggregateSpec::Kind::kCount);
  EXPECT_EQ(ParseAggregateKind("CoUnT"), AggregateSpec::Kind::kCount);
  EXPECT_EQ(ParseAggregateKind("sum"), AggregateSpec::Kind::kSum);
  EXPECT_EQ(ParseAggregateKind("Min"), AggregateSpec::Kind::kMin);
  EXPECT_EQ(ParseAggregateKind("mAX"), AggregateSpec::Kind::kMax);
  EXPECT_EQ(ParseAggregateKind("AVG"), AggregateSpec::Kind::kAvg);
  EXPECT_FALSE(ParseAggregateKind("").has_value());
  EXPECT_FALSE(ParseAggregateKind("COUNTS").has_value());
  EXPECT_FALSE(ParseAggregateKind("MEDIAN").has_value());
  EXPECT_FALSE(ParseAggregateKind("AV").has_value());
}

TEST(CrossEngineAggregateTest, UnknownAggregateRejectedAlikeByFlinkSqlAndPresto) {
  RowSchema schema({{"k", ValueType::kString}, {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  Result<compute::JobGraph> flink = compute::CompileStreamingSql(
      "SELECT k, COUNT(*) AS n, MEDIAN(v) AS m FROM t "
      "GROUP BY k, TUMBLE(ts, INTERVAL '1' MINUTE)",
      schema);
  InMemoryObjectStore store;
  ArchiveTable table(&store, "t", schema);
  ASSERT_TRUE(table.AppendBatch("all", {{Value("a"), Value(1.0), Value(int64_t{1})}}).ok());
  Catalog catalog;
  catalog.Register("t", std::make_unique<ArchiveConnector>(&table));
  PrestoEngine engine(&catalog);
  Result<QueryResult> presto =
      engine.Execute("SELECT k, COUNT(*) AS n, MEDIAN(v) AS m FROM t GROUP BY k");
  ASSERT_FALSE(flink.ok());
  ASSERT_FALSE(presto.ok());
  EXPECT_EQ(flink.status().ToString(), presto.status().ToString());
  EXPECT_NE(flink.status().ToString().find("unsupported aggregate: MEDIAN(v)"),
            std::string::npos)
      << flink.status().ToString();
}

TEST(PrestoGroupByTest, DistinctDoubleKeysThatPrintAlikeStayApart) {
  // 1.0000001 and 1.0000002 print alike at 6 significant digits; the groups
  // must still be told apart, as the OLAP broker merge does.
  RowSchema schema({{"k", ValueType::kDouble}, {"v", ValueType::kInt}});
  InMemoryObjectStore store;
  ArchiveTable table(&store, "t", schema);
  ASSERT_TRUE(table
                  .AppendBatch("all", {{Value(1.0000001), Value(int64_t{1})},
                                       {Value(1.0000002), Value(int64_t{2})},
                                       {Value(1.0000002), Value(int64_t{3})}})
                  .ok());
  Catalog catalog;
  catalog.Register("t", std::make_unique<ArchiveConnector>(&table));
  PrestoEngine engine(&catalog);
  Result<QueryResult> result =
      engine.Execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k ASC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsDouble(), 1.0000001);
  EXPECT_EQ(result.value().rows[0][1].AsInt(), 1);
  EXPECT_EQ(result.value().rows[1][0].AsDouble(), 1.0000002);
  EXPECT_EQ(result.value().rows[1][1].AsInt(), 2);
}

TEST(PrestoJoinTest, EqualKeysThatPrintDifferentlyMeet) {
  // -0.0 = 0.0 and INT 1 = DOUBLE 1.0 under `=`, though each pair prints
  // differently; the hash join must bucket them together. Keys that print
  // alike but differ (1.0000001, 1.0000002) must still not join.
  RowSchema left_schema({{"k", ValueType::kDouble}, {"name", ValueType::kString}});
  RowSchema right_schema({{"k", ValueType::kInt}, {"label", ValueType::kString}});
  RowSchema right_double_schema({{"k", ValueType::kDouble}, {"label", ValueType::kString}});
  InMemoryObjectStore store;
  ArchiveTable a(&store, "a", left_schema);
  ArchiveTable b(&store, "b", right_schema);
  ArchiveTable c(&store, "c", right_double_schema);
  ASSERT_TRUE(a.AppendBatch("all", {{Value(-0.0), Value("minus_zero")},
                                    {Value(1.0), Value("one")},
                                    {Value(1.0000001), Value("close")}})
                  .ok());
  ASSERT_TRUE(b.AppendBatch("all", {{Value(int64_t{0}), Value("int_zero")},
                                    {Value(int64_t{1}), Value("int_one")}})
                  .ok());
  ASSERT_TRUE(c.AppendBatch("all", {{Value(0.0), Value("zero")},
                                    {Value(1.0000002), Value("not_close")}})
                  .ok());
  Catalog catalog;
  catalog.Register("a", std::make_unique<ArchiveConnector>(&a));
  catalog.Register("b", std::make_unique<ArchiveConnector>(&b));
  catalog.Register("c", std::make_unique<ArchiveConnector>(&c));
  PrestoEngine engine(&catalog);

  Result<QueryResult> with_ints = engine.Execute(
      "SELECT l.name, r.label FROM a l JOIN b r ON l.k = r.k ORDER BY name ASC");
  ASSERT_TRUE(with_ints.ok()) << with_ints.status().ToString();
  ASSERT_EQ(with_ints.value().rows.size(), 2u);
  EXPECT_EQ(with_ints.value().rows[0][0].AsString(), "minus_zero");
  EXPECT_EQ(with_ints.value().rows[0][1].AsString(), "int_zero");
  EXPECT_EQ(with_ints.value().rows[1][0].AsString(), "one");
  EXPECT_EQ(with_ints.value().rows[1][1].AsString(), "int_one");

  Result<QueryResult> with_doubles =
      engine.Execute("SELECT l.name, r.label FROM a l JOIN c r ON l.k = r.k");
  ASSERT_TRUE(with_doubles.ok()) << with_doubles.status().ToString();
  ASSERT_EQ(with_doubles.value().rows.size(), 1u);
  EXPECT_EQ(with_doubles.value().rows[0][0].AsString(), "minus_zero");
  EXPECT_EQ(with_doubles.value().rows[0][1].AsString(), "zero");
}

}  // namespace
}  // namespace uberrt::sql
