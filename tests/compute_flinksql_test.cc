#include <gtest/gtest.h>

#include <mutex>

#include "compute/flink_sql.h"
#include "compute/job_runner.h"
#include "stream/broker.h"

namespace uberrt::compute {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema OrderSchema() {
  return RowSchema({{"restaurant", ValueType::kString},
                    {"total", ValueType::kDouble},
                    {"status", ValueType::kString},
                    {"ts", ValueType::kInt}});
}

class FlinkSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    TopicConfig config;
    config.num_partitions = 2;
    ASSERT_TRUE(broker_->CreateTopic("orders", config).ok());
  }

  void ProduceOrder(const std::string& restaurant, double total,
                    const std::string& status, int64_t ts) {
    Message m;
    m.key = restaurant;
    m.value = EncodeRow({Value(restaurant), Value(total), Value(status), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(broker_->Produce("orders", std::move(m)).ok());
  }

  std::vector<Row> RunBounded(const JobGraph& graph) {
    std::mutex mu;
    std::vector<Row> results;
    JobGraph with_sink = graph;
    with_sink.SinkToCollector([&](const Row& row, TimestampMs) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(row);
    });
    JobRunner runner(with_sink, broker_.get(), store_.get());
    EXPECT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    EXPECT_TRUE(runner.AwaitTermination(10000).ok());
    return results;
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
};

TEST_F(FlinkSqlTest, ProjectionAndFilterCompile) {
  ProduceOrder("r1", 10.0, "delivered", 100);
  ProduceOrder("r2", 30.0, "abandoned", 200);
  ProduceOrder("r3", 50.0, "delivered", 300);
  Result<JobGraph> graph = CompileStreamingSql(
      "SELECT restaurant, total * 2 AS doubled FROM orders "
      "WHERE status = 'delivered' AND total > 20",
      OrderSchema());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<Row> rows = RunBounded(graph.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "r3");
  EXPECT_DOUBLE_EQ(rows[0][1].ToNumeric(), 100.0);
}

TEST_F(FlinkSqlTest, WindowedAggregationCompiles) {
  // Two windows of one minute; two restaurants.
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 5; ++i) {
      ProduceOrder("r1", 10.0, "delivered", w * 60000 + i * 100);
      ProduceOrder("r2", 20.0, "delivered", w * 60000 + i * 100);
    }
  }
  Result<JobGraph> graph = CompileStreamingSql(
      "SELECT restaurant, window_start, COUNT(*) AS n, SUM(total) AS sales "
      "FROM orders GROUP BY restaurant, TUMBLE(ts, INTERVAL '1' MINUTE)",
      OrderSchema());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<Row> rows = RunBounded(graph.value());
  ASSERT_EQ(rows.size(), 4u);  // 2 restaurants x 2 windows
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 4u);  // select order: restaurant, window_start, n, sales
    EXPECT_EQ(row[2].AsInt(), 5);
    if (row[0].AsString() == "r1") {
      EXPECT_DOUBLE_EQ(row[3].AsDouble(), 50.0);
    }
  }
}

TEST_F(FlinkSqlTest, RollupSinkTopicMatchesAcrossPerRecordAndBatchedPaths) {
  // Six one-minute windows over five restaurants, some orders abandoned.
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 40; ++i) {
      ProduceOrder("r" + std::to_string((i * 7 + w) % 5), 5.0 + i,
                   i % 6 == 0 ? "abandoned" : "delivered", w * 60000 + i * 1000);
    }
  }
  Result<JobGraph> graph = CompileStreamingSql(
      "SELECT restaurant, window_start, COUNT(*) AS n, SUM(total) AS sales "
      "FROM orders WHERE status <> 'abandoned' "
      "GROUP BY restaurant, TUMBLE(ts, INTERVAL '1' MINUTE)",
      OrderSchema());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::vector<Row> collected = RunBounded(graph.value());
  ASSERT_EQ(collected.size(), 30u);  // 5 restaurants x 6 windows

  constexpr int32_t kSinkPartitions = 3;
  auto run_to_topic = [&](const std::string& topic, size_t max_batch_records) {
    TopicConfig config;
    config.num_partitions = kSinkPartitions;
    ASSERT_TRUE(broker_->CreateTopic(topic, config).ok());
    JobGraph with_sink = graph.value();
    with_sink.SinkToTopic(topic);
    JobRunnerOptions options;
    options.max_batch_records = max_batch_records;
    JobRunner runner(with_sink, broker_.get(), store_.get(), options);
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  };
  run_to_topic("rollup_per_record", 1);
  run_to_topic("rollup_batched", JobRunnerOptions().max_batch_records);

  size_t sunk = 0;
  for (int32_t p = 0; p < kSinkPartitions; ++p) {
    Result<stream::FetchedBatch> per_record =
        broker_->FetchViews("rollup_per_record", p, 0, 1000);
    Result<stream::FetchedBatch> batched = broker_->FetchViews("rollup_batched", p, 0, 1000);
    ASSERT_TRUE(per_record.ok());
    ASSERT_TRUE(batched.ok());
    ASSERT_EQ(per_record.value().size(), batched.value().size()) << "partition " << p;
    for (size_t i = 0; i < batched.value().size(); ++i) {
      const stream::wire::MessageView& a = per_record.value().messages[i];
      const stream::wire::MessageView& b = batched.value().messages[i];
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.timestamp, b.timestamp);
      // Round-robin per row: the sink's i-th row of partition p is result
      // row i * partitions + p, in the order the job emitted them.
      size_t row_index = i * kSinkPartitions + static_cast<size_t>(p);
      ASSERT_LT(row_index, collected.size());
      EXPECT_EQ(DecodeRow(b.value).value(), collected[row_index]);
    }
    sunk += batched.value().size();
  }
  EXPECT_EQ(sunk, collected.size());
}

TEST_F(FlinkSqlTest, HavingBecomesPostAggregationFilter) {
  for (int i = 0; i < 6; ++i) ProduceOrder("big", 10.0, "delivered", 100 + i);
  ProduceOrder("small", 10.0, "delivered", 100);
  Result<JobGraph> graph = CompileStreamingSql(
      "SELECT restaurant, COUNT(*) AS n FROM orders "
      "GROUP BY restaurant, TUMBLE(ts, INTERVAL '1' MINUTE) HAVING n > 3",
      OrderSchema());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<Row> rows = RunBounded(graph.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "big");
}

TEST_F(FlinkSqlTest, SelectStarPassesThrough) {
  ProduceOrder("r1", 1.0, "delivered", 10);
  Result<JobGraph> graph = CompileStreamingSql("SELECT * FROM orders", OrderSchema());
  ASSERT_TRUE(graph.ok());
  std::vector<Row> rows = RunBounded(graph.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 4u);
}

TEST_F(FlinkSqlTest, StreamingSemanticsEnforced) {
  // ORDER BY / LIMIT are batch constructs (Section 4.2.1's semantics gap).
  EXPECT_FALSE(CompileStreamingSql("SELECT restaurant FROM orders ORDER BY restaurant",
                                   OrderSchema())
                   .ok());
  EXPECT_FALSE(CompileStreamingSql("SELECT restaurant FROM orders LIMIT 5",
                                   OrderSchema())
                   .ok());
  // Aggregation without a window is unbounded state.
  EXPECT_FALSE(CompileStreamingSql("SELECT COUNT(*) FROM orders", OrderSchema()).ok());
  // GROUP BY column missing from schema.
  EXPECT_FALSE(CompileStreamingSql(
                   "SELECT nope, COUNT(*) FROM orders GROUP BY nope, "
                   "TUMBLE(ts, INTERVAL '1' MINUTE)",
                   OrderSchema())
                   .ok());
  // Joins are the API layer's job in this dialect.
  EXPECT_FALSE(CompileStreamingSql(
                   "SELECT a.x FROM t1 a JOIN t2 b ON a.x = b.x", OrderSchema())
                   .ok());
}

TEST_F(FlinkSqlTest, TopicOverrideRedirectsSource) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(broker_->CreateTopic("orders_replay", config).ok());
  Message m;
  m.value = EncodeRow({Value("rX"), Value(5.0), Value("delivered"),
                       Value(int64_t{42})});
  m.timestamp = 42;
  ASSERT_TRUE(broker_->Produce("orders_replay", std::move(m)).ok());
  FlinkSqlOptions options;
  options.topic_override = "orders_replay";
  Result<JobGraph> graph =
      CompileStreamingSql("SELECT restaurant FROM orders", OrderSchema(), options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().sources()[0].topic, "orders_replay");
  std::vector<Row> rows = RunBounded(graph.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "rX");
}

}  // namespace
}  // namespace uberrt::compute
