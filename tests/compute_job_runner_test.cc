#include "compute/job_runner.h"

#include <gtest/gtest.h>

#include <mutex>

#include "stream/broker.h"

namespace uberrt::compute {
namespace {

using stream::AckMode;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema TripSchema() {
  return RowSchema({{"hex", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

Message TripMessage(const std::string& hex, double fare, int64_t ts) {
  Message m;
  m.key = hex;
  m.value = EncodeRow({Value(hex), Value(fare), Value(ts)});
  m.timestamp = ts;
  return m;
}

class JobRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("cluster1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("trips", config).ok());
  }

  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
};

TEST_F(JobRunnerTest, MapFilterPipelineDeliversAllRows) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        broker_->Produce("trips", TripMessage("hex" + std::to_string(i % 7), i, 1000 + i))
            .ok());
  }
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("map_filter");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source)
      .Filter("cheap", [](const Row& r) { return r[1].ToNumeric() < 50.0; })
      .Map(
          "double_fare",
          [](const Row& r) {
            return Row{r[0], Value(r[1].ToNumeric() * 2.0), r[2]};
          },
          TripSchema())
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(results.size(), 50u);
  EXPECT_EQ(runner.RecordsIn(), 100);
  EXPECT_EQ(runner.RecordsOut(), 50);
  for (const Row& r : results) EXPECT_LT(r[1].ToNumeric(), 100.0);
}

TEST_F(JobRunnerTest, TumblingWindowCountsPerKey) {
  // 2 keys x 3 windows x 10 records.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 10; ++i) {
      int64_t ts = w * 60000 + i * 100;
      ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, ts)).ok());
      ASSERT_TRUE(broker_->Produce("trips", TripMessage("B", 2.0, ts)).ok());
    }
  }
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("windowed");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source)
      .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(60000),
                       {AggregateSpec::Count("n"), AggregateSpec::Sum("fare", "total"),
                        AggregateSpec::Avg("fare", "avg_fare")},
                       /*allowed_lateness_ms=*/0, /*parallelism=*/2)
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());

  ASSERT_EQ(results.size(), 6u);  // 2 keys x 3 windows
  for (const Row& r : results) {
    // [hex, window_start, n, total, avg]
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r[2].AsInt(), 10);
    if (r[0].AsString() == "A") {
      EXPECT_DOUBLE_EQ(r[3].AsDouble(), 10.0);
      EXPECT_DOUBLE_EQ(r[4].AsDouble(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(r[3].AsDouble(), 20.0);
      EXPECT_DOUBLE_EQ(r[4].AsDouble(), 2.0);
    }
  }
}

TEST_F(JobRunnerTest, CheckpointRestartResumesWithoutDuplicateState) {
  std::mutex mu;
  std::vector<Row> results;
  auto make_graph = [&] {
    JobGraph graph("chk");
    SourceSpec source;
    source.topic = "trips";
    source.schema = TripSchema();
    source.time_field = "ts";
    graph.AddSource(source)
        .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(60000),
                         {AggregateSpec::Count("n")})
        .SinkToCollector([&](const Row& row, TimestampMs) {
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(row);
        });
    return graph;
  };

  // Phase 1: half the data, checkpoint, crash.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 1000 + i)).ok());
  }
  {
    JobRunner runner(make_graph(), broker_.get(), store_.get());
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
    Result<int64_t> seq = runner.TriggerCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    runner.Cancel();  // crash: window never fired, no output
  }
  EXPECT_TRUE(results.empty());

  // Phase 2: rest of the data, restore, finish.
  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 1000 + i)).ok());
  }
  {
    JobRunner runner(make_graph(), broker_.get(), store_.get());
    ASSERT_TRUE(runner.RestoreFromCheckpoint().ok());
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][2].AsInt(), 100);  // exactly-once state across restart
}

TEST_F(JobRunnerTest, WindowJoinMatchesWithinWindow) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker_->CreateTopic("predictions", config).ok());
  ASSERT_TRUE(broker_->CreateTopic("outcomes", config).ok());

  RowSchema pred_schema({{"model", ValueType::kString},
                         {"predicted", ValueType::kDouble},
                         {"ts", ValueType::kInt}});
  RowSchema outcome_schema({{"model", ValueType::kString},
                            {"actual", ValueType::kDouble},
                            {"ts2", ValueType::kInt}});
  for (int i = 0; i < 20; ++i) {
    Message p;
    p.key = "m" + std::to_string(i % 2);
    p.value = EncodeRow({Value(p.key), Value(0.5 + i), Value(static_cast<int64_t>(1000 + i))});
    p.timestamp = 1000 + i;
    ASSERT_TRUE(broker_->Produce("predictions", p).ok());
    Message o;
    o.key = p.key;
    o.value = EncodeRow({Value(o.key), Value(0.4 + i), Value(static_cast<int64_t>(1001 + i))});
    o.timestamp = 1001 + i;
    ASSERT_TRUE(broker_->Produce("outcomes", o).ok());
  }

  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("join");
  SourceSpec left;
  left.topic = "predictions";
  left.schema = pred_schema;
  left.time_field = "ts";
  SourceSpec right;
  right.topic = "outcomes";
  right.schema = outcome_schema;
  right.time_field = "ts2";
  graph.AddSource(left).AddSource(right);
  graph.WindowJoin("join", {"model"}, WindowSpec::Tumbling(60000));
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  // All records share one window; 10 left x 10 right per key.
  EXPECT_EQ(results.size(), 200u);
  // Joined row: model, predicted, ts, actual, ts2.
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].size(), 5u);
}

TEST_F(JobRunnerTest, LateRecordsAreDropped) {
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("late");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source)
      .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(1000),
                       {AggregateSpec::Count("n")})
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  // Window [0,1000) then jump to 5000 (fires it), then a late record at 500.
  ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 100)).ok());
  ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 5000)).ok());
  ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
  ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 500)).ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.LateDropped(), 1);
  // Two windows fired: [0,1000) with 1 record, [5000,6000) with 1.
  EXPECT_EQ(results.size(), 2u);
}

// The tail of a burst closes its window without later traffic: the poll that
// reads the records also carries their watermark.
TEST_F(JobRunnerTest, WindowFiresOnceItsRecordsAreRead) {
  // Event times 0..1350: 7 records in [0,1000), 3 in [1000,2000).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, i * 150)).ok());
  }
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("tail");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source)
      .WindowAggregate("agg", {"hex"}, WindowSpec::Tumbling(1000),
                       {AggregateSpec::Count("n")})
      .SinkToCollector([&](const Row& row, TimestampMs) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(row);
      });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0][1].AsInt(), 0);  // window start
    EXPECT_EQ(results[0][2].AsInt(), 7);
  }
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1][2].AsInt(), 3);
}

// Both inputs' tails move the join's watermark past the first window, so a
// record for that window arriving afterwards is late on either side.
TEST_F(JobRunnerTest, WindowJoinClosesOnceBothInputsAreRead) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker_->CreateTopic("predictions", config).ok());
  ASSERT_TRUE(broker_->CreateTopic("outcomes", config).ok());
  RowSchema pred_schema({{"model", ValueType::kString},
                         {"predicted", ValueType::kDouble},
                         {"ts", ValueType::kInt}});
  RowSchema outcome_schema({{"model", ValueType::kString},
                            {"actual", ValueType::kDouble},
                            {"ts2", ValueType::kInt}});
  auto produce = [&](const std::string& topic, double v, int64_t ts) {
    Message m;
    m.key = "m0";
    m.value = EncodeRow({Value(m.key), Value(v), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(broker_->Produce(topic, m).ok());
  };
  // Per side, 7 records in [0,1000) and 3 in [1000,2000).
  for (int i = 0; i < 10; ++i) {
    produce("predictions", 0.5 + i, i * 150);
    produce("outcomes", 0.4 + i, i * 150 + 1);
  }

  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("join_tail");
  SourceSpec left;
  left.topic = "predictions";
  left.schema = pred_schema;
  left.time_field = "ts";
  SourceSpec right;
  right.topic = "outcomes";
  right.schema = outcome_schema;
  right.time_field = "ts2";
  graph.AddSource(left).AddSource(right);
  graph.WindowJoin("join", {"model"}, WindowSpec::Tumbling(1000));
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
  produce("predictions", 100.0, 500);
  produce("outcomes", 100.0, 500);
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.LateDropped(), 2);
  EXPECT_EQ(results.size(), 7u * 7u + 3u * 3u);
}

TEST_F(JobRunnerTest, CorruptMessagesCountedNotFatal) {
  Message bad;
  bad.value = "not-a-row";
  ASSERT_TRUE(broker_->Produce("trips", bad).ok());
  ASSERT_TRUE(broker_->Produce("trips", TripMessage("A", 1.0, 100)).ok());

  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("corrupt");
  SourceSpec source;
  source.topic = "trips";
  source.schema = TripSchema();
  source.time_field = "ts";
  graph.AddSource(source).SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  JobRunner runner(graph, broker_.get(), store_.get());
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(runner.DecodeErrors(), 1);
  EXPECT_EQ(results.size(), 1u);
}

}  // namespace
}  // namespace uberrt::compute
