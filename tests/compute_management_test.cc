#include <gtest/gtest.h>

#include <mutex>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "compute/backfill.h"
#include "compute/baselines.h"
#include "compute/job_manager.h"
#include "stream/broker.h"
#include "workload/generators.h"

namespace uberrt::compute {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema EventSchema() {
  return RowSchema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

Message Event(const std::string& key, double v, int64_t ts) {
  Message m;
  m.key = key;
  m.value = EncodeRow({Value(key), Value(v), Value(ts)});
  m.timestamp = ts;
  return m;
}

/// Periodic checkpoints complete asynchronously: one sweep starts a barrier
/// round and a later sweep saves it. Ticks until the job's LATEST is a
/// sequence above `after`, and returns it.
int64_t TickUntilCheckpointed(JobManager* manager, storage::ObjectStore* store,
                              const std::string& id, int64_t after = 0) {
  CheckpointStore checkpoints(store, "checkpoints", id);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(manager->Tick().ok());
    Result<int64_t> latest = checkpoints.LatestSequence();
    if (latest.ok() && latest.value() > after) return latest.value();
    SystemClock::Instance()->SleepMs(1);
  }
  ADD_FAILURE() << "no checkpoint persisted for " << id;
  return 0;
}

class JobManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    manager_ = std::make_unique<JobManager>(broker_.get(), store_.get());
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("events", config).ok());
  }

  JobGraph CountingGraph(std::vector<Row>* results, std::mutex* mu) {
    JobGraph graph("counting");
    SourceSpec source;
    source.topic = "events";
    source.schema = EventSchema();
    source.time_field = "ts";
    graph.AddSource(source).WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(60000),
                                            {AggregateSpec::Count("n")});
    graph.SinkToCollector([results, mu](const Row& row, TimestampMs) {
      std::lock_guard<std::mutex> lock(*mu);
      results->push_back(row);
    });
    return graph;
  }

  // Declared first so it outlives the broker and runners that may hold it.
  common::FaultInjector faults_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<JobManager> manager_;
};

TEST_F(JobManagerTest, SubmitListAndLifecycle) {
  std::mutex mu;
  std::vector<Row> results;
  Result<std::string> id = manager_->Submit(CountingGraph(&results, &mu));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Result<JobInfo> info = manager_->GetJob(id.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, JobState::kRunning);
  EXPECT_TRUE(info.value().stateful);
  EXPECT_EQ(manager_->ListJobs().size(), 1u);
  ASSERT_TRUE(manager_->CancelJob(id.value()).ok());
  EXPECT_EQ(manager_->GetJob(id.value()).value().state, JobState::kCancelled);
  // Invalid graphs are rejected up front.
  EXPECT_FALSE(manager_->Submit(JobGraph("empty")).ok());
}

TEST_F(JobManagerTest, CrashedJobAutoRestartsFromCheckpointWithCorrectState) {
  std::mutex mu;
  std::vector<Row> results;
  Result<std::string> id = manager_->Submit(CountingGraph(&results, &mu));
  ASSERT_TRUE(id.ok());
  // Feed half the data, checkpoint via Tick, then crash it.
  for (int i = 0; i < 40; ++i) broker_->Produce("events", Event("A", 1.0, 1000 + i)).ok();
  JobRunner* runner = manager_->GetRunner(id.value());
  ASSERT_TRUE(runner->WaitUntilCaughtUp(10000).ok());
  ASSERT_GT(TickUntilCheckpointed(manager_.get(), store_.get(), id.value()), 0);

  // Crash via the fault plane: a one-shot "job.crash.<id>" rule. The same
  // Tick sweep that detects the dead runner restarts it from the checkpoint.
  common::FaultInjector faults;
  manager_->SetFaultInjector(&faults);
  common::FaultRule crash;
  crash.error_probability = 1.0;
  crash.max_triggers = 1;
  faults.SetRule("job.crash." + id.value(), crash);
  ASSERT_TRUE(manager_->Tick().ok());
  Result<JobInfo> info = manager_->GetJob(id.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, JobState::kRunning);
  EXPECT_EQ(info.value().restarts, 1);

  // Feed the rest; the window total must be exact (state survived).
  for (int i = 40; i < 80; ++i) broker_->Produce("events", Event("A", 1.0, 1000 + i)).ok();
  JobRunner* restarted = manager_->GetRunner(id.value());
  ASSERT_TRUE(restarted->WaitUntilCaughtUp(10000).ok());
  restarted->RequestFinish();
  ASSERT_TRUE(restarted->AwaitTermination(10000).ok());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0][2].AsInt(), 80);
}

TEST_F(JobManagerTest, LagTriggersAutoScaleWithStateRedistribution) {
  JobManagerOptions options;
  options.lag_scale_up_threshold = 100;
  options.max_parallelism = 4;
  manager_ = std::make_unique<JobManager>(broker_.get(), store_.get(), options);

  std::mutex mu;
  std::vector<Row> results;
  Result<std::string> id = manager_->Submit(CountingGraph(&results, &mu));
  ASSERT_TRUE(id.ok());
  // Let some state accumulate and checkpoint it at parallelism 1.
  for (int i = 0; i < 50; ++i) {
    broker_->Produce("events", Event("k" + std::to_string(i % 7), 1.0, 1000 + i)).ok();
  }
  ASSERT_TRUE(manager_->GetRunner(id.value())->WaitUntilCaughtUp(10000).ok());
  ASSERT_GT(TickUntilCheckpointed(manager_.get(), store_.get(), id.value()), 0);

  // Build a big backlog, then tick: the monitor should scale up. The
  // sources are held (every fetch fails; RunSource retries) while the
  // backlog builds and Tick reads the lag, so the job cannot drain it first.
  const std::string fetch_site = "broker.fetch." + broker_->name();
  broker_->SetFaultInjector(&faults_);
  faults_.SetDown(fetch_site, true);
  for (int i = 0; i < 2000; ++i) {
    broker_->Produce("events", Event("k" + std::to_string(i % 7), 1.0, 2000 + i)).ok();
  }
  ASSERT_TRUE(manager_->Tick().ok());
  Result<JobInfo> info = manager_->GetJob(id.value());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().rescales, 1);
  EXPECT_EQ(info.value().parallelism, 2);
  faults_.SetDown(fetch_site, false);

  // Drain and finish: per-key counts must be exact across the rescale —
  // proof the keyed state was redistributed correctly.
  JobRunner* runner = manager_->GetRunner(id.value());
  ASSERT_TRUE(runner->WaitUntilCaughtUp(20000).ok());
  runner->RequestFinish();
  ASSERT_TRUE(runner->AwaitTermination(20000).ok());
  std::lock_guard<std::mutex> lock(mu);
  int64_t total = 0;
  for (const Row& row : results) total += row[2].AsInt();
  EXPECT_EQ(total, 2050);
}

TEST(RedistributeStateTest, SplitsByRoutingHash) {
  // Synthesize a 1-instance checkpoint with two keys and verify the rows
  // land where the runner's Dispatch would route those keys at P=2.
  JobGraph graph("g");
  SourceSpec source;
  source.topic = "t";
  source.schema = EventSchema();
  graph.AddSource(source).WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(1000),
                                          {AggregateSpec::Count("n")});
  CheckpointData data;
  data.sequence = 1;
  std::vector<Row> state_rows;
  for (const char* key : {"alpha", "beta", "gamma", "delta"}) {
    Row state_row;
    state_row.push_back(Value(EncodeRow({Value(std::string(key))})));
    state_row.push_back(Value(int64_t{0}));
    state_row.push_back(Value(int64_t{1000}));
    state_row.push_back(Value(EncodeRow({Value(std::string(key))})));
    state_row.push_back(Value(int64_t{3}));
    state_row.push_back(Value(3.0));
    state_row.push_back(Value(1.0));
    state_row.push_back(Value(1.0));
    state_rows.push_back(std::move(state_row));
  }
  data.entries["op.0.0"] = storage::EncodeRowBatch(state_rows);
  data.entries["source.0.0"] = "17";

  Result<CheckpointData> redistributed = RedistributeKeyedState(data, graph, 1, 2);
  ASSERT_TRUE(redistributed.ok());
  EXPECT_EQ(redistributed.value().entries.at("source.0.0"), "17");
  int total = 0;
  for (int i = 0; i < 2; ++i) {
    Result<std::vector<Row>> rows = storage::DecodeRowBatch(
        redistributed.value().entries.at("op.0." + std::to_string(i)));
    ASSERT_TRUE(rows.ok());
    for (const Row& row : rows.value()) {
      // Row must live on the instance its key hashes to.
      EXPECT_EQ(uberrt::Fnv1a64(row[0].AsString()) % 2, static_cast<uint64_t>(i));
      ++total;
    }
  }
  EXPECT_EQ(total, 4);
}

TEST(BacklogRecoveryModelTest, StormLikeRecoversMuchSlowerAndGrowsWithBacklog) {
  BacklogRecoveryParams params;
  params.backlog = 2'000'000;
  params.service_per_tick = 10'000;
  params.timeout_ticks = 5;
  params.max_pending = 2'000'000;  // effectively unbounded: the misconfiguration
  BacklogRecoveryResult flink = SimulateCreditBasedRecovery(params);
  BacklogRecoveryResult storm = SimulateAckReplayRecovery(params);
  EXPECT_EQ(flink.ticks_to_recover, 200);
  EXPECT_EQ(flink.wasted_work, 0);
  // The "several hours vs 20 minutes" shape: a large multiple, not a few %.
  EXPECT_GT(storm.ticks_to_recover, flink.ticks_to_recover * 5);
  EXPECT_GT(storm.wasted_work, params.backlog);  // more waste than real work
  EXPECT_GT(storm.replays, 0);

  // And the multiple grows with the backlog.
  BacklogRecoveryParams small = params;
  small.backlog = 100'000;
  double small_ratio =
      static_cast<double>(SimulateAckReplayRecovery(small).ticks_to_recover) /
      static_cast<double>(SimulateCreditBasedRecovery(small).ticks_to_recover);
  double big_ratio = static_cast<double>(storm.ticks_to_recover) /
                     static_cast<double>(flink.ticks_to_recover);
  EXPECT_GT(big_ratio, small_ratio * 2);
}

TEST(BacklogRecoveryModelTest, WellTunedStormApproachesFlink) {
  // With max_pending well under service*timeout, queue waits stay far below
  // the timeout and replays are rare: near-Flink recovery.
  BacklogRecoveryParams params;
  params.backlog = 500'000;
  params.service_per_tick = 10'000;
  params.timeout_ticks = 10;
  params.max_pending = 20'000;
  BacklogRecoveryResult flink = SimulateCreditBasedRecovery(params);
  BacklogRecoveryResult storm = SimulateAckReplayRecovery(params);
  EXPECT_LT(static_cast<double>(storm.ticks_to_recover),
            static_cast<double>(flink.ticks_to_recover) * 1.3);
}

class BacklogMonotonicityTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BacklogMonotonicityTest, CreditBasedRecoveryIsLinear) {
  BacklogRecoveryParams params;
  params.backlog = GetParam();
  params.service_per_tick = 10'000;
  EXPECT_EQ(SimulateCreditBasedRecovery(params).ticks_to_recover,
            (GetParam() + 9'999) / 10'000);
}

INSTANTIATE_TEST_SUITE_P(Backlogs, BacklogMonotonicityTest,
                         ::testing::Values(10'000, 100'000, 1'000'000, 5'000'000));

class BackfillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
  }
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
};

TEST_F(BackfillTest, KappaPlusReprocessesArchivedDaysWithSameLogic) {
  // Archive: 3 "days" of events, deliberately out of order within each day.
  storage::ArchiveTable archive(store_.get(), "events", EventSchema());
  Rng rng(5);
  int64_t expected_total = 0;
  for (int day = 0; day < 3; ++day) {
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) {
      int64_t ts = day * 86'400'000LL + rng.Uniform(0, 3'600'000);
      rows.push_back({Value("k" + std::to_string(i % 5)), Value(1.0), Value(ts)});
      ++expected_total;
    }
    archive.AppendBatch("2020-10-0" + std::to_string(day + 1), rows).ok();
  }

  // The normal streaming job definition, unchanged.
  std::mutex mu;
  std::vector<Row> results;
  JobGraph graph("hourly_counts");
  SourceSpec source;
  source.topic = "events";  // the topic it would read in production
  source.schema = EventSchema();
  source.time_field = "ts";
  graph.AddSource(source).WindowAggregate("agg", {"key"},
                                          WindowSpec::Tumbling(3'600'000),
                                          {AggregateSpec::Count("n")});
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });

  KappaPlusBackfill backfill(broker_.get(), store_.get());
  BackfillOptions options;
  options.reorder_slack_ms = 3'600'000;  // archive is unordered
  Result<BackfillReport> report =
      backfill.Run(graph, archive, {"2020-10-01", "2020-10-02", "2020-10-03"}, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().records_pumped, 600);
  int64_t total = 0;
  for (const Row& row : results) total += row[2].AsInt();
  EXPECT_EQ(total, expected_total);  // every archived record reprocessed once
}

TEST_F(BackfillTest, KappaFromKafkaLosesTruncatedHistory) {
  // The rejected alternative: retention-limited Kafka replay (Section 7).
  TopicConfig config;
  config.num_partitions = 1;
  config.retention.max_age_ms = 1000;  // "a few days" scaled down
  ASSERT_TRUE(broker_->CreateTopic("events", config).ok());
  TimestampMs now = SystemClock::Instance()->NowMs();
  for (int i = 0; i < 100; ++i) {
    broker_->Produce("events", Event("k", 1.0, now - 50'000)).ok();  // old
  }
  for (int i = 0; i < 20; ++i) {
    broker_->Produce("events", Event("k", 1.0, now)).ok();  // recent
  }
  broker_->ApplyRetention();
  Result<int64_t> replayable = KappaReplayableRecords(broker_.get(), "events");
  ASSERT_TRUE(replayable.ok());
  EXPECT_EQ(replayable.value(), 20);  // 100 old records unreplayable
}

TEST(MicroBatchBaselineTest, SameAnswersFarMoreMemoryThanIncremental) {
  Broker broker("c1");
  storage::InMemoryObjectStore store;
  TopicConfig config;
  config.num_partitions = 2;
  broker.CreateTopic("events", config).ok();
  // 20 keys x 3 windows x 25 records.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 500; ++i) {
      broker.Produce("events", Event("k" + std::to_string(i % 20), 2.0,
                                     w * 60'000 + (i / 20) * 100)).ok();
    }
  }
  SourceSpec source;
  source.topic = "events";
  source.schema = EventSchema();
  source.time_field = "ts";
  Result<MicroBatchReport> spark = RunMicroBatchWindowAggregate(
      &broker, source, {"key"}, WindowSpec::Tumbling(60'000),
      {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s")});
  ASSERT_TRUE(spark.ok()) << spark.status().ToString();
  EXPECT_EQ(spark.value().records_processed, 1500);
  EXPECT_EQ(spark.value().rows.size(), 60u);  // 20 keys x 3 windows

  // Run the incremental engine on the same data.
  JobGraph graph("inc");
  graph.AddSource(source).WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(60'000),
                                          {AggregateSpec::Count("n"),
                                           AggregateSpec::Sum("v", "s")});
  std::mutex mu;
  std::vector<Row> results;
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(row);
  });
  JobRunner runner(graph, &broker, &store);
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  EXPECT_EQ(results.size(), 60u);
  // The Section 4.2 memory shape: materialized micro-batch state is a
  // multiple of the incremental accumulator state.
  EXPECT_GT(spark.value().peak_buffered_bytes, runner.PeakStateBytes() * 3);
}

}  // namespace
}  // namespace uberrt::compute
