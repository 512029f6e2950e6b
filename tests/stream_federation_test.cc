#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "stream/consumer.h"
#include "stream/federation.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = 1;
  return m;
}

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        federation_.AddCluster(std::make_unique<Broker>("c1"), /*capacity=*/2).ok());
    ASSERT_TRUE(
        federation_.AddCluster(std::make_unique<Broker>("c2"), /*capacity=*/2).ok());
  }
  KafkaFederation federation_;
};

TEST_F(FederationTest, TopicsSpreadAcrossLeastLoadedClusters) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t1", config).ok());
  ASSERT_TRUE(federation_.CreateTopic("t2", config).ok());
  std::string host1 = federation_.HostingCluster("t1").value();
  std::string host2 = federation_.HostingCluster("t2").value();
  EXPECT_NE(host1, host2);  // least-loaded placement alternates
}

TEST_F(FederationTest, CapacityExhaustedUntilClusterAdded) {
  TopicConfig config;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(federation_.CreateTopic("t" + std::to_string(i), config).ok());
  }
  // All clusters full.
  Status full = federation_.CreateTopic("t4", config);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  // Horizontal scaling: add a cluster, creation succeeds again.
  ASSERT_TRUE(federation_.AddCluster(std::make_unique<Broker>("c3"), 2).ok());
  EXPECT_TRUE(federation_.CreateTopic("t4", config).ok());
  EXPECT_EQ(federation_.HostingCluster("t4").value(), "c3");
}

TEST_F(FederationTest, TransparentRouting) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  Result<ProduceResult> produced = federation_.Produce("t", Msg("k", "v1"));
  ASSERT_TRUE(produced.ok());
  Result<FetchedBatch> fetched = federation_.FetchViews("t", 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 1u);
  EXPECT_EQ(fetched.value().messages[0].value, "v1");
}

TEST_F(FederationTest, ProduceFailsOverWhenHostClusterDies) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  std::string host = federation_.HostingCluster("t").value();
  federation_.GetCluster(host).value()->SetAvailable(false);
  // Produce triggers automatic failover to a healthy cluster.
  Result<ProduceResult> produced = federation_.Produce("t", Msg("k", "v"));
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  std::string new_host = federation_.HostingCluster("t").value();
  EXPECT_NE(new_host, host);
  EXPECT_EQ(federation_.FetchViews("t", 0, 0, 10).value().size(), 1u);
}

TEST_F(FederationTest, FailoverRetryStoresTheSameMessage) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  std::string host = federation_.HostingCluster("t").value();
  federation_.GetCluster(host).value()->SetAvailable(false);

  Message m = Msg("rider-3", "payload");
  m.headers[kHeaderUid] = "rides-17";
  m.headers[kHeaderService] = "rides";
  Result<ProduceResult> produced = federation_.Produce("t", m);
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  EXPECT_NE(federation_.HostingCluster("t").value(), host);

  // The retry on the new host stored the message the first attempt was given.
  Result<FetchedBatch> fetched = federation_.FetchViews(
      "t", produced.value().partition, produced.value().offset, 1);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched.value().size(), 1u);
  Message stored = fetched.value().messages[0].ToMessage();
  EXPECT_EQ(stored.key, m.key);
  EXPECT_EQ(stored.value, m.value);
  EXPECT_EQ(stored.timestamp, m.timestamp);
  EXPECT_EQ(stored.headers, m.headers);
}

TEST_F(FederationTest, LiveConsumerSurvivesTopicMigration) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 10; ++i) {
    federation_.Produce("t", Msg("k" + std::to_string(i), "v" + std::to_string(i))).ok();
  }
  Consumer consumer(&federation_, "g", "t", "m1");
  ASSERT_TRUE(consumer.Subscribe().ok());
  EXPECT_EQ(consumer.PollViews(5).value().size(), 5u);
  ASSERT_TRUE(consumer.Commit().ok());

  // Migrate the topic to the other cluster while the consumer is live.
  std::string host = federation_.HostingCluster("t").value();
  std::string target = host == "c1" ? "c2" : "c1";
  ASSERT_TRUE(federation_.MigrateTopic("t", target).ok());
  EXPECT_EQ(federation_.HostingCluster("t").value(), target);

  // Consumer keeps polling without restart and misses nothing: offsets were
  // preserved by the migration copy.
  size_t got = 0;
  for (int i = 0; i < 10 && got < 5; ++i) {
    got += consumer.PollViews(10).value().size();
  }
  EXPECT_EQ(got, 5u);

  // New data lands on the new cluster and still flows.
  federation_.Produce("t", Msg("kx", "fresh")).ok();
  EXPECT_EQ(consumer.PollViews(10).value().size(), 1u);
}

TEST_F(FederationTest, GroupStateSurvivesMigration) {
  TopicConfig config;
  config.num_partitions = 1;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 6; ++i) federation_.Produce("t", Msg("", "v")).ok();
  ASSERT_TRUE(federation_.CommitOffset("g", "t", 0, 4).ok());
  std::string host = federation_.HostingCluster("t").value();
  ASSERT_TRUE(federation_.MigrateTopic("t", host == "c1" ? "c2" : "c1").ok());
  // Committed offsets live at the federation layer, not the physical
  // cluster, so they survive.
  EXPECT_EQ(federation_.CommittedOffset("g", "t", 0).value(), 4);
  EXPECT_EQ(federation_.ConsumerLag("g", "t").value(), 2);
}

TEST_F(FederationTest, MigratesTopicTruncatedByRetention) {
  // Regression: the copy used to replay from offset 0 onto the target, so a
  // partition whose front retention had truncated failed with an offset gap
  // and left the half-created topic behind on the target.
  TopicConfig config;
  config.num_partitions = 1;
  config.retention.max_bytes = 200;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(federation_.Produce("t", Msg("", std::string(40, 'a' + i % 26))).ok());
  }
  std::string host = federation_.HostingCluster("t").value();
  federation_.GetCluster(host).value()->ApplyRetention();
  const int64_t begin = federation_.BeginOffset("t", 0).value();
  const int64_t end = federation_.EndOffset("t", 0).value();
  ASSERT_GT(begin, 0);
  ASSERT_EQ(end, 20);

  Consumer consumer(&federation_, "g", "t", "m1");
  ASSERT_TRUE(consumer.Subscribe().ok());
  ASSERT_EQ(consumer.PollViews(1).value().size(), 1u);  // reads `begin`
  ASSERT_TRUE(consumer.Commit().ok());

  std::string target = host == "c1" ? "c2" : "c1";
  Status migrated = federation_.MigrateTopic("t", target);
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  EXPECT_EQ(federation_.HostingCluster("t").value(), target);
  EXPECT_EQ(federation_.BeginOffset("t", 0).value(), begin);
  EXPECT_EQ(federation_.EndOffset("t", 0).value(), end);

  // A fresh group member resumes from the committed offset on the target.
  ASSERT_TRUE(consumer.Close().ok());
  Consumer resumed(&federation_, "g", "t", "m2");
  ASSERT_TRUE(resumed.Subscribe().ok());
  Result<FetchedBatch> rest = resumed.PollViews(100);
  ASSERT_TRUE(rest.ok());
  ASSERT_EQ(rest.value().size(), static_cast<size_t>(end - begin - 1));
  EXPECT_EQ(rest.value().messages.front().offset, begin + 1);
  EXPECT_EQ(rest.value().messages.back().value, std::string(40, 'a' + 19));

  // A partition that age retention emptied entirely keeps its offsets too:
  // new produces continue past what consumers already committed.
  TopicConfig expiring;
  expiring.num_partitions = 1;
  expiring.retention.max_age_ms = 1;
  ASSERT_TRUE(federation_.CreateTopic("gone", expiring).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(federation_.Produce("gone", Msg("", "old")).ok());
  ASSERT_TRUE(federation_.CommitOffset("g", "gone", 0, 5).ok());
  std::string gone_host = federation_.HostingCluster("gone").value();
  federation_.GetCluster(gone_host).value()->ApplyRetention();
  ASSERT_EQ(federation_.BeginOffset("gone", 0).value(), 5);
  ASSERT_TRUE(federation_.MigrateTopic("gone", gone_host == "c1" ? "c2" : "c1").ok());
  EXPECT_EQ(federation_.BeginOffset("gone", 0).value(), 5);
  EXPECT_EQ(federation_.EndOffset("gone", 0).value(), 5);
  EXPECT_EQ(federation_.ConsumerLag("g", "gone").value(), 0);
  Result<ProduceResult> fresh = federation_.Produce("gone", Msg("", "new"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().offset, 5);
  EXPECT_EQ(federation_.ConsumerLag("g", "gone").value(), 1);
}

TEST_F(FederationTest, MigratesPartitionsLargerThanOneCopyBatch) {
  // The copy re-appends one batch per 1024-record fetch; later batches must
  // extend the target log, never move its begin offset.
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  constexpr int kPerPartition = 2500;
  for (int32_t p = 0; p < 2; ++p) {
    for (int i = 0; i < kPerPartition; ++i) {
      Message m = Msg("", "p" + std::to_string(p) + "-" + std::to_string(i));
      m.partition = p;
      ASSERT_TRUE(federation_.Produce("t", m).ok());
    }
  }
  ASSERT_EQ(federation_.EndOffset("t", 0).value(), kPerPartition);
  ASSERT_EQ(federation_.EndOffset("t", 1).value(), kPerPartition);
  ASSERT_TRUE(federation_.CommitOffset("g", "t", 0, 100).ok());
  ASSERT_TRUE(federation_.CommitOffset("g", "t", 1, 2000).ok());

  std::string host = federation_.HostingCluster("t").value();
  ASSERT_TRUE(federation_.MigrateTopic("t", host == "c1" ? "c2" : "c1").ok());
  for (int32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(federation_.BeginOffset("t", p).value(), 0);
    EXPECT_EQ(federation_.EndOffset("t", p).value(), kPerPartition);
    Result<FetchedBatch> first = federation_.FetchViews("t", p, 0, 1);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value().messages[0].value, "p" + std::to_string(p) + "-0");
  }

  // A member resuming from the committed offsets reads every remaining
  // record once, in order, with no jump.
  Consumer resumed(&federation_, "g", "t", "m1");
  ASSERT_TRUE(resumed.Subscribe().ok());
  std::vector<int64_t> next = {100, 2000};
  size_t got = 0;
  for (int round = 0; round < 100; ++round) {
    Result<FetchedBatch> batch = resumed.PollViews(512);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const wire::MessageView& v : batch.value().messages) {
      ASSERT_EQ(v.offset, next[static_cast<size_t>(v.partition)]++);
      EXPECT_EQ(v.value, "p" + std::to_string(v.partition) + "-" + std::to_string(v.offset));
      ++got;
    }
  }
  EXPECT_EQ(got, static_cast<size_t>(2 * kPerPartition - 100 - 2000));
}

TEST_F(FederationTest, FailedMigrationLeavesNoTopicOnTarget) {
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(federation_.CreateTopic("t", config).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(federation_.Produce("t", Msg("k" + std::to_string(i), "v")).ok());
  }
  std::string host = federation_.HostingCluster("t").value();
  std::string target = host == "c1" ? "c2" : "c1";
  common::FaultInjector faults;
  federation_.GetCluster(host).value()->SetFaultInjector(&faults);
  faults.SetDown("broker.fetch." + host, true);

  EXPECT_TRUE(federation_.MigrateTopic("t", target).IsUnavailable());
  EXPECT_FALSE(federation_.GetCluster(target).value()->HasTopic("t"));
  EXPECT_EQ(federation_.HostingCluster("t").value(), host);

  // Once the fault clears, a retry succeeds instead of hitting AlreadyExists.
  faults.SetDown("broker.fetch." + host, false);
  Status retried = federation_.MigrateTopic("t", target);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(federation_.HostingCluster("t").value(), target);
  EXPECT_EQ(federation_.EndOffset("t", 0).value() + federation_.EndOffset("t", 1).value(),
            10);
  federation_.GetCluster(host).value()->SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace uberrt::stream
