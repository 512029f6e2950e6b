#include <gtest/gtest.h>

#include "common/clock.h"
#include "stream/broker.h"
#include "stream/consumer.h"
#include "stream/log.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& key, const std::string& value, TimestampMs ts = 0) {
  Message m;
  m.key = key;
  m.value = value;
  m.timestamp = ts;
  return m;
}

TEST(PartitionLogTest, OffsetsAreDenseAndMonotonic) {
  PartitionLog log;
  EXPECT_EQ(log.Append(Msg("", "a")), 0);
  EXPECT_EQ(log.Append(Msg("", "b")), 1);
  EXPECT_EQ(log.BeginOffset(), 0);
  EXPECT_EQ(log.EndOffset(), 2);
  Result<FetchedBatch> read = log.ReadViews(0, 10);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value().messages[1].value, "b");
  EXPECT_EQ(read.value().messages[1].offset, 1);
}

TEST(PartitionLogTest, ReadBoundsChecked) {
  PartitionLog log;
  log.Append(Msg("", "a"));
  EXPECT_TRUE(log.ReadViews(5, 1).status().code() == StatusCode::kOutOfRange);
  // Reading at end offset returns empty, not an error.
  Result<FetchedBatch> at_end = log.ReadViews(1, 1);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end.value().empty());
}

TEST(PartitionLogTest, AgeRetentionAdvancesBeginOffset) {
  PartitionLog log;
  for (int i = 0; i < 10; ++i) log.Append(Msg("", "m", /*ts=*/i * 100));
  RetentionPolicy policy;
  policy.max_age_ms = 500;
  int64_t dropped = log.ApplyRetention(policy, /*now=*/1000);
  // Messages with ts < 500 dropped: ts 0..400 -> 5 messages.
  EXPECT_EQ(dropped, 5);
  EXPECT_EQ(log.BeginOffset(), 5);
  EXPECT_EQ(log.EndOffset(), 10);
  EXPECT_TRUE(log.ReadViews(0, 1).status().code() == StatusCode::kOutOfRange);
  EXPECT_EQ(log.ReadViews(5, 1).value().messages[0].timestamp, 500);
}

TEST(PartitionLogTest, SizeRetentionKeepsNewest) {
  PartitionLog log;
  for (int i = 0; i < 100; ++i) log.Append(Msg("", std::string(100, 'x'), 1));
  RetentionPolicy policy;
  policy.max_bytes = 1500;
  log.ApplyRetention(policy, 0);
  EXPECT_LE(log.Bytes(), 1500);
  EXPECT_GT(log.Size(), 0);
  EXPECT_EQ(log.EndOffset(), 100);  // numbering preserved
}

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("t", config).ok());
  }
  std::unique_ptr<Broker> broker_;
};

TEST_F(BrokerTest, TopicLifecycle) {
  EXPECT_TRUE(broker_->HasTopic("t"));
  EXPECT_EQ(broker_->NumPartitions("t").value(), 4);
  EXPECT_TRUE(broker_->CreateTopic("t", TopicConfig()).IsAlreadyExists());
  EXPECT_TRUE(broker_->DeleteTopic("t").ok());
  EXPECT_FALSE(broker_->HasTopic("t"));
  EXPECT_TRUE(broker_->Produce("t", Msg("k", "v")).status().IsNotFound());
}

TEST_F(BrokerTest, KeyedMessagesLandOnOnePartition) {
  int32_t first = -1;
  for (int i = 0; i < 10; ++i) {
    Result<ProduceResult> r = broker_->Produce("t", Msg("same-key", "v"));
    ASSERT_TRUE(r.ok());
    if (first < 0) first = r.value().partition;
    EXPECT_EQ(r.value().partition, first);
  }
}

TEST_F(BrokerTest, KeylessMessagesRoundRobin) {
  std::set<int32_t> partitions;
  for (int i = 0; i < 8; ++i) {
    partitions.insert(broker_->Produce("t", Msg("", "v")).value().partition);
  }
  EXPECT_EQ(partitions.size(), 4u);
}

TEST_F(BrokerTest, UnavailableClusterBehaviour) {
  TopicConfig lossy;
  lossy.num_partitions = 1;
  lossy.lossless = false;
  ASSERT_TRUE(broker_->CreateTopic("surge", lossy).ok());
  broker_->SetAvailable(false);
  // Lossless topic: hard failure.
  EXPECT_TRUE(broker_->Produce("t", Msg("k", "v")).status().IsUnavailable());
  // Non-lossless topic: silently dropped (availability over consistency).
  Result<ProduceResult> dropped = broker_->Produce("surge", Msg("k", "v"));
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped.value().dropped);
  // Fetch fails while down.
  EXPECT_TRUE(broker_->FetchViews("t", 0, 0, 1).status().IsUnavailable());
  broker_->SetAvailable(true);
  EXPECT_TRUE(broker_->Produce("t", Msg("k", "v")).ok());
  // The dropped message is really gone.
  EXPECT_EQ(broker_->EndOffset("surge", 0).value(), 0);
}

TEST_F(BrokerTest, MissingTopicIsNotFoundEvenWhenUnavailable) {
  // Regression: an unavailable cluster used to answer Unavailable for every
  // produce, including topics that do not exist — so federation retry logic
  // would retry forever against a topic that will never exist. Existence is
  // checked first now.
  broker_->SetAvailable(false);
  EXPECT_TRUE(broker_->Produce("ghost", Msg("k", "v")).status().IsNotFound());
  EXPECT_TRUE(broker_->FetchViews("ghost", 0, 0, 1).status().IsNotFound());
  wire::BatchBuilder builder;
  builder.Add(Msg("k", "v"));
  EXPECT_TRUE(broker_->Replicate("ghost", 0, 0, builder.Finish()).IsNotFound());
  EXPECT_TRUE(broker_->ReplicateStartOffset("ghost", 0, 5).IsNotFound());
  // Existing topics keep the availability semantics.
  EXPECT_TRUE(broker_->Produce("t", Msg("k", "v")).status().IsUnavailable());
  broker_->SetAvailable(true);
  EXPECT_TRUE(broker_->Produce("ghost", Msg("k", "v")).status().IsNotFound());
}

TEST_F(BrokerTest, RangeAssignmentIsContiguousAndBalanced) {
  // Kafka's range strategy: contiguous blocks in sorted-member order, the
  // first (partitions % members) members take one extra partition.
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "a").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "b").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "c").ok());
  // 4 partitions, 3 members: a=[0,1], b=[2], c=[3].
  EXPECT_EQ(broker_->GetAssignment("g", "t", "a").value(),
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "b").value(),
            (std::vector<int32_t>{2}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "c").value(),
            (std::vector<int32_t>{3}));
  ASSERT_TRUE(broker_->LeaveGroup("g", "t", "b").ok());
  // 4 partitions, 2 members: contiguous halves.
  EXPECT_EQ(broker_->GetAssignment("g", "t", "a").value(),
            (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(broker_->GetAssignment("g", "t", "c").value(),
            (std::vector<int32_t>{2, 3}));
}

TEST_F(BrokerTest, ConsumerGroupAssignmentCoversAllPartitions) {
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "m1").ok());
  ASSERT_TRUE(broker_->JoinGroup("g", "t", "m2").ok());
  EXPECT_TRUE(broker_->JoinGroup("g", "t", "m1").IsAlreadyExists());
  std::set<int32_t> covered;
  for (const char* member : {"m1", "m2"}) {
    Result<std::vector<int32_t>> assigned = broker_->GetAssignment("g", "t", member);
    ASSERT_TRUE(assigned.ok());
    EXPECT_EQ(assigned.value().size(), 2u);
    for (int32_t p : assigned.value()) covered.insert(p);
  }
  EXPECT_EQ(covered.size(), 4u);
  int64_t generation = broker_->GroupGeneration("g", "t");
  ASSERT_TRUE(broker_->LeaveGroup("g", "t", "m2").ok());
  EXPECT_GT(broker_->GroupGeneration("g", "t"), generation);
  EXPECT_EQ(broker_->GetAssignment("g", "t", "m1").value().size(), 4u);
}

TEST_F(BrokerTest, CommittedOffsetsAndLag) {
  for (int i = 0; i < 10; ++i) broker_->Produce("t", Msg("", "v")).ok();
  EXPECT_TRUE(broker_->CommittedOffset("g", "t", 0).status().IsNotFound());
  EXPECT_EQ(broker_->ConsumerLag("g", "t").value(), 10);
  for (int32_t p = 0; p < 4; ++p) {
    int64_t end = broker_->EndOffset("t", p).value();
    broker_->CommitOffset("g", "t", p, end).ok();
  }
  EXPECT_EQ(broker_->ConsumerLag("g", "t").value(), 0);
}

TEST_F(BrokerTest, ConsumerPollsAllMessagesAndRebalances) {
  for (int i = 0; i < 20; ++i) {
    broker_->Produce("t", Msg("k" + std::to_string(i), "v" + std::to_string(i))).ok();
  }
  Consumer c1(broker_.get(), "g", "t", "m1");
  ASSERT_TRUE(c1.Subscribe().ok());
  Result<FetchedBatch> batch = c1.PollViews(100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 20u);
  ASSERT_TRUE(c1.Commit().ok());

  // Second consumer joins: m1 gives up half the partitions but progress is
  // preserved via committed offsets.
  Consumer c2(broker_.get(), "g", "t", "m2");
  ASSERT_TRUE(c2.Subscribe().ok());
  for (int i = 0; i < 20; ++i) {
    broker_->Produce("t", Msg("k" + std::to_string(i), "w")).ok();
  }
  size_t total = c1.PollViews(100).value().size() + c2.PollViews(100).value().size();
  EXPECT_EQ(total, 20u);  // no duplicates, nothing lost
}

TEST_F(BrokerTest, ConsumerSurvivesRetentionTruncation) {
  TopicConfig config;
  config.num_partitions = 1;
  config.retention.max_age_ms = 100;
  ASSERT_TRUE(broker_->CreateTopic("short", config).ok());
  TimestampMs now = SystemClock::Instance()->NowMs();
  for (int i = 0; i < 5; ++i) {
    broker_->Produce("short", Msg("", "old", now - 10'000)).ok();
  }
  Consumer consumer(broker_.get(), "g", "short", "m");
  ASSERT_TRUE(consumer.Subscribe().ok());
  // Truncate everything before the consumer reads.
  broker_->ApplyRetention();
  for (int i = 0; i < 3; ++i) broker_->Produce("short", Msg("", "new", now)).ok();
  Result<FetchedBatch> batch = consumer.PollViews(100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 3u);  // jumped to the retained range
}

TEST(BrokerCoordinationTest, ClusterSizeCoordinationCost) {
  // The Section 4.1.1 model: per-produce work grows superlinearly with the
  // node count, so big clusters are slower per message.
  auto measure = [](int32_t nodes) {
    BrokerOptions options;
    options.num_nodes = nodes;
    options.coordination_model_enabled = true;
    Broker broker("c", options);
    TopicConfig config;
    config.num_partitions = 1;
    broker.CreateTopic("t", config).ok();
    TimestampMs start = SystemClock::Instance()->NowMs();
    for (int i = 0; i < 3000; ++i) {
      Message m;
      m.value = "x";
      broker.Produce("t", std::move(m)).ok();
    }
    return SystemClock::Instance()->NowMs() - start + 1;
  };
  // 600-node cluster should be clearly slower per message than 100-node.
  EXPECT_GT(measure(600), measure(100));
}

}  // namespace
}  // namespace uberrt::stream
