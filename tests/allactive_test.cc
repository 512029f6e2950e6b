#include <gtest/gtest.h>

#include <set>

#include "allactive/coordinator.h"
#include "allactive/topology.h"

namespace uberrt::allactive {
namespace {

using stream::FetchedBatch;
using stream::Message;
using stream::TopicConfig;

Message Msg(const std::string& uid, TimestampMs ts = 1) {
  Message m;
  m.value = uid;
  m.timestamp = ts;
  m.headers[stream::kHeaderUid] = uid;
  return m;
}

class MultiRegionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topology_ = std::make_unique<MultiRegionTopology>(
        std::vector<std::string>{"dca", "phx"});
    TopicConfig config;
    config.num_partitions = 2;
    ASSERT_TRUE(topology_->CreateTopic("trips", config).ok());
  }

  std::set<std::string> AggregateContents(const std::string& region) {
    std::set<std::string> uids;
    stream::Broker* aggregate = topology_->GetRegion(region)->aggregate();
    for (int32_t p = 0; p < 2; ++p) {
      Result<FetchedBatch> batch = aggregate->FetchViews("trips", p, 0, 10'000);
      if (!batch.ok()) continue;
      for (const stream::wire::MessageView& m : batch.value().messages) {
        uids.emplace(m.value);
      }
    }
    return uids;
  }

  std::unique_ptr<MultiRegionTopology> topology_;
};

TEST_F(MultiRegionTest, AggregateClustersConvergeToGlobalView) {
  // Producers in both regions (Figure 6's regional -> aggregate flow).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(topology_->ProduceToRegion("dca", "trips",
                                           Msg("dca-" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(topology_->ProduceToRegion("phx", "trips",
                                           Msg("phx-" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(topology_->ReplicateAll().ok());
  std::set<std::string> dca = AggregateContents("dca");
  std::set<std::string> phx = AggregateContents("phx");
  EXPECT_EQ(dca.size(), 50u);
  // Both aggregates hold the identical logical content: the convergence
  // property that lets redundant surge pipelines compute the same result.
  EXPECT_EQ(dca, phx);
}

TEST_F(MultiRegionTest, RegionalFailureDoesNotBlockOtherRoutes) {
  for (int i = 0; i < 10; ++i) {
    topology_->ProduceToRegion("dca", "trips", Msg("dca-" + std::to_string(i))).ok();
  }
  topology_->GetRegion("phx")->Fail();
  ASSERT_TRUE(topology_->ReplicateAll().ok());
  // dca's aggregate got dca's data; phx untouched but nothing crashed.
  EXPECT_EQ(AggregateContents("dca").size(), 10u);
  topology_->GetRegion("phx")->Restore();
  ASSERT_TRUE(topology_->ReplicateAll().ok());
  EXPECT_EQ(AggregateContents("phx").size(), 10u);  // caught up after restore
}

TEST_F(MultiRegionTest, ActivePassiveFailoverLosesNothing) {
  // Steady production in both regions, replicated everywhere.
  int64_t produced = 0;
  for (int i = 0; i < 300; ++i) {
    topology_->ProduceToRegion(i % 2 ? "dca" : "phx", "trips",
                               Msg("m-" + std::to_string(i))).ok();
    ++produced;
  }
  ASSERT_TRUE(topology_->ReplicateAll().ok());

  ActivePassiveConsumer consumer(topology_.get(), "payments", "trips", "dca");
  std::set<std::string> seen;
  // Consume roughly half, committing as we go.
  while (static_cast<int64_t>(seen.size()) < produced / 2) {
    Result<FetchedBatch> batch = consumer.PollViews(40);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      seen.emplace(m.value);
    }
  }
  int64_t before_failover = static_cast<int64_t>(seen.size());
  ASSERT_GT(before_failover, 0);

  // Disaster strikes dca; fail over to phx.
  topology_->GetRegion("dca")->Fail();
  ASSERT_TRUE(consumer.FailoverTo("phx").ok());
  EXPECT_EQ(consumer.current_region(), "phx");

  int64_t duplicates = 0;
  while (true) {
    Result<FetchedBatch> batch = consumer.PollViews(100);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const stream::wire::MessageView& m : batch.value().messages) {
      if (!seen.emplace(m.value).second) ++duplicates;
    }
  }
  // Zero loss: every produced message was processed at least once.
  EXPECT_EQ(static_cast<int64_t>(seen.size()), produced);
  // Bounded replay: the duplicate window stays well under a full re-read
  // (the offset sync resumed near the synced position, not from zero).
  EXPECT_LT(duplicates, produced / 2);
}

TEST_F(MultiRegionTest, OffsetSyncIsConservative) {
  for (int i = 0; i < 200; ++i) {
    topology_->ProduceToRegion("dca", "trips", Msg("a-" + std::to_string(i))).ok();
  }
  ASSERT_TRUE(topology_->ReplicateAll().ok());
  stream::Broker* dca_agg = topology_->GetRegion("dca")->aggregate();
  // Simulate a consumer that committed to the middle of partition 0.
  int64_t end = dca_agg->EndOffset("trips", 0).value();
  ASSERT_TRUE(dca_agg->CommitOffset("g", "trips", 0, end / 2).ok());
  Result<int64_t> synced = topology_->SyncConsumerOffsets("g", "trips", "dca", "phx");
  ASSERT_TRUE(synced.ok());
  EXPECT_EQ(synced.value(), 1);
  stream::Broker* phx_agg = topology_->GetRegion("phx")->aggregate();
  Result<int64_t> translated = phx_agg->CommittedOffset("g", "trips", 0);
  ASSERT_TRUE(translated.ok());
  // Conservative: at or before the logically-equivalent position, never past.
  EXPECT_LE(translated.value(), end / 2);
  EXPECT_GT(translated.value(), 0);
}

TEST(AllActiveCoordinatorTest, PrimaryElectionAndFailover) {
  MultiRegionTopology topology({"dca", "phx", "sjc"});
  AllActiveCoordinator coordinator(&topology);
  ASSERT_TRUE(coordinator.RegisterService("surge", "dca").ok());
  EXPECT_TRUE(coordinator.IsPrimary("surge", "dca"));
  EXPECT_FALSE(coordinator.IsPrimary("surge", "phx"));
  EXPECT_TRUE(coordinator.RegisterService("surge", "dca").IsAlreadyExists());

  topology.GetRegion("dca")->Fail();
  Result<std::string> new_primary = coordinator.Failover("surge");
  ASSERT_TRUE(new_primary.ok());
  EXPECT_NE(new_primary.value(), "dca");
  EXPECT_TRUE(coordinator.IsPrimary("surge", new_primary.value()));
  EXPECT_EQ(coordinator.failovers(), 1);

  // All regions down: failover impossible.
  topology.GetRegion("phx")->Fail();
  topology.GetRegion("sjc")->Fail();
  EXPECT_TRUE(coordinator.Failover("surge").status().IsUnavailable());
}

}  // namespace
}  // namespace uberrt::allactive
