#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "stream/broker.h"
#include "stream/chaperone.h"
#include "stream/ureplicator.h"

#include "copy_all.h"

namespace uberrt::stream {
namespace {

Message Msg(const std::string& value, TimestampMs ts = 1) {
  Message m;
  m.value = value;
  m.timestamp = ts;
  m.headers[kHeaderUid] = value;
  return m;
}

class UReplicatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    source_ = std::make_unique<Broker>("src");
    destination_ = std::make_unique<Broker>("dst");
    TopicConfig config;
    config.num_partitions = 8;
    ASSERT_TRUE(source_->CreateTopic("t", config).ok());
  }
  std::unique_ptr<Broker> source_;
  std::unique_ptr<Broker> destination_;
  OffsetMappingStore mappings_;
};

TEST_F(UReplicatorTest, ReplicatesAllMessagesInPartitionOrder) {
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("v" + std::to_string(i));
    m.partition = i % 8;
    source_->Produce("t", std::move(m)).ok();
  }
  UReplicator replicator(source_.get(), destination_.get(), "src>dst", &mappings_);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  Result<int64_t> copied = replicator.RunUntilCaughtUp();
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied.value(), 100);
  EXPECT_EQ(replicator.TotalLag().value(), 0);
  // Destination created with same partition count; per-partition order kept.
  EXPECT_EQ(destination_->NumPartitions("t").value(), 8);
  Result<FetchedBatch> p0 = destination_->FetchViews("t", 0, 0, 100);
  ASSERT_TRUE(p0.ok());
  const std::vector<Message> arrived = CopyAll(p0.value());
  for (size_t i = 1; i < arrived.size(); ++i) {
    // Values v0, v8, v16... arrive in source order.
    EXPECT_LT(std::stoi(arrived[i - 1].value.substr(1)),
              std::stoi(arrived[i].value.substr(1)));
  }
}

TEST_F(UReplicatorTest, MinimalRebalanceMovesOnlyDeadWorkersPartitions) {
  UReplicatorOptions options;
  options.num_workers = 4;
  options.num_standby_workers = 0;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  // 8 partitions over 4 workers: 2 each.
  Result<int64_t> moved = replicator.RemoveWorker(0);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 2);  // only worker 0's partitions moved
}

TEST_F(UReplicatorTest, FullRehashMovesMostPartitions) {
  UReplicatorOptions options;
  options.num_workers = 4;
  options.num_standby_workers = 0;
  options.rebalance_mode = RebalanceMode::kFullRehash;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  replicator.RemoveWorker(0).ok();  // initial hash layout
  Result<int64_t> moved = replicator.RemoveWorker(1);
  ASSERT_TRUE(moved.ok());
  // Rehash over a changed worker list moves far more than the dead
  // worker's fair share (2).
  EXPECT_GT(moved.value(), 2);
}

TEST_F(UReplicatorTest, BurstTrafficShiftsToStandbyWorkers) {
  UReplicatorOptions options;
  options.num_workers = 2;
  options.num_standby_workers = 1;
  options.burst_lag_threshold = 50;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  // Burst into 6 of 8 partitions: the two active workers are overloaded
  // (3 bursting each vs a fair share of 2 over the 3-worker pool), so the
  // fair-share redistribution hands some to the standby.
  for (int i = 0; i < 1'200; ++i) {
    Message m = Msg("burst");
    m.partition = i % 6;
    source_->Produce("t", std::move(m)).ok();
  }
  std::set<int32_t> owners_before;
  for (int32_t p = 0; p < 6; ++p) owners_before.insert(replicator.OwnerOf({"t", p}));
  EXPECT_EQ(owners_before.size(), 2u);  // only actives
  ASSERT_TRUE(replicator.RunOnce().ok());
  std::set<int32_t> owners_after;
  for (int32_t p = 0; p < 6; ++p) owners_after.insert(replicator.OwnerOf({"t", p}));
  EXPECT_EQ(owners_after.size(), 3u);  // standby now carries burst load
  EXPECT_GT(replicator.partitions_moved_total(), 0);
  ASSERT_TRUE(replicator.RunUntilCaughtUp().ok());
  EXPECT_EQ(replicator.TotalLag().value(), 0);
}

TEST_F(UReplicatorTest, OffsetMappingCheckpointsRecorded) {
  UReplicatorOptions options;
  options.checkpoint_every = 10;
  UReplicator replicator(source_.get(), destination_.get(), "r", &mappings_, options);
  ASSERT_TRUE(replicator.AddTopic("t").ok());
  for (int i = 0; i < 100; ++i) {
    Message m = Msg("v");
    m.partition = 0;
    source_->Produce("t", std::move(m)).ok();
  }
  ASSERT_TRUE(replicator.RunUntilCaughtUp().ok());
  TopicPartition tp{"t", 0};
  std::vector<OffsetMapping> all = mappings_.GetAll("r", tp);
  EXPECT_GE(all.size(), 9u);
  // Lookup semantics: latest checkpoint at or before a source offset.
  Result<OffsetMapping> at = mappings_.LatestAtOrBefore("r", tp, 35);
  ASSERT_TRUE(at.ok());
  EXPECT_LE(at.value().source_offset, 35);
  // Inverse lookup by destination.
  Result<OffsetMapping> inverse = mappings_.LatestByDestinationAtOrBefore("r", tp, 35);
  ASSERT_TRUE(inverse.ok());
  EXPECT_LE(inverse.value().destination_offset, 35);
  // The first checkpoint is an anchor at the route's first copied message,
  // so lookups below the first cadence checkpoint resolve to it instead of
  // NotFound — offset sync relies on this to prove a source with no
  // qualifying checkpoint was never consumed at all.
  Result<OffsetMapping> anchor = mappings_.LatestAtOrBefore("r", tp, 3);
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(anchor.value().source_offset, 0);
  EXPECT_EQ(anchor.value().destination_offset, 0);
  ASSERT_TRUE(mappings_.Earliest("r", tp).ok());
  EXPECT_EQ(mappings_.Earliest("r", tp).value().destination_offset, 0);
  // A route that never copied anything has no anchor.
  EXPECT_TRUE(mappings_.Earliest("r", TopicPartition{"t", 5}).status().IsNotFound());
}

TEST(ChaperoneTest, DetectsLossBetweenStages) {
  Chaperone audit(1000);
  for (int i = 0; i < 10; ++i) {
    audit.RecordRaw("producer", "t", 100 + i, "uid" + std::to_string(i));
  }
  for (int i = 0; i < 7; ++i) {  // 3 lost downstream
    audit.RecordRaw("aggregate", "t", 100 + i, "uid" + std::to_string(i));
  }
  std::vector<AuditAlert> alerts = audit.Compare("producer", "aggregate", "t");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AuditAlert::Kind::kLoss);
  EXPECT_EQ(alerts[0].upstream_count, 10);
  EXPECT_EQ(alerts[0].downstream_count, 7);
}

TEST(ChaperoneTest, DetectsDuplication) {
  Chaperone audit(1000);
  for (int i = 0; i < 5; ++i) {
    audit.RecordRaw("producer", "t", 50, "uid" + std::to_string(i));
    audit.RecordRaw("replica", "t", 50, "uid" + std::to_string(i));
  }
  audit.RecordRaw("replica", "t", 50, "uid0");  // duplicate
  std::vector<AuditAlert> alerts = audit.Compare("producer", "replica", "t");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AuditAlert::Kind::kDuplication);
}

TEST(ChaperoneTest, CleanPipelineRaisesNoAlerts) {
  Chaperone audit(1000);
  for (int i = 0; i < 50; ++i) {
    std::string uid = "u" + std::to_string(i);
    TimestampMs ts = i * 100;
    audit.RecordRaw("producer", "t", ts, uid);
    audit.RecordRaw("regional", "t", ts, uid);
    audit.RecordRaw("aggregate", "t", ts, uid);
  }
  EXPECT_TRUE(audit.Compare("producer", "regional", "t").empty());
  EXPECT_TRUE(audit.Compare("regional", "aggregate", "t").empty());
  EXPECT_EQ(audit.TotalCount("producer", "t"), 50);
  // Windowing: events spread across 5 windows of 1000ms.
  EXPECT_EQ(audit.GetStats("producer", "t").size(), 5u);
}

/// Uids whose UidSet::Hash agrees in the low `bits` bits, so they share a
/// home slot in every index of up to 2^bits slots.
std::vector<std::string> SameSlotUids(size_t count, int bits) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const uint64_t target = UidSet::Hash("collide-0") & mask;
  std::vector<std::string> out;
  for (int64_t n = 0; out.size() < count; ++n) {
    std::string uid = "collide-" + std::to_string(n);
    if ((UidSet::Hash(uid) & mask) == target) out.push_back(std::move(uid));
  }
  return out;
}

TEST(ChaperoneTest, UidSetResolvesSameSlotUidsByTheirBytes) {
  const std::vector<std::string> colliding = SameSlotUids(48, /*bits=*/12);
  UidSet uids;
  std::set<std::string> reference;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& uid : colliding) {
      EXPECT_EQ(uids.Insert(uid), reference.insert(uid).second) << uid;
    }
  }
  EXPECT_EQ(uids.size(), 48);
  // A prefix or extension of a stored uid is a different uid.
  EXPECT_TRUE(uids.Insert(colliding[0].substr(0, colliding[0].size() - 1)));
  EXPECT_TRUE(uids.Insert(colliding[0] + "x"));
  EXPECT_FALSE(uids.Insert(colliding[0]));
  EXPECT_EQ(uids.size(), 50);

  // Through many index doublings, with duplicates and varied lengths.
  UidSet grown;
  std::set<std::string> grown_reference;
  Rng rng(7);
  for (int i = 0; i < 40000; ++i) {
    std::string uid = std::string(rng.Uniform(0, 30), 'x') + std::to_string(rng.Uniform(0, 20000));
    ASSERT_EQ(grown.Insert(uid), grown_reference.insert(uid).second) << uid;
  }
  EXPECT_EQ(grown.size(), static_cast<int64_t>(grown_reference.size()));
}

TEST(ChaperoneTest, MatchesSetReferenceOnRandomizedUids) {
  // Reference model: the std::set<std::string> buckets Chaperone used to keep.
  struct RefBucket {
    int64_t count = 0;
    std::set<std::string> uids;
  };
  using Key = std::tuple<std::string, std::string, TimestampMs>;
  std::map<Key, RefBucket> reference;
  const int64_t window = 1000;
  auto window_start = [&](TimestampMs t) { return t - (t % window + window) % window; };

  const std::vector<std::string> stages = {"producer", "regional", "aggregate"};
  const std::vector<std::string> topics = {"t", "trips", "eats_orders"};
  const std::vector<std::string> colliding = SameSlotUids(40, /*bits=*/12);
  Chaperone audit(window);
  Rng rng(20261020);
  for (int i = 0; i < 30000; ++i) {
    const std::string& stage = stages[rng.Uniform(0, 2)];
    const std::string& topic = topics[rng.Uniform(0, 2)];
    // Mostly advancing event times, some late and some negative.
    TimestampMs ts = i * 3 - (rng.Chance(0.1) ? rng.Uniform(0, 20000) : 0);
    std::string uid;
    const int64_t kind = rng.Uniform(0, 9);
    if (kind == 0) {
      uid = "";  // counted only
    } else if (kind == 1) {
      uid = colliding[rng.Uniform(0, 39)];
      ts = 7000;  // all in one window
    } else if (kind == 2) {
      uid = std::string(rng.Uniform(1, 90), 'u') + std::to_string(rng.Uniform(0, 50));
    } else {
      uid = "restaurant_manager-" + std::to_string(rng.Uniform(0, i / 2));  // duplicates
    }
    audit.RecordRaw(stage, topic, ts, uid);
    RefBucket& bucket = reference[{stage, topic, window_start(ts)}];
    ++bucket.count;
    if (!uid.empty()) bucket.uids.insert(uid);
  }

  for (const std::string& stage : stages) {
    for (const std::string& topic : topics) {
      std::vector<WindowStats> expected;
      int64_t total = 0;
      for (const auto& [key, bucket] : reference) {
        if (std::get<0>(key) != stage || std::get<1>(key) != topic) continue;
        expected.push_back({std::get<2>(key), bucket.count,
                            static_cast<int64_t>(bucket.uids.size())});
        total += bucket.count;
      }
      std::vector<WindowStats> stats = audit.GetStats(stage, topic);
      ASSERT_EQ(stats.size(), expected.size()) << stage << "/" << topic;
      for (size_t w = 0; w < stats.size(); ++w) {
        EXPECT_EQ(stats[w].window_start, expected[w].window_start);
        EXPECT_EQ(stats[w].count, expected[w].count);
        EXPECT_EQ(stats[w].unique, expected[w].unique);
      }
      EXPECT_EQ(audit.TotalCount(stage, topic), total);
    }
  }

  // Compare: every ordered stage pair, alert for alert.
  for (const std::string& topic : topics) {
    for (const std::string& up : stages) {
      for (const std::string& down : stages) {
        std::set<TimestampMs> windows;
        for (const auto& [key, bucket] : reference) {
          if (std::get<1>(key) == topic && (std::get<0>(key) == up || std::get<0>(key) == down)) {
            windows.insert(std::get<2>(key));
          }
        }
        std::vector<AuditAlert> expected;
        for (TimestampMs w : windows) {
          auto ub = reference.find({up, topic, w});
          auto db = reference.find({down, topic, w});
          int64_t up_unique =
              ub == reference.end() ? 0 : static_cast<int64_t>(ub->second.uids.size());
          int64_t down_count = db == reference.end() ? 0 : db->second.count;
          int64_t down_unique =
              db == reference.end() ? 0 : static_cast<int64_t>(db->second.uids.size());
          if (down_unique < up_unique) {
            expected.push_back({AuditAlert::Kind::kLoss, topic, w, up_unique, down_unique});
          }
          if (down_count > down_unique) {
            expected.push_back(
                {AuditAlert::Kind::kDuplication, topic, w, down_unique, down_count});
          }
        }
        std::vector<AuditAlert> alerts = audit.Compare(up, down, topic);
        ASSERT_EQ(alerts.size(), expected.size()) << up << "->" << down << " " << topic;
        for (size_t a = 0; a < alerts.size(); ++a) {
          EXPECT_EQ(alerts[a].ToString(), expected[a].ToString());
        }
      }
    }
  }
}

TEST(ChaperoneTest, FinalizedWindowsKeepTheirStatsAndFreeTheirUids) {
  const int64_t window = 1000;
  const int64_t horizon_windows = Chaperone::kFinalizeHorizonMs / window;
  Chaperone audit(window);
  // Two stages over 3 horizons of one-second windows; the aggregate stage
  // loses uid 0 and duplicates uid 1 of every tenth window.
  const int64_t windows = 3 * horizon_windows;
  std::vector<WindowStats> expected_up, expected_down;
  for (int64_t w = 0; w < windows; ++w) {
    for (int64_t i = 0; i < 5; ++i) {
      const std::string uid = "u" + std::to_string(w) + "-" + std::to_string(i);
      audit.RecordRaw("producer", "t", w * window + i, uid);
      if (w % 10 == 0 && i == 0) continue;
      audit.RecordRaw("aggregate", "t", w * window + i, uid);
      if (w % 10 == 0 && i == 1) audit.RecordRaw("aggregate", "t", w * window + i, uid);
    }
    expected_up.push_back({w * window, 5, 5});
    expected_down.push_back({w * window, 5, w % 10 == 0 ? 4 : 5});
  }
  auto expect_stats = [](const std::vector<WindowStats>& got,
                         const std::vector<WindowStats>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].window_start, want[i].window_start);
      EXPECT_EQ(got[i].count, want[i].count);
      EXPECT_EQ(got[i].unique, want[i].unique);
    }
  };
  expect_stats(audit.GetStats("producer", "t"), expected_up);
  expect_stats(audit.GetStats("aggregate", "t"), expected_down);
  // Every tenth window alerts twice, finalized or live.
  std::vector<AuditAlert> alerts = audit.Compare("producer", "aggregate", "t");
  ASSERT_EQ(alerts.size(), 2u * static_cast<size_t>(windows / 10));
  EXPECT_EQ(alerts[0].ToString(), "LOSS topic=t window=0 upstream=5 downstream=4");
  EXPECT_EQ(alerts[1].ToString(), "DUPLICATION topic=t window=0 upstream=4 downstream=5");

  // A record for a finalized window is late: counted in TotalCount and
  // LateCount, and the frozen window never changes.
  EXPECT_EQ(audit.LateCount("producer", "t"), 0);
  audit.RecordRaw("producer", "t", 3 * window, "late-uid");
  audit.RecordRaw("producer", "t", 3 * window, "u3-0");
  EXPECT_EQ(audit.LateCount("producer", "t"), 2);
  EXPECT_EQ(audit.TotalCount("producer", "t"), 5 * windows + 2);
  expect_stats(audit.GetStats("producer", "t"), expected_up);
  // A record inside the horizon still lands in its (live) window.
  const int64_t live = windows - horizon_windows / 2;
  audit.RecordRaw("producer", "t", live * window, "extra");
  expected_up[static_cast<size_t>(live)] = {live * window, 6, 6};
  expect_stats(audit.GetStats("producer", "t"), expected_up);
  EXPECT_EQ(audit.LateCount("producer", "t"), 2);
  EXPECT_EQ(audit.LateCount("nowhere", "t"), 0);
}

TEST(ChaperoneTest, ResidentBytesLevelOffOverALongRun) {
  // 100 uids a one-second window: resident bytes at 2N windows stay within
  // 10% of those at N, once N is past the finalization horizon.
  const int64_t window = 1000;
  const int64_t n = 3 * Chaperone::kFinalizeHorizonMs / window;
  Chaperone audit(window);
  int64_t at_n = 0;
  int64_t uid = 0;
  for (int64_t w = 0; w < 2 * n; ++w) {
    for (int64_t i = 0; i < 100; ++i) {
      audit.RecordRaw("producer", "eats_orders", w * window + i * 10,
                      "restaurant_manager-" + std::to_string(uid++));
    }
    if (w + 1 == n) at_n = audit.ResidentBytes();
  }
  const int64_t at_2n = audit.ResidentBytes();
  EXPECT_GT(at_n, 0);
  EXPECT_LE(at_2n, at_n * 11 / 10) << "at N " << at_n << ", at 2N " << at_2n;
  EXPECT_EQ(audit.TotalCount("producer", "eats_orders"), 200 * n);
  EXPECT_EQ(audit.GetStats("producer", "eats_orders").size(), static_cast<size_t>(2 * n));
}

TEST(ChaperoneTest, EndToEndThroughReplication) {
  // Wire a real replication pipeline and verify the audit catches injected
  // loss (bench C13's core path).
  Broker source("src"), destination("dst");
  TopicConfig config;
  config.num_partitions = 2;
  source.CreateTopic("t", config).ok();
  Chaperone audit(1000);
  for (int i = 0; i < 40; ++i) {
    Message m = Msg("uid" + std::to_string(i), 100 + i * 10);
    audit.Record("producer", "t", m);
    source.Produce("t", std::move(m)).ok();
  }
  OffsetMappingStore mappings;
  UReplicator replicator(&source, &destination, "r", &mappings);
  replicator.AddTopic("t").ok();
  replicator.RunUntilCaughtUp().ok();
  // Downstream stage records what actually arrived, minus 2 "lost" ones.
  int skipped = 0;
  for (int32_t p = 0; p < 2; ++p) {
    Result<FetchedBatch> arrived = destination.FetchViews("t", p, 0, 100);
    ASSERT_TRUE(arrived.ok());
    for (const Message& m : CopyAll(arrived.value())) {
      if (skipped < 2 && m.headers.at(kHeaderUid) == "uid" + std::to_string(p)) {
        ++skipped;  // simulate loss of two specific messages
        continue;
      }
      audit.Record("aggregate", "t", m);
    }
  }
  std::vector<AuditAlert> alerts = audit.Compare("producer", "aggregate", "t");
  ASSERT_FALSE(alerts.empty());
  int64_t lost = 0;
  for (const AuditAlert& alert : alerts) {
    ASSERT_EQ(alert.kind, AuditAlert::Kind::kLoss);
    lost += alert.upstream_count - alert.downstream_count;
  }
  EXPECT_EQ(lost, 2);
}

}  // namespace
}  // namespace uberrt::stream
