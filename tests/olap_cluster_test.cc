#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "olap/baselines.h"
#include "olap/cluster.h"
#include "olap/lifecycle.h"
#include "stream/broker.h"

namespace uberrt::olap {
namespace {

using stream::AckMode;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema RideSchema() {
  return RowSchema({{"ride_id", ValueType::kInt},
                    {"city", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"status", ValueType::kString},
                    {"ts", ValueType::kInt}});
}

class OlapClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    store_->SetFaultInjector(&faults_);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get());
    TopicConfig config;
    config.num_partitions = 4;
    ASSERT_TRUE(broker_->CreateTopic("rides", config).ok());
  }

  void ProduceRide(int64_t id, const std::string& city, double fare,
                   const std::string& status = "completed", int64_t ts = 1000,
                   const std::string& key = "") {
    Message m;
    m.key = key.empty() ? city : key;
    m.value = EncodeRow({Value(id), Value(city), Value(fare), Value(status), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(broker_->Produce("rides", std::move(m)).ok());
  }

  TableConfig RideTable(const std::string& name = "rides_t") {
    TableConfig config;
    config.name = name;
    config.schema = RideSchema();
    config.time_column = "ts";
    config.segment_rows_threshold = 50;
    config.index_config.inverted_columns = {"city"};
    return config;
  }

  common::FaultInjector faults_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<OlapCluster> cluster_;
};

TEST_F(OlapClusterTest, IngestsAndAnswersGroupBy) {
  for (int i = 0; i < 200; ++i) {
    ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 10.0 + i % 5);
  }
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), 200);
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);

  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Count("rides"),
                        OlapAggregation::Avg("fare", "avg_fare")};
  query.order_by = "rides";
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][1].AsInt(), 100);
  EXPECT_EQ(result.value().rows[1][1].AsInt(), 100);
  // Sealing happened (threshold 50, 200 rows over 4 partitions).
  EXPECT_GT(result.value().stats.segments_scanned, 0);
}

TEST_F(OlapClusterTest, ScatterGatherMergesAcrossServersAndBuffer) {
  // 75 rows per city: crosses one seal boundary, leaving a consuming tail.
  for (int i = 0; i < 150; ++i) ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 1.0);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 150);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 150.0);
  EXPECT_EQ(result.value().stats.servers_queried, 2);
}

TEST_F(OlapClusterTest, VectorizedEngineCountersSurfaceOnQueryPath) {
  for (int i = 0; i < 200; ++i) ProduceRide(i, i % 2 == 0 ? "sf" : "nyc", 2.0);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  // Threshold sealing already produced segments; flush any consuming tail so
  // every row is served by the vectorized engine.
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Eq("city", Value("sf"))};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 100);
  // Per-query stats report vectorized activity: the inverted-index filter
  // ran as bitmap kernels and the aggregate phase ran in row batches.
  EXPECT_GT(result.value().stats.exec_batches, 0);
  EXPECT_GT(result.value().stats.bitmap_words, 0);
  // ...and the gather mirrors them into the cluster counters.
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.exec.batches")->value(),
            result.value().stats.exec_batches);
  EXPECT_EQ(cluster_->metrics()->GetCounter("olap.exec.bitmap_words")->value(),
            result.value().stats.bitmap_words);

  // The scalar oracle bypasses the vectorized engine entirely.
  query.force_scalar = true;
  Result<OlapResult> scalar = cluster_->Query("rides_t", query);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar.value().rows, result.value().rows);
  EXPECT_EQ(scalar.value().stats.exec_batches, 0);
  EXPECT_EQ(scalar.value().stats.bitmap_words, 0);
}

TEST_F(OlapClusterTest, OrderByAndLimitAppliedAfterMerge) {
  for (int i = 0; i < 100; ++i) {
    ProduceRide(i, "city" + std::to_string(i % 10), static_cast<double>(i % 10));
  }
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Sum("fare", "total")};
  query.order_by = "total";
  query.order_desc = true;
  query.limit = 3;
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 3u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "city9");
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 90.0);
  EXPECT_GE(result.value().rows[0][1].AsDouble(), result.value().rows[1][1].AsDouble());
}

TEST_F(OlapClusterTest, TimeBoundaryPruningSkipsSegments) {
  // Two time epochs in separate segments.
  for (int i = 0; i < 50; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000 + i, "sf");
  for (int i = 0; i < 50; ++i) ProduceRide(i, "sf", 1.0, "completed", 100000 + i, "sf");
  TableConfig config = RideTable();
  config.segment_rows_threshold = 50;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides").ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());

  OlapQuery recent;
  recent.aggregations = {OlapAggregation::Count("n")};
  recent.filters = {FilterPredicate::Range("ts", FilterPredicate::Op::kGe,
                                           Value(int64_t{100000}))};
  Result<OlapResult> all_segments = cluster_->Query("rides_t", recent);
  ASSERT_TRUE(all_segments.ok());
  EXPECT_EQ(all_segments.value().rows[0][0].AsInt(), 50);
  // Old segment pruned by its max_time: only 1 sealed segment scanned (+
  // buffer rows if any).
  EXPECT_LE(all_segments.value().stats.segments_scanned, 1);
}

TEST_F(OlapClusterTest, UpsertKeepsLatestVersionOnly) {
  TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker_->CreateTopic("fares", config).ok());
  TableConfig table;
  table.name = "fares_t";
  table.schema = RowSchema({{"ride_id", ValueType::kString},
                            {"fare", ValueType::kDouble},
                            {"status", ValueType::kString}});
  table.segment_rows_threshold = 10;
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  ASSERT_TRUE(cluster_->CreateTable(table, "fares").ok());

  auto produce = [&](const std::string& ride, double fare, const std::string& status) {
    Message m;
    m.key = ride;  // stream partitioned by primary key
    m.value = EncodeRow({Value(ride), Value(fare), Value(status)});
    m.timestamp = 1;
    ASSERT_TRUE(broker_->Produce("fares", std::move(m)).ok());
  };
  // 30 rides, then correct fares for 10 of them (the paper's
  // "correcting a ride fare" scenario). Crosses seal boundaries.
  for (int i = 0; i < 30; ++i) produce("ride" + std::to_string(i), 10.0, "completed");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  for (int i = 0; i < 10; ++i) produce("ride" + std::to_string(i), 99.0, "corrected");
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());

  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Sum("fare", "s")};
  Result<OlapResult> result = cluster_->Query("fares_t", query);
  ASSERT_TRUE(result.ok());
  // Exactly one live row per key.
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 30);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1].AsDouble(), 20 * 10.0 + 10 * 99.0);

  // Point lookup returns only the corrected version...
  OlapQuery point;
  point.select_columns = {"ride_id", "fare", "status"};
  point.filters = {FilterPredicate::Eq("ride_id", Value("ride3"))};
  Result<OlapResult> lookup = cluster_->Query("fares_t", point);
  ASSERT_TRUE(lookup.ok());
  ASSERT_EQ(lookup.value().rows.size(), 1u);
  EXPECT_DOUBLE_EQ(lookup.value().rows[0][1].AsDouble(), 99.0);
  EXPECT_EQ(lookup.value().rows[0][2].AsString(), "corrected");
  // ...and partition-aware routing queried a single server (Section 4.3.1).
  EXPECT_EQ(lookup.value().stats.servers_queried, 1);
}

TEST_F(OlapClusterTest, UpsertRejectsSortedColumnAndStarTree) {
  TableConfig table = RideTable("bad");
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  table.index_config.sorted_column = "city";
  EXPECT_FALSE(cluster_->CreateTable(table, "rides").ok());
  table.index_config.sorted_column.clear();
  table.index_config.star_tree_dimensions = {"city"};
  EXPECT_FALSE(cluster_->CreateTable(table, "rides").ok());
}

TEST_F(OlapClusterTest, SyncArchivalHaltsIngestionDuringStoreOutage) {
  for (int i = 0; i < 400; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  TableConfig config = RideTable();
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kSyncCentralized;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", options).ok());
  faults_.SetDown("store", true);
  for (int i = 0; i < 20; ++i) cluster_->IngestOnce("rides_t").ok();
  // Ingestion halted at the first seal: lag remains.
  EXPECT_GT(cluster_->IngestLag("rides_t").value(), 0);
  // Store recovers -> ingestion resumes and archives.
  faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_FALSE(store_->List("segments/rides_t/").empty());
}

TEST_F(OlapClusterTest, AsyncP2PKeepsIngestingDuringStoreOutage) {
  for (int i = 0; i < 400; ++i) ProduceRide(i, "sf", 1.0, "completed", 1000, "sf");
  TableConfig config = RideTable();
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kAsyncPeerToPeer;
  ASSERT_TRUE(cluster_->CreateTable(config, "rides", options).ok());
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  // Fully ingested despite the outage; archival queued.
  EXPECT_EQ(cluster_->IngestLag("rides_t").value(), 0);
  EXPECT_GT(cluster_->ArchivalQueueDepth("rides_t"), 0);
  // Store back: queue drains (counting the earlier failures as retries).
  faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->DrainArchivalQueue("rides_t").ok());
  EXPECT_EQ(cluster_->ArchivalQueueDepth("rides_t"), 0);
}

TEST_F(OlapClusterTest, PeerToPeerRecoveryRestoresKilledServer) {
  for (int i = 0; i < 300; ++i) ProduceRide(i, i % 2 ? "sf" : "nyc", 2.0);
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kAsyncPeerToPeer;
  options.replication_factor = 2;
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", options).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  int64_t rows_before = cluster_->NumRows("rides_t").value();

  // Kill server 0 while the archival store is down: only peers can help.
  faults_.SetDown("store", true);
  ASSERT_TRUE(cluster_->KillServer("rides_t", 0).ok());
  EXPECT_LT(cluster_->NumRows("rides_t").value(), rows_before);
  Result<RecoveryReport> report = cluster_->RecoverServer("rides_t", 0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().segments_from_peers, 0);
  EXPECT_EQ(report.value().segments_lost, 0);
  EXPECT_EQ(cluster_->NumRows("rides_t").value(), rows_before);
  faults_.SetDown("store", false);
}

TEST_F(OlapClusterTest, BareSegmentBlobIsCorruptionAndCountsAsLost) {
  for (int i = 0; i < 300; ++i) ProduceRide(i, i % 2 ? "sf" : "nyc", 2.0);
  ClusterTableOptions options;
  options.archival_mode = ArchivalMode::kSyncCentralized;
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", options).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  const std::vector<std::string> keys = store_->List("segments/rides_t/");
  ASSERT_FALSE(keys.empty());
  // Replace every archived frame with the bare segment blob it wraps: the
  // segment frame is the only archive format, so these no longer decode.
  for (const std::string& key : keys) {
    Result<SegmentFrame> frame = DecodeSegmentFrame(store_->Get(key).value());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto bare = std::make_shared<const std::string>(frame.value().segment->Serialize());
    EXPECT_TRUE(DecodeSegmentFrame(*bare).status().IsCorruption());
    EXPECT_TRUE(DecodeSegmentFrameLazy(bare).status().IsCorruption());
    ASSERT_TRUE(store_->Put(key, *bare).ok());
  }
  ASSERT_TRUE(cluster_->KillServer("rides_t", 0).ok());
  Result<RecoveryReport> report = cluster_->RecoverServer("rides_t", 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().segments_lost, 0);
  EXPECT_EQ(report.value().segments_from_store, 0);
}

TEST(EsLikeStoreTest, QueryParityWithOlapSemantics) {
  EsLikeStore es(RideSchema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(es.Ingest({Value(static_cast<int64_t>(i)),
                           Value(i % 2 == 0 ? std::string("sf") : std::string("nyc")),
                           Value(10.0 + i % 5),
                           Value(std::string("completed")),
                           Value(static_cast<int64_t>(1000 + i))})
                    .ok());
  }
  OlapQuery query;
  query.group_by = {"city"};
  query.aggregations = {OlapAggregation::Count("n"), OlapAggregation::Avg("fare", "f")};
  Result<OlapResult> result = es.Query(query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][1].AsInt(), 50);
  // Range filter.
  OlapQuery range;
  range.aggregations = {OlapAggregation::Count("n")};
  range.filters = {FilterPredicate::Range("ts", FilterPredicate::Op::kGe,
                                          Value(int64_t{1090}))};
  EXPECT_EQ(es.Query(range).value().rows[0][0].AsInt(), 10);
}

TEST(EsLikeStoreTest, FootprintExceedsColumnarSegment) {
  RowSchema schema = RideSchema();
  EsLikeStore es(schema);
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    Row row{Value(static_cast<int64_t>(i)),
            Value("city" + std::to_string(i % 20)),
            Value(10.0 + i % 7),
            Value(i % 3 ? std::string("completed") : std::string("canceled")),
            Value(static_cast<int64_t>(1000 + i))};
    es.Ingest(row).ok();
    rows.push_back(std::move(row));
  }
  Result<std::shared_ptr<Segment>> pinot = Segment::Build("s", schema, rows, {});
  ASSERT_TRUE(pinot.ok());
  // The Section 4.3 footprint ordering: ES-like memory and disk are larger.
  EXPECT_GT(es.MemoryBytes(), pinot.value()->MemoryBytes());
  EXPECT_GT(es.DiskBytes(), pinot.value()->DiskBytes());
}

}  // namespace
}  // namespace uberrt::olap
