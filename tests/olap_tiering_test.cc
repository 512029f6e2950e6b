// Segment-lifecycle acceptance suite: sealed segments round-trip through
// the hot -> warm -> cold tiers (and back, via query promotion and
// background compaction) with bitwise-identical results at every step; the
// cluster-wide memory budget actually bounds the resident set; pruning
// never materializes a demoted segment; and the broker result cache is a
// byte-capped LRU charged against the same budget. Runs in the ASan/TSan
// concurrency gate.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/fault_injector.h"
#include "common/hash.h"
#include "olap/cluster.h"
#include "stream/broker.h"

namespace uberrt::olap {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

RowSchema RideSchema() {
  return RowSchema({{"ride_id", ValueType::kInt},
                    {"city", ValueType::kString},
                    {"fare", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

class OlapTieringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_unique<Broker>("c1");
    store_ = std::make_unique<storage::InMemoryObjectStore>();
    store_->SetFaultInjector(&store_faults_);  // SetDown("store") = outage
    common::ExecutorOptions pool;
    pool.num_threads = 4;
    pool.name = "executor.tiering_test";
    executor_ = std::make_unique<common::Executor>(pool);
    cluster_ = std::make_unique<OlapCluster>(broker_.get(), store_.get(),
                                             executor_.get());
    TopicConfig config;
    config.num_partitions = 8;
    ASSERT_TRUE(broker_->CreateTopic("rides", config).ok());
  }

  void ProduceRide(int64_t id, const std::string& city, double fare, int64_t ts,
                   const std::string& key = "") {
    Message m;
    m.key = key.empty() ? "k" + std::to_string(id % 16) : key;
    m.value = EncodeRow({Value(id), Value(city), Value(fare), Value(ts)});
    m.timestamp = ts;
    ASSERT_TRUE(broker_->Produce("rides", std::move(m)).ok());
  }

  TableConfig RideTable(const std::string& name = "rides_t") {
    TableConfig config;
    config.name = name;
    config.schema = RideSchema();
    config.time_column = "ts";
    config.segment_rows_threshold = 40;
    config.index_config.inverted_columns = {"city"};
    return config;
  }

  static ClusterTableOptions FourServers() {
    ClusterTableOptions options;
    options.num_servers = 4;
    return options;
  }

  /// Bitwise row fingerprint: EncodeRow is typed and self-delimiting, so
  /// equal fingerprints mean equal row sequences (values AND order).
  static std::string Fingerprint(const OlapResult& result) {
    std::string fp;
    for (const Row& row : result.rows) fp += EncodeRow(row) + "\x1f";
    return fp;
  }

  /// The parity query set: group-by, global aggregate, filtered selection.
  static std::vector<OlapQuery> ParityQueries() {
    std::vector<OlapQuery> queries;
    OlapQuery by_city;
    by_city.group_by = {"city"};
    by_city.aggregations = {OlapAggregation::Count("n"),
                            OlapAggregation::Sum("fare", "s")};
    by_city.order_by = "n";
    queries.push_back(by_city);
    OlapQuery global;
    global.aggregations = {OlapAggregation::Count("n"),
                           OlapAggregation::Min("fare", "lo"),
                           OlapAggregation::Max("fare", "hi")};
    queries.push_back(global);
    OlapQuery select;
    select.select_columns = {"ride_id", "city", "fare"};
    select.filters = {FilterPredicate::Eq("city", Value("sf"))};
    select.order_by = "ride_id";
    select.order_desc = false;
    queries.push_back(select);
    OlapQuery ranged;
    ranged.aggregations = {OlapAggregation::Count("n")};
    ranged.filters = {FilterPredicate::Range("ride_id", FilterPredicate::Op::kGe,
                                             Value(int64_t{200}))};
    queries.push_back(ranged);
    return queries;
  }

  std::vector<std::string> RunParitySet(const std::vector<OlapQuery>& queries,
                                        OlapQueryStats* total = nullptr) {
    std::vector<std::string> fps;
    for (const OlapQuery& query : queries) {
      Result<OlapResult> result = cluster_->Query("rides_t", query);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) {
        fps.push_back("<error>");
        continue;
      }
      if (total != nullptr) {
        total->segments_hot += result.value().stats.segments_hot;
        total->segments_warm += result.value().stats.segments_warm;
        total->segments_cold += result.value().stats.segments_cold;
        total->columns_materialized += result.value().stats.columns_materialized;
      }
      // Scalar oracle must agree in every tier.
      OlapQuery scalar = query;
      scalar.force_scalar = true;
      Result<OlapResult> oracle = cluster_->Query("rides_t", scalar);
      EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
      if (oracle.ok()) {
        EXPECT_EQ(Fingerprint(result.value()), Fingerprint(oracle.value()));
      }
      fps.push_back(Fingerprint(result.value()));
    }
    return fps;
  }

  void ProduceEpochs(int epochs = 6) {
    const char* cities[] = {"sf", "nyc", "la", "chi", "sea"};
    for (int epoch = 0; epoch < epochs; ++epoch) {
      for (int i = 0; i < 100; ++i) {
        ProduceRide(epoch * 1000 + i, cities[(epoch + i) % 5], 5.0 + i % 7,
                    100000 * epoch + i);
      }
    }
  }

  common::FaultInjector store_faults_;  // outlives the store it is attached to
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<storage::InMemoryObjectStore> store_;
  std::unique_ptr<common::Executor> executor_;
  std::unique_ptr<OlapCluster> cluster_;
};

// Tentpole round trip: seal (deferred indexes) -> background compaction ->
// demote to warm -> query (lazy materialization) -> demote to cold ->
// query (store reload / promotion). Results are bitwise-identical to the
// all-hot fingerprints at every stage, and the tier gauges/counters track.
TEST_F(OlapTieringTest, RoundTripLifecycleParity) {
  ProduceEpochs();
  TableConfig table = RideTable();
  table.deferred_index_build = true;
  ASSERT_TRUE(cluster_->CreateTable(table, "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  // Background compaction rebuilds the deferred inverted indexes off the
  // write path; a second pump finds nothing left to claim.
  Result<int64_t> compacted = cluster_->CompactOnce("rides_t");
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_GT(compacted.value(), 0);
  EXPECT_EQ(cluster_->CompactOnce("rides_t").value(), 0);

  const std::vector<OlapQuery> queries = ParityQueries();
  OlapQueryStats hot_stats;
  const std::vector<std::string> hot_fps = RunParitySet(queries, &hot_stats);
  EXPECT_GT(hot_stats.segments_hot, 0);
  EXPECT_EQ(hot_stats.segments_warm + hot_stats.segments_cold, 0);
  const int64_t hot_bytes = cluster_->MemoryBytes("rides_t").value();

  // All warm: packed frames resident, columns decode lazily on first touch.
  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 1 << 20).ok());
  EXPECT_GT(cluster_->metrics()->GetGauge("olap.tier.warm_bytes")->value(), 0);
  EXPECT_GT(cluster_->metrics()->GetCounter("olap.tier.demotions")->value(), 0);
  const int64_t warm_bytes_before_queries = cluster_->MemoryBytes("rides_t").value();
  EXPECT_LT(warm_bytes_before_queries, hot_bytes);
  OlapQueryStats warm_stats;
  EXPECT_EQ(RunParitySet(queries, &warm_stats), hot_fps);
  EXPECT_GT(warm_stats.segments_warm, 0);
  EXPECT_EQ(warm_stats.segments_cold, 0);
  EXPECT_GT(warm_stats.columns_materialized, 0);
  EXPECT_GT(cluster_->metrics()->GetCounter("olap.tier.materializations")->value(), 0);

  // All cold: frames evicted to the store (put-if-absent), only prune info
  // and validity stay resident. The first query per segment reloads.
  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  EXPECT_GT(cluster_->metrics()->GetGauge("olap.tier.cold_bytes")->value(), 0);
  const int64_t cold_bytes = cluster_->MemoryBytes("rides_t").value();
  EXPECT_LT(cold_bytes, warm_bytes_before_queries);
  EXPECT_LT(cold_bytes, hot_bytes / 2);
  EXPECT_FALSE(store_->List("segments/rides_t/").empty());
  OlapQueryStats cold_stats;
  EXPECT_EQ(RunParitySet(queries, &cold_stats), hot_fps);
  EXPECT_GT(cold_stats.segments_cold, 0);
  EXPECT_GT(cluster_->metrics()->GetCounter("olap.tier.promotions")->value(), 0);

  // Promoted segments serve warm now — no second reload.
  OlapQueryStats again_stats;
  EXPECT_EQ(RunParitySet(queries, &again_stats), hot_fps);
  EXPECT_EQ(again_stats.segments_cold, 0);
  EXPECT_GT(again_stats.segments_warm, 0);
}

// Plan-time pruning must never touch a demoted segment's bytes: with every
// segment cold and the store hard-down, a fully-prunable query still
// succeeds (prune info is always resident) and materializes nothing.
TEST_F(OlapTieringTest, PruningNeverMaterializesDemotedSegments) {
  ProduceEpochs();
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());
  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());

  store_faults_.SetDown("store", true);  // any reload attempt would fail loudly
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  query.filters = {FilterPredicate::Eq("ride_id", Value(int64_t{999999999}))};
  Result<OlapResult> result = cluster_->Query("rides_t", query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows[0][0].AsInt(), 0);
  EXPECT_EQ(result.value().stats.segments_scanned, 0);
  EXPECT_EQ(result.value().stats.segments_cold, 0);
  EXPECT_EQ(result.value().stats.columns_materialized, 0);
  EXPECT_GT(result.value().stats.segments_pruned, 0);
  store_faults_.SetDown("store", false);
}

// warm -> cold eviction requires a durable blob: while the store is down
// the demotion fails, the segment stays warm and queries keep working; the
// moment the store heals the eviction completes.
TEST_F(OlapTieringTest, ColdEvictionRequiresDurableBlob) {
  ProduceEpochs(2);
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());
  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 1 << 20).ok());

  store_faults_.SetDown("store", true);
  EXPECT_FALSE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  EXPECT_GT(cluster_->metrics()->GetGauge("olap.tier.warm_bytes")->value(), 0);
  OlapQuery query;
  query.aggregations = {OlapAggregation::Count("n")};
  Result<OlapResult> during = cluster_->Query("rides_t", query);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during.value().rows[0][0].AsInt(), 200);

  store_faults_.SetDown("store", false);
  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  EXPECT_GT(cluster_->metrics()->GetGauge("olap.tier.cold_bytes")->value(), 0);
  Result<OlapResult> after = cluster_->Query("rides_t", query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows[0][0].AsInt(), 200);
}

// The acceptance bar: with the budget set to 40% of the all-hot footprint,
// enforcement demotes by query recency until the cluster fits within 1.1x
// the budget, and every query still returns the all-hot fingerprints.
TEST_F(OlapTieringTest, BudgetEnforcementKeepsParity) {
  ProduceEpochs();
  ASSERT_TRUE(cluster_->CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());

  const std::vector<OlapQuery> queries = ParityQueries();
  const std::vector<std::string> hot_fps = RunParitySet(queries);
  const int64_t all_hot = cluster_->lifecycle()->ManagedBytes();
  ASSERT_GT(all_hot, 0);

  const int64_t budget = all_hot * 2 / 5;  // 40% of the all-hot footprint
  cluster_->SetMemoryBudget(budget);
  EXPECT_GT(cluster_->EnforceMemoryBudget(), 0);
  EXPECT_LE(cluster_->lifecycle()->BudgetedBytes(), budget * 11 / 10);
  EXPECT_GT(cluster_->metrics()->GetCounter("olap.tier.demotions")->value(), 0);

  // Queries promote/materialize as needed; the automatic post-query
  // enforcement keeps the cluster inside the budget envelope throughout.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(RunParitySet(queries), hot_fps) << "round " << round;
    EXPECT_LE(cluster_->lifecycle()->BudgetedBytes(), budget * 11 / 10)
        << "round " << round;
  }
  const int64_t hot_gauge =
      cluster_->metrics()->GetGauge("olap.tier.hot_bytes")->value();
  const int64_t warm_gauge =
      cluster_->metrics()->GetGauge("olap.tier.warm_bytes")->value();
  EXPECT_LE(hot_gauge + warm_gauge, budget * 11 / 10);
}

// TSan target: queries race tier demotions and a compaction swap. Every
// query must observe exact counts no matter which representation it pins.
TEST_F(OlapTieringTest, QueriesRaceDemotionsAndCompaction) {
  ProduceEpochs(4);
  TableConfig table = RideTable();
  table.deferred_index_build = true;
  ASSERT_TRUE(cluster_->CreateTable(table, "rides", FourServers()).ok());
  ASSERT_TRUE(cluster_->IngestAll("rides_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("rides_t").ok());
  const int64_t expect_rows = 400;

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      OlapQuery query;
      query.aggregations = {OlapAggregation::Count("n")};
      for (int i = 0; i < 40; ++i) {
        Result<OlapResult> result = cluster_->Query("rides_t", query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result.value().rows[0][0].AsInt(), expect_rows);
      }
    });
  }
  ASSERT_TRUE(cluster_->CompactOnce("rides_t").ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 1 << 20).ok());
    ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  }
  for (std::thread& t : readers) t.join();

  OlapQuery final_query;
  final_query.aggregations = {OlapAggregation::Count("n")};
  EXPECT_EQ(cluster_->Query("rides_t", final_query).value().rows[0][0].AsInt(),
            expect_rows);
}

// Upsert correctness across the full lifecycle: overwritten rows stay dead
// through demotion, cold eviction, server loss and store-path recovery
// (the replay rebuilds validity; archived snapshots are never trusted).
TEST_F(OlapTieringTest, UpsertRecoveryAcrossTiers) {
  TopicConfig topic;
  topic.num_partitions = 4;
  ASSERT_TRUE(broker_->CreateTopic("fares", topic).ok());
  TableConfig table;
  table.name = "fares_t";
  table.schema = RowSchema({{"ride_id", ValueType::kString},
                            {"fare", ValueType::kDouble}});
  table.segment_rows_threshold = 10;
  table.upsert_enabled = true;
  table.primary_key_column = "ride_id";
  ClusterTableOptions one_server;
  one_server.num_servers = 1;  // no peers: recovery must go via the store
  ASSERT_TRUE(cluster_->CreateTable(table, "fares", one_server).ok());

  auto produce = [&](int id, double fare) {
    Message m;
    m.key = "ride" + std::to_string(id);
    m.value = EncodeRow({Value("ride" + std::to_string(id)), Value(fare)});
    m.timestamp = 1;
    ASSERT_TRUE(broker_->Produce("fares", std::move(m)).ok());
  };
  for (int id = 0; id < 60; ++id) produce(id, 10.0 + id);
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());
  // Overwrite a third of the keys AFTER their segments sealed (and after
  // the seal-time validity snapshot was archived — the snapshot is stale).
  ASSERT_TRUE(cluster_->DrainArchivalQueue("fares_t").ok());
  for (int id = 0; id < 60; id += 3) produce(id, 999.0);
  ASSERT_TRUE(cluster_->IngestAll("fares_t").ok());
  ASSERT_TRUE(cluster_->ForceSeal("fares_t").ok());
  ASSERT_TRUE(cluster_->DrainArchivalQueue("fares_t").ok());

  auto check = [&](const std::string& stage) {
    OlapQuery count;
    count.aggregations = {OlapAggregation::Count("n")};
    Result<OlapResult> total = cluster_->Query("fares_t", count);
    ASSERT_TRUE(total.ok()) << stage << ": " << total.status().ToString();
    EXPECT_EQ(total.value().rows[0][0].AsInt(), 60) << stage;
    OlapQuery lookup;
    lookup.select_columns = {"fare"};
    lookup.filters = {FilterPredicate::Eq("ride_id", Value("ride3"))};
    Result<OlapResult> hit = cluster_->Query("fares_t", lookup);
    ASSERT_TRUE(hit.ok()) << stage;
    ASSERT_EQ(hit.value().rows.size(), 1u) << stage;
    EXPECT_DOUBLE_EQ(hit.value().rows[0][0].AsDouble(), 999.0) << stage;
  };
  check("all hot");

  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  check("all cold");

  ASSERT_TRUE(cluster_->KillServer("fares_t", 0).ok());
  Result<RecoveryReport> report = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().segments_lost, 0);
  EXPECT_GT(report.value().segments_from_store, 0);
  check("post recovery");

  // Idempotent recovery: HasSegment (hash set) dedupes a second pass.
  Result<RecoveryReport> again = cluster_->RecoverServer("fares_t", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().segments_from_store, 0);
  EXPECT_EQ(again.value().segments_from_peers, 0);
  check("double recovery");

  ASSERT_TRUE(cluster_->lifecycle()->ApplyTierTargets(0, 0).ok());
  check("cold after recovery");
}

// The result cache is a byte-capped LRU: a hit refreshes recency, inserts
// evict from the cold end, and the gauge tracks the resident bytes.
TEST_F(OlapTieringTest, ResultCacheLruByteCap) {
  ProduceEpochs(2);
  OlapClusterOptions options;
  options.result_cache_max_bytes = 8192;
  OlapCluster capped(broker_.get(), store_.get(), executor_.get(), options);
  ASSERT_TRUE(capped.CreateTable(RideTable(), "rides", FourServers()).ok());
  ASSERT_TRUE(capped.IngestAll("rides_t").ok());

  // Three ~3.2 KB results: two fit under the cap together, three never do.
  auto make_query = [](int64_t min_id) {
    OlapQuery query;
    query.use_cache = true;
    query.select_columns = {"ride_id", "city", "fare"};
    query.filters = {FilterPredicate::Range("ride_id", FilterPredicate::Op::kGe,
                                            Value(min_id))};
    query.order_by = "ride_id";
    query.order_desc = false;
    query.limit = 48;
    return query;
  };
  auto from_cache = [&](const OlapQuery& query) {
    Result<OlapResult> result = capped.Query("rides_t", query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() && result.value().stats.from_cache;
  };
  const OlapQuery qa = make_query(0), qb = make_query(1), qc = make_query(2);

  EXPECT_FALSE(from_cache(qa));  // cache A
  EXPECT_FALSE(from_cache(qb));  // cache B (A older)
  const int64_t two_entries =
      capped.metrics()->GetGauge("olap.result_cache.bytes")->value();
  EXPECT_GT(two_entries, 0);
  EXPECT_LE(two_entries, options.result_cache_max_bytes);

  EXPECT_TRUE(from_cache(qa));   // hit moves A to the front; B is now LRU
  EXPECT_FALSE(from_cache(qc));  // cache C -> evicts B, keeps A
  EXPECT_TRUE(from_cache(qa));
  EXPECT_FALSE(from_cache(qb));  // B was evicted
  EXPECT_LE(capped.metrics()->GetGauge("olap.result_cache.bytes")->value(),
            options.result_cache_max_bytes);
}

}  // namespace
}  // namespace uberrt::olap
