#include <gtest/gtest.h>

#include "core/platform.h"
#include "core/use_cases.h"
#include "workload/generators.h"

namespace uberrt::core {
namespace {

class PlatformTest : public ::testing::Test {
 protected:
  RealtimePlatform platform_;
};

TEST_F(PlatformTest, ProvisioningRegistersSchemaAndTopic) {
  RowSchema schema({{"a", ValueType::kInt}});
  ASSERT_TRUE(platform_.ProvisionTopic("events", schema, 4, "tester").ok());
  EXPECT_TRUE(platform_.streams()->HasTopic("events"));
  EXPECT_EQ(platform_.registry()->GetLatest("events").value().schema, schema);
  // Idempotent for the same schema.
  ASSERT_TRUE(platform_.ProvisionTopic("events", schema, 4, "tester").ok());
  // Incompatible schema evolution refused at the platform boundary.
  EXPECT_FALSE(platform_
                   .ProvisionTopic("events", RowSchema({{"a", ValueType::kString}}), 4,
                                   "tester")
                   .ok());
  EXPECT_EQ(platform_.LayersUsed("tester"),
            std::set<std::string>{std::string(kLayerStream)});
}

TEST_F(PlatformTest, SqlJobFlowsIntoOlapAndPresto) {
  RowSchema schema({{"city", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  ASSERT_TRUE(platform_.ProvisionTopic("events", schema, 2, "app").ok());
  Result<std::string> job = platform_.SubmitSqlJob(
      "SELECT city, window_start, COUNT(*) AS n, SUM(v) AS total FROM events "
      "GROUP BY city, TUMBLE(ts, INTERVAL '1' MINUTE)",
      "events_rollup", "app");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  olap::TableConfig table;
  table.name = "rollup";
  ASSERT_TRUE(platform_.ProvisionOlapTable(table, "events_rollup",
                                           olap::ClusterTableOptions(), "app").ok());

  // Produce two windows of events and pump the platform end to end.
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 10; ++i) {
      Row row{Value(i % 2 ? std::string("sf") : std::string("nyc")), Value(1.5),
              Value(static_cast<int64_t>(w * 60'000 + i * 100))};
      ASSERT_TRUE(platform_.ProduceRow("events", row, row[0].AsString(),
                                       row[2].AsInt(), "app").ok());
    }
  }
  compute::JobRunner* runner = platform_.jobs()->GetRunner(job.value());
  ASSERT_NE(runner, nullptr);
  runner->RequestFinish();
  ASSERT_TRUE(runner->AwaitTermination(10'000).ok());
  ASSERT_TRUE(platform_.PumpUntilIngested().ok());

  // Query through Presto: 2 cities x 2 windows, 5 events each.
  Result<sql::QueryResult> result = platform_.Query(
      "SELECT city, SUM(n) AS events FROM rollup GROUP BY city ORDER BY city ASC",
      "analyst");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0][0].AsString(), "nyc");
  EXPECT_EQ(result.value().rows[0][1].ToNumeric(), 10);

  // Lineage threads through topic -> job -> rollup topic -> olap table.
  std::vector<std::string> downstream = platform_.registry()->Downstream("events");
  bool reaches_table = false;
  for (const std::string& node : downstream) {
    if (node == "olap:rollup") reaches_table = true;
  }
  EXPECT_TRUE(reaches_table);
  // Chaperone saw the produced events.
  EXPECT_EQ(platform_.audit()->TotalCount("producer", "events"), 20);
}

TEST_F(PlatformTest, ProduceRowUidsAreActorDashSequenceAndUnique) {
  RowSchema schema({{"a", ValueType::kInt}});
  ASSERT_TRUE(platform_.ProvisionTopic("events", schema, 3, "app").ok());
  constexpr int kRows = 300;
  for (int i = 0; i < kRows; ++i) {
    const std::string actor = i % 2 == 0 ? "app" : "restaurant_manager";
    ASSERT_TRUE(platform_
                    .ProduceRow("events", Row{Value(static_cast<int64_t>(i))},
                                "k" + std::to_string(i % 7), 1000 + i, actor)
                    .ok());
  }
  std::set<std::string> uids;
  for (int32_t p = 0; p < 3; ++p) {
    Result<stream::FetchedBatch> fetched = platform_.streams()->FetchViews("events", p, 0, 1000);
    ASSERT_TRUE(fetched.ok());
    for (const stream::wire::MessageView& view : fetched.value().messages) {
      Row row = DecodeRow(view.value).value();
      const int64_t i = row[0].AsInt();
      const std::string actor = i % 2 == 0 ? "app" : "restaurant_manager";
      std::string_view uid;
      std::string_view service;
      ASSERT_TRUE(view.GetHeader(stream::kHeaderUid, &uid));
      ASSERT_TRUE(view.GetHeader(stream::kHeaderService, &service));
      // One platform-wide sequence: row i got uid number i.
      EXPECT_EQ(uid, actor + "-" + std::to_string(i));
      EXPECT_EQ(service, actor);
      EXPECT_EQ(view.timestamp, 1000 + i);
      uids.insert(std::string(uid));
    }
  }
  EXPECT_EQ(uids.size(), static_cast<size_t>(kRows));
  // Chaperone recorded every uid once at the producer stage.
  int64_t unique = 0;
  for (const stream::WindowStats& w : platform_.audit()->GetStats("producer", "events")) {
    EXPECT_EQ(w.count, w.unique);
    unique += w.unique;
  }
  EXPECT_EQ(unique, kRows);
}

/// The full Section 5 quartet running against one platform, reproducing
/// Table 1 from live layer usage.
class UseCaseTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = std::make_unique<RealtimePlatform>();
    surge_ = std::make_unique<SurgePricingApp>(platform_.get());
    restaurant_ = std::make_unique<RestaurantManagerApp>(platform_.get());
    prediction_ = std::make_unique<PredictionMonitoringApp>(platform_.get());
    ops_ = std::make_unique<EatsOpsAutomationApp>(platform_.get());
  }

  void DriveAll() {
    ASSERT_TRUE(surge_->Start().ok());
    ASSERT_TRUE(restaurant_->Start().ok());
    ASSERT_TRUE(prediction_->Start().ok());

    workload::TripEventGenerator trips({});
    ASSERT_TRUE(trips.Produce(platform_->streams(), "trips", 600).ok());
    workload::EatsOrderGenerator orders({});
    ASSERT_TRUE(orders.Produce(platform_->streams(), "eats_orders", 600).ok());
    workload::PredictionGenerator predictions({});
    ASSERT_TRUE(predictions.ProducePairs(platform_->streams(), "predictions",
                                         "outcomes", 300).ok());
    // Seal the event time for all jobs, then drain.
    for (compute::JobInfo info : platform_->jobs()->ListJobs()) {
      compute::JobRunner* runner = platform_->jobs()->GetRunner(info.id);
      ASSERT_NE(runner, nullptr);
      ASSERT_TRUE(runner->WaitUntilCaughtUp(30'000).ok());
      runner->RequestFinish();
      ASSERT_TRUE(runner->AwaitTermination(30'000).ok());
    }
    ASSERT_TRUE(platform_->PumpUntilIngested().ok());

    // Prediction monitoring queries its cube (the SQL-layer usage of Table 1).
    ASSERT_TRUE(prediction_->AccuracyByModel().ok());

    // Ops explores and productionizes a rule (PrestoSQL on the rollup).
    ASSERT_TRUE(ops_->Explore("SELECT COUNT(*) FROM eats_rollup").ok());
    ASSERT_TRUE(ops_->AddRule({"busy", "SELECT SUM(orders) FROM eats_rollup", 1.0,
                               true}).ok());
    ASSERT_TRUE(ops_->EvaluateRules().ok());
    ASSERT_TRUE(ops_->StartPreprocessing("eats_orders", "ops_city_rollup").ok());
  }

  std::unique_ptr<RealtimePlatform> platform_;
  std::unique_ptr<SurgePricingApp> surge_;
  std::unique_ptr<RestaurantManagerApp> restaurant_;
  std::unique_ptr<PredictionMonitoringApp> prediction_;
  std::unique_ptr<EatsOpsAutomationApp> ops_;
};

TEST_F(UseCaseTableTest, ReproducesTable1ComponentMatrix) {
  DriveAll();
  // Paper Table 1, column by column.
  using Layers = std::set<std::string>;
  EXPECT_EQ(platform_->LayersUsed(SurgePricingApp::kActor),
            (Layers{kLayerApi, kLayerCompute, kLayerStream}));
  EXPECT_EQ(platform_->LayersUsed(RestaurantManagerApp::kActor),
            (Layers{kLayerSql, kLayerOlap, kLayerCompute, kLayerStream, kLayerStorage}));
  EXPECT_EQ(platform_->LayersUsed(PredictionMonitoringApp::kActor),
            (Layers{kLayerApi, kLayerSql, kLayerOlap, kLayerCompute, kLayerStream,
                    kLayerStorage}));
  EXPECT_EQ(platform_->LayersUsed(EatsOpsAutomationApp::kActor),
            (Layers{kLayerSql, kLayerOlap, kLayerCompute, kLayerStream}));
  // Rendered matrix mentions all four columns.
  std::string table = platform_->RenderComponentTable(
      {SurgePricingApp::kActor, RestaurantManagerApp::kActor,
       PredictionMonitoringApp::kActor, EatsOpsAutomationApp::kActor});
  EXPECT_NE(table.find("surge"), std::string::npos);
  EXPECT_NE(table.find("Compute"), std::string::npos);
}

TEST_F(UseCaseTableTest, SurgeComputesMultipliersPerHex) {
  DriveAll();
  EXPECT_GT(surge_->windows_computed(), 0);
  std::map<std::string, double> multipliers = surge_->Multipliers();
  ASSERT_FALSE(multipliers.empty());
  for (const auto& [hex, multiplier] : multipliers) {
    EXPECT_GE(multiplier, 1.0);
    EXPECT_LE(multiplier, 5.0);
  }
  EXPECT_DOUBLE_EQ(surge_->GetMultiplier("never-seen-hex"), 1.0);
}

TEST_F(UseCaseTableTest, RestaurantDashboardsAnswerFromPreAggregates) {
  DriveAll();
  Result<sql::QueryResult> top = restaurant_->TopItems(0);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_FALSE(top.value().rows.empty());
  EXPECT_LE(top.value().rows.size(), 5u);
  // Sales sorted descending.
  for (size_t i = 1; i < top.value().rows.size(); ++i) {
    EXPECT_GE(top.value().rows[i - 1][1].ToNumeric(),
              top.value().rows[i][1].ToNumeric());
  }
  Result<sql::QueryResult> series = restaurant_->SalesTimeseries(0);
  ASSERT_TRUE(series.ok());
  EXPECT_FALSE(series.value().rows.empty());
  // Flush the consuming buffers into indexed segments, then the star-tree
  // answers without touching raw rows.
  ASSERT_TRUE(platform_->olap()->ForceSeal("eats_rollup").ok());
  Result<olap::OlapResult> olap_direct = restaurant_->SalesByItemOlap(0);
  ASSERT_TRUE(olap_direct.ok());
  EXPECT_GT(olap_direct.value().stats.star_tree_hits, 0);
}

TEST_F(UseCaseTableTest, PredictionMonitoringDetectsBiasedModels) {
  DriveAll();
  Result<sql::QueryResult> accuracy = prediction_->AccuracyByModel();
  ASSERT_TRUE(accuracy.ok()) << accuracy.status().ToString();
  ASSERT_FALSE(accuracy.value().rows.empty());
  // The generator injects bias = 0.05 * (model_index % 5); models with
  // index % 5 == 4 carry ~0.2 error, far above the unbiased ~0.02.
  // Bias levels are 0.05 * (index % 5) = {0, .05, .10, .15, .20}; a 0.12
  // threshold should flag exactly the two highest-bias groups.
  Result<std::vector<std::string>> abnormal = prediction_->DetectAbnormalModels(0.12);
  ASSERT_TRUE(abnormal.ok());
  EXPECT_FALSE(abnormal.value().empty());
  for (const std::string& model : abnormal.value()) {
    int index = std::stoi(model.substr(5));
    EXPECT_GE(index % 5, 3) << model << " flagged but has low bias";
  }
}

TEST_F(UseCaseTableTest, OpsRulesFireOnRealData) {
  DriveAll();
  Result<std::vector<EatsOpsAutomationApp::Alert>> alerts = ops_->EvaluateRules();
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts.value().size(), 1u);  // the "busy" rule fires
  EXPECT_EQ(alerts.value()[0].rule, "busy");
  EXPECT_GT(alerts.value()[0].observed, 1.0);
}

}  // namespace
}  // namespace uberrt::core
