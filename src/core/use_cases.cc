#include "core/use_cases.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace uberrt::core {

// --- SurgePricingApp ---------------------------------------------------------

constexpr char SurgePricingApp::kActor[];

SurgePricingApp::SurgePricingApp(RealtimePlatform* platform, Options options)
    : platform_(platform), options_(options) {}

Status SurgePricingApp::Start() {
  RowSchema schema = workload::TripEventGenerator::Schema();
  // Freshness over consistency: non-lossless topic (Section 5.1).
  UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(
      options_.trips_topic, schema, options_.partitions, kActor, /*lossless=*/false));

  compute::JobGraph graph("surge");
  compute::SourceSpec source;
  source.topic = options_.trips_topic;
  source.schema = schema;
  source.time_field = "ts";
  graph.AddSource(source);
  // Flag demand (ride requests) vs supply (completed trips freeing a
  // driver) so the window can sum both in one pass.
  RowSchema flagged({{"hex", ValueType::kString},
                     {"demand", ValueType::kInt},
                     {"supply", ValueType::kInt},
                     {"ts", ValueType::kInt}});
  graph.Map(
      "flag_demand_supply",
      [](const Row& row) {
        const std::string& status = row[4].AsString();
        int64_t demand = status == "requested" ? 1 : 0;
        int64_t supply = status == "completed" || status == "accepted" ? 1 : 0;
        return Row{row[1], Value(demand), Value(supply), row[6]};
      },
      flagged);
  graph.WindowAggregate("demand_supply_window", {"hex"},
                        compute::WindowSpec::Tumbling(options_.window_ms),
                        {compute::AggregateSpec::Sum("demand", "demand"),
                         compute::AggregateSpec::Sum("supply", "supply")});
  // "Complex machine-learning based algorithm" stand-in: a pricing function
  // of the demand/supply imbalance, clamped to [1, 5].
  double alpha = options_.alpha;
  RowSchema priced({{"hex", ValueType::kString},
                    {"window_start", ValueType::kInt},
                    {"multiplier", ValueType::kDouble}});
  graph.Map(
      "pricing_model",
      [alpha](const Row& row) {
        double demand = row[2].ToNumeric();
        double supply = std::max(1.0, row[3].ToNumeric());
        double imbalance = std::max(0.0, demand / supply - 1.0);
        double multiplier = std::min(5.0, 1.0 + alpha * imbalance);
        return Row{row[0], row[1], Value(multiplier)};
      },
      priced);
  graph.SinkToCollector([this](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu_);
    multipliers_[row[0].AsString()] = row[2].AsDouble();
    ++windows_computed_;
  });

  // No periodic checkpoints: after failover the state is recomputed from
  // the aggregate stream (Figure 6), so surge never touches Storage.
  compute::JobRunnerOptions runner_options;
  runner_options.periodic_checkpoints = false;
  Result<std::string> id = platform_->SubmitJob(graph, kActor, runner_options);
  if (!id.ok()) return id.status();
  job_id_ = id.value();
  return Status::Ok();
}

double SurgePricingApp::GetMultiplier(const std::string& hex) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = multipliers_.find(hex);
  return it == multipliers_.end() ? 1.0 : it->second;
}

std::map<std::string, double> SurgePricingApp::Multipliers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return multipliers_;
}

int64_t SurgePricingApp::windows_computed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_computed_;
}

// --- RestaurantManagerApp ------------------------------------------------------

constexpr char RestaurantManagerApp::kActor[];

RestaurantManagerApp::RestaurantManagerApp(RealtimePlatform* platform, Options options)
    : platform_(platform), options_(options) {}

Status RestaurantManagerApp::Start() {
  RowSchema schema = workload::EatsOrderGenerator::Schema();
  UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(options_.orders_topic, schema,
                                                   options_.partitions, kActor));
  // FlinkSQL preprocessing: aggressive filtering + partial aggregates
  // (Section 5.2) rolled up per restaurant/item/minute.
  std::string sql =
      "SELECT restaurant_id, item, window_start, COUNT(*) AS orders, "
      "SUM(total) AS sales "
      "FROM " + options_.orders_topic + " " +
      "WHERE status <> 'abandoned' "
      "GROUP BY restaurant_id, item, TUMBLE(ts, INTERVAL '1' MINUTE)";
  Result<std::string> job = platform_->SubmitSqlJob(sql, options_.rollup_topic, kActor);
  if (!job.ok()) return job.status();
  job_id_ = job.value();

  // Pinot table over the rollup with a star-tree on the dashboard's
  // dimensions — the pre-aggregation indices of Section 5.2.
  olap::TableConfig table;
  table.name = options_.table;
  table.time_column = "window_start";
  table.segment_rows_threshold = 100;
  table.index_config.inverted_columns = {"restaurant_id"};
  table.index_config.star_tree_dimensions = {"restaurant_id", "item"};
  table.index_config.star_tree_metrics = {"orders", "sales"};
  return platform_->ProvisionOlapTable(std::move(table), options_.rollup_topic,
                                       olap::ClusterTableOptions(), kActor);
}

Result<sql::QueryResult> RestaurantManagerApp::TopItems(int64_t restaurant_id,
                                                        int64_t limit) {
  std::ostringstream sql;
  sql << "SELECT item, SUM(sales) AS total_sales FROM " << options_.table
      << " WHERE restaurant_id = " << restaurant_id
      << " GROUP BY item ORDER BY total_sales DESC LIMIT " << limit;
  return platform_->Query(sql.str(), kActor);
}

Result<sql::QueryResult> RestaurantManagerApp::SalesTimeseries(int64_t restaurant_id) {
  std::ostringstream sql;
  sql << "SELECT window_start, SUM(sales) AS sales, SUM(orders) AS orders FROM "
      << options_.table << " WHERE restaurant_id = " << restaurant_id
      << " GROUP BY window_start ORDER BY window_start ASC";
  return platform_->Query(sql.str(), kActor);
}

Result<olap::OlapResult> RestaurantManagerApp::SalesByItemOlap(int64_t restaurant_id) {
  olap::OlapQuery query;
  query.filters.push_back(
      olap::FilterPredicate::Eq("restaurant_id", Value(restaurant_id)));
  query.group_by = {"item"};
  query.aggregations = {AggregateSpec::Sum("sales", "total_sales"),
                        AggregateSpec::Sum("orders", "orders")};
  return platform_->QueryOlap(options_.table, query, kActor);
}

// --- PredictionMonitoringApp -----------------------------------------------------

constexpr char PredictionMonitoringApp::kActor[];

PredictionMonitoringApp::PredictionMonitoringApp(RealtimePlatform* platform,
                                                 Options options)
    : platform_(platform), options_(options) {}

Status PredictionMonitoringApp::Start() {
  RowSchema pred_schema = workload::PredictionGenerator::PredictionSchema();
  RowSchema outcome_schema = workload::PredictionGenerator::OutcomeSchema();
  UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(
      options_.predictions_topic, pred_schema, options_.partitions, kActor));
  UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(
      options_.outcomes_topic, outcome_schema, options_.partitions, kActor));

  // API-layer join pipeline: predictions x outcomes -> absolute error ->
  // per-model window aggregates (the OLAP cube feed).
  compute::JobGraph graph("prediction_monitoring");
  compute::SourceSpec predictions;
  predictions.topic = options_.predictions_topic;
  predictions.schema = pred_schema;
  predictions.time_field = "ts";
  predictions.out_of_orderness_ms = 5000;
  compute::SourceSpec outcomes;
  outcomes.topic = options_.outcomes_topic;
  outcomes.schema = outcome_schema;
  outcomes.time_field = "ts";
  outcomes.out_of_orderness_ms = 5000;
  graph.AddSource(predictions).AddSource(outcomes);
  graph.WindowJoin("join_labels", {"prediction_id"},
                   compute::WindowSpec::Tumbling(options_.window_ms),
                   /*allowed_lateness_ms=*/0, options_.parallelism);
  // Joined: [prediction_id, model_id, predicted, ts, actual].
  RowSchema errors({{"model_id", ValueType::kString},
                    {"abs_error", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
  graph.Map(
      "abs_error",
      [](const Row& row) {
        double err = std::fabs(row[2].ToNumeric() - row[4].ToNumeric());
        return Row{row[1], Value(err), row[3]};
      },
      errors, options_.parallelism);
  graph.WindowAggregate("per_model_window", {"model_id"},
                        compute::WindowSpec::Tumbling(options_.window_ms),
                        {compute::AggregateSpec::Count("n"),
                         compute::AggregateSpec::Avg("abs_error", "mae"),
                         compute::AggregateSpec::Max("abs_error", "max_error")},
                        /*allowed_lateness_ms=*/0, options_.parallelism);
  graph.SinkToTopic(options_.metrics_topic);

  // Provision the metrics topic with the job's output schema, then the
  // pre-aggregate Pinot table over it (Section 5.3's "real-time OLAP cube").
  RowSchema metrics_schema =
      graph.SchemaAfter(static_cast<int>(graph.transforms().size()) - 1);
  UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(options_.metrics_topic,
                                                   metrics_schema, options_.partitions,
                                                   kActor));
  Result<std::string> job = platform_->SubmitJob(graph, kActor);
  if (!job.ok()) return job.status();
  job_id_ = job.value();

  olap::TableConfig table;
  table.name = options_.table;
  table.time_column = "window_start";
  table.segment_rows_threshold = 1000;
  table.index_config.inverted_columns = {"model_id"};
  return platform_->ProvisionOlapTable(std::move(table), options_.metrics_topic,
                                       olap::ClusterTableOptions(), kActor);
}

Result<sql::QueryResult> PredictionMonitoringApp::AccuracyByModel() {
  std::string sql = "SELECT model_id, AVG(mae) AS mean_abs_error, SUM(n) AS samples "
                    "FROM " + options_.table +
                    " GROUP BY model_id ORDER BY mean_abs_error DESC";
  return platform_->Query(sql, kActor);
}

Result<std::vector<std::string>> PredictionMonitoringApp::DetectAbnormalModels(
    double threshold) {
  Result<sql::QueryResult> accuracy = AccuracyByModel();
  if (!accuracy.ok()) return accuracy.status();
  std::vector<std::string> abnormal;
  int model_idx = accuracy.value().schema.FieldIndex("model_id");
  int mae_idx = accuracy.value().schema.FieldIndex("mean_abs_error");
  for (const Row& row : accuracy.value().rows) {
    if (row[static_cast<size_t>(mae_idx)].ToNumeric() > threshold) {
      abnormal.push_back(row[static_cast<size_t>(model_idx)].ToString());
    }
  }
  return abnormal;
}

// --- EatsOpsAutomationApp ---------------------------------------------------------

constexpr char EatsOpsAutomationApp::kActor[];

std::string EatsOpsAutomationApp::Alert::ToString() const {
  std::ostringstream os;
  os << "ALERT rule=" << rule << " observed=" << observed
     << " threshold=" << threshold;
  return os.str();
}

EatsOpsAutomationApp::EatsOpsAutomationApp(RealtimePlatform* platform, Options options)
    : platform_(platform), options_(options) {}

Result<sql::QueryResult> EatsOpsAutomationApp::Explore(const std::string& sql) {
  return platform_->Query(sql, kActor);
}

Status EatsOpsAutomationApp::AddRule(Rule rule) {
  if (rule.sql.empty()) return Status::InvalidArgument("rule needs a query");
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

Result<std::vector<EatsOpsAutomationApp::Alert>> EatsOpsAutomationApp::EvaluateRules() {
  std::vector<Alert> alerts;
  for (const Rule& rule : rules_) {
    Result<sql::QueryResult> result = platform_->Query(rule.sql, kActor);
    if (!result.ok()) return result.status();
    if (result.value().rows.empty() || result.value().rows[0].empty()) continue;
    double observed = result.value().rows[0][0].ToNumeric();
    bool fired = rule.alert_when_greater ? observed > rule.threshold
                                         : observed < rule.threshold;
    if (fired) alerts.push_back({rule.name, observed, rule.threshold});
  }
  return alerts;
}

Status EatsOpsAutomationApp::StartPreprocessing(const std::string& orders_topic,
                                                const std::string& sink_topic) {
  std::string sql = "SELECT city, window_start, COUNT(*) AS active_orders "
                    "FROM " + orders_topic +
                    " WHERE status <> 'delivered' AND status <> 'abandoned' "
                    "GROUP BY city, TUMBLE(ts, INTERVAL '1' MINUTE)";
  Result<std::string> job = platform_->SubmitSqlJob(sql, sink_topic, kActor);
  if (!job.ok()) return job.status();
  return Status::Ok();
}

}  // namespace uberrt::core
