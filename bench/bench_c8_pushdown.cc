// C8 — Sections 4.3.2/4.5: "predicate pushdowns and aggregation function
// pushdowns enable us to achieve sub-second query latencies for such
// PrestoSQL queries". The first connector version pushed only predicates;
// the enhanced planner pushes projection, aggregation and limit.
//
// Runs the same PrestoSQL dashboard query at the three pushdown stages and
// reports latency and rows moved from the connector into the engine.

#include <cmath>

#include "bench_util.h"
#include "common/executor.h"
#include "olap/cluster.h"
#include "sql/engine.h"
#include "stream/broker.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("C8", "PrestoSQL on Pinot: connector pushdown stages",
                "predicate + aggregation pushdown -> sub-second PrestoSQL on "
                "fresh data");
  constexpr int64_t kRows = 100'000;
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  broker.CreateTopic("orders", topic).ok();
  workload::EatsOrderGenerator generator({});
  generator.Produce(&broker, "orders", kRows).ok();

  olap::OlapCluster cluster(&broker, &store);
  olap::TableConfig table;
  table.name = "orders";
  table.schema = workload::EatsOrderGenerator::Schema();
  table.segment_rows_threshold = 20'000;
  table.index_config.inverted_columns = {"city", "status"};
  table.index_config.star_tree_dimensions = {"city", "item"};
  table.index_config.star_tree_metrics = {"total"};
  cluster.CreateTable(table, "orders").ok();
  cluster.IngestAll("orders", 20'000).ok();
  cluster.ForceSeal("orders").ok();

  sql::Catalog catalog;
  catalog.Register("orders", std::make_unique<sql::OlapConnector>(&cluster, "orders"));

  const std::string query =
      "SELECT item, COUNT(*) AS n, SUM(total) AS sales FROM orders "
      "WHERE city = 'paris' GROUP BY item ORDER BY sales DESC LIMIT 5";
  std::printf("query: %s\n\n", query.c_str());
  std::printf("%-12s %12s %14s %12s %s\n", "pushdown", "mean_us", "rows_moved",
              "preds_pushed", "agg_pushed");
  struct Level {
    const char* name;
    sql::PushdownLevel level;
  } levels[] = {{"none", sql::PushdownLevel::kNone},
                {"predicate", sql::PushdownLevel::kPredicate},
                {"full", sql::PushdownLevel::kFull}};
  // Equality up to float summation order (different merge orders produce
  // bit-level differences in the double sums).
  auto rows_equal = [](const std::vector<Row>& a, const std::vector<Row>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
      for (size_t j = 0; j < a[i].size(); ++j) {
        if (a[i][j].type() == ValueType::kString) {
          if (a[i][j].AsString() != b[i][j].AsString()) return false;
        } else if (std::abs(a[i][j].ToNumeric() - b[i][j].ToNumeric()) >
                   1e-6 * (1.0 + std::abs(a[i][j].ToNumeric()))) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<Row> reference;
  bench::JsonReport report("c8", "predicate + aggregation pushdown -> sub-second "
                                 "PrestoSQL; broker scatter-gather parallel across "
                                 "servers");
  for (const Level& level : levels) {
    sql::PrestoEngine engine(&catalog, level.level);
    sql::QueryResult sample = engine.Execute(query).value();
    if (reference.empty()) {
      reference = sample.rows;
    } else if (!rows_equal(sample.rows, reference)) {
      std::printf("!! results diverge at level %s\n", level.name);
    }
    double us = bench::MeanUs(10, [&] { engine.Execute(query).ok(); });
    std::printf("%-12s %12.1f %14lld %12lld %s\n", level.name, us,
                static_cast<long long>(sample.stats.rows_fetched),
                static_cast<long long>(sample.stats.predicates_pushed),
                sample.stats.aggregation_pushed ? "yes" : "no");
    report.Metric(std::string("pushdown_") + level.name + "_mean_us", us);
    report.Metric(std::string("pushdown_") + level.name + "_rows_moved",
                  static_cast<double>(sample.stats.rows_fetched));
  }
  bench::Note("identical results at every level; pushdown removes the bulk "
              "data transfer and lets Pinot's indexes (incl. star-tree) do "
              "the work");

  // --- Broker scatter-gather: serial vs parallel sub-queries --------------
  // A scan-heavy group-by (no star-tree to shortcut it) on a 4-server table,
  // executed once with the servers pumped inline and once fanned out to the
  // shared executor. Same rows either way; only the execution strategy moves.
  olap::TableConfig wide = table;
  wide.name = "orders_wide";
  wide.index_config.star_tree_dimensions.clear();
  wide.index_config.star_tree_metrics.clear();
  olap::ClusterTableOptions wide_options;
  wide_options.num_servers = 4;
  cluster.CreateTable(wide, "orders", wide_options).ok();
  cluster.IngestAll("orders_wide", 20'000).ok();
  cluster.ForceSeal("orders_wide").ok();

  olap::OlapQuery scan;
  scan.group_by = {"item"};
  scan.aggregations = {olap::OlapAggregation::Count("n"),
                       olap::OlapAggregation::Sum("total", "sales")};
  scan.order_by = "sales";
  cluster.SetExecutor(nullptr);
  double serial_us = bench::MeanUs(20, [&] { cluster.Query("orders_wide", scan).ok(); });
  common::ExecutorOptions pool;
  pool.num_threads = 4;
  pool.name = "executor.bench_c8";
  common::Executor executor(pool);
  cluster.SetExecutor(&executor);
  double parallel_us = bench::MeanUs(20, [&] { cluster.Query("orders_wide", scan).ok(); });
  double ratio = parallel_us > 0 ? serial_us / parallel_us : 0.0;
  std::printf("\nscatter-gather over 4 servers (scan-heavy group-by):\n");
  std::printf("  serial=%.1f us  parallel=%.1f us  speedup=%.2fx  (cores=%u)\n",
              serial_us, parallel_us, ratio, std::thread::hardware_concurrency());
  bench::Note("speedup is bounded by physical cores; on a single-core host "
              "the parallel path only adds handoff overhead");
  report.Metric("scatter_servers", 4);
  report.Metric("scatter_serial_mean_us", serial_us);
  report.Metric("scatter_parallel_mean_us", parallel_us);
  report.Metric("ratio", ratio);
  report.Write();
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
