// C4 — Section 4.3 comparison: "Elasticsearch's memory usage was 4x higher
// and disk usage was 8x higher than Pinot. In addition, Elasticsearch's
// query latency was 2x-4x higher than Pinot, benchmarked with a combination
// of filters, aggregation and group by/order by queries."
//
// Ingests the identical Eats order stream into the Pinot-like columnar
// store and the ES-like document store and reports the three ratios.

#include <memory>

#include "bench_util.h"
#include "olap/baselines.h"
#include "olap/cluster.h"
#include "stream/broker.h"
#include "workload/generators.h"

namespace uberrt {
namespace {

using olap::EsLikeStore;
using olap::FilterPredicate;
using olap::OlapAggregation;
using olap::OlapQuery;

std::vector<OlapQuery> QuerySet() {
  // "a combination of filters, aggregation and group by/order by queries".
  std::vector<OlapQuery> queries;
  {
    OlapQuery q;  // filter + count
    q.aggregations = {OlapAggregation::Count("n")};
    q.filters = {FilterPredicate::Eq("restaurant_id", Value(int64_t{3}))};
    queries.push_back(q);
  }
  {
    OlapQuery q;  // range filter + aggregation
    q.aggregations = {OlapAggregation::Sum("total", "sales"),
                      OlapAggregation::Avg("total", "avg")};
    q.filters = {FilterPredicate::Range("ts", FilterPredicate::Op::kGe,
                                        Value(int64_t{30'000}))};
    queries.push_back(q);
  }
  {
    OlapQuery q;  // group by + order by + limit
    q.group_by = {"item"};
    q.aggregations = {OlapAggregation::Sum("total", "sales")};
    q.order_by = "sales";
    q.order_desc = true;
    q.limit = 5;
    queries.push_back(q);
  }
  {
    OlapQuery q;  // multi-filter group by
    q.group_by = {"city"};
    q.aggregations = {OlapAggregation::Count("orders")};
    q.filters = {FilterPredicate::Eq("status", Value("delivered")),
                 FilterPredicate::Range("total", FilterPredicate::Op::kGt,
                                        Value(20.0))};
    queries.push_back(q);
  }
  return queries;
}

}  // namespace

int Main() {
  bench::Header("C4", "Pinot-like columnar store vs Elasticsearch-like doc store",
                "ES memory 4x, disk 8x, query latency 2x-4x vs Pinot");

  constexpr int64_t kRows = 60'000;
  stream::Broker broker("c1");
  storage::InMemoryObjectStore store;
  stream::TopicConfig topic;
  topic.num_partitions = 4;
  broker.CreateTopic("orders", topic).ok();
  workload::EatsOrderGenerator generator({});
  generator.Produce(&broker, "orders", kRows).ok();

  // Pinot-like table (inverted index on the dashboard dimensions).
  olap::OlapCluster cluster(&broker, &store);
  olap::TableConfig table;
  table.name = "orders_t";
  table.schema = workload::EatsOrderGenerator::Schema();
  table.time_column = "ts";
  table.segment_rows_threshold = 10'000;
  // The dashboard-style config of Section 5.2: time-sorted segments,
  // inverted indexes on the filter dimensions and a star-tree over the
  // group-by dimensions.
  table.index_config.sorted_column = "ts";
  table.index_config.inverted_columns = {"restaurant_id", "status", "city"};
  table.index_config.star_tree_dimensions = {"restaurant_id", "item", "city"};
  table.index_config.star_tree_metrics = {"total"};
  cluster.CreateTable(table, "orders").ok();
  cluster.IngestAll("orders_t", 10'000).ok();
  cluster.ForceSeal("orders_t").ok();
  cluster.DrainArchivalQueue("orders_t").ok();

  // ES-like store ingesting the same rows.
  olap::EsLikeStore es(workload::EatsOrderGenerator::Schema());
  for (int32_t p = 0; p < 4; ++p) {
    int64_t offset = 0;
    while (true) {
      auto batch = broker.FetchViews("orders", p, offset, 4096);
      if (!batch.ok() || batch.value().empty()) break;
      for (const stream::wire::MessageView& m : batch.value().messages) {
        offset = m.offset + 1;
        Result<Row> row = DecodeRow(m.value);
        if (row.ok()) es.Ingest(row.value()).ok();
      }
    }
  }

  int64_t pinot_memory = cluster.MemoryBytes("orders_t").value();
  int64_t es_memory_pre = es.MemoryBytes();

  // Latency over the mixed query set (warm: fielddata materializes once).
  std::vector<OlapQuery> queries = QuerySet();
  for (const OlapQuery& q : queries) {
    cluster.Query("orders_t", q).ok();
    es.Query(q).ok();
  }
  bench::JsonReport report(
      "c4", "ES memory 4x, disk 8x, query latency 2x-4x vs Pinot (Section 4.3)");
  double pinot_us = 0, es_us = 0;
  std::printf("%-34s %12s %12s %8s\n", "query", "pinot_us", "es_us", "ratio");
  const char* names[] = {"filter_count", "range_agg", "groupby_orderby_limit",
                         "multifilter_groupby"};
  for (size_t i = 0; i < queries.size(); ++i) {
    double p_us = bench::MeanUs(20, [&] { cluster.Query("orders_t", queries[i]).ok(); });
    double e_us = bench::MeanUs(20, [&] { es.Query(queries[i]).ok(); });
    pinot_us += p_us;
    es_us += e_us;
    std::printf("%-34s %12.1f %12.1f %7.2fx\n", names[i], p_us, e_us, e_us / p_us);
    report.Metric(std::string(names[i]) + "_pinot_us", p_us);
    report.Metric(std::string(names[i]) + "_es_us", e_us);
  }
  (void)es_memory_pre;
  int64_t es_memory = es.MemoryBytes();  // includes fielddata now loaded

  // Disk: serialized columnar segments vs docs + postings.
  int64_t pinot_disk = 0;
  for (const std::string& key : store.List("segments/orders_t/")) {
    pinot_disk += static_cast<int64_t>(store.Get(key).value().size());
  }
  int64_t es_disk = es.DiskBytes();

  std::printf("\n%-22s %14s %14s %8s  (paper)\n", "metric", "pinot", "es_like",
              "ratio");
  std::printf("%-22s %14lld %14lld %7.2fx  (4x)\n", "memory_bytes",
              static_cast<long long>(pinot_memory), static_cast<long long>(es_memory),
              static_cast<double>(es_memory) / pinot_memory);
  std::printf("%-22s %14lld %14lld %7.2fx  (8x)\n", "disk_bytes",
              static_cast<long long>(pinot_disk), static_cast<long long>(es_disk),
              static_cast<double>(es_disk) / pinot_disk);
  std::printf("%-22s %14.1f %14.1f %7.2fx  (2x-4x)\n", "mean_query_latency_us",
              pinot_us / queries.size(), es_us / queries.size(), es_us / pinot_us);
  report.Metric("memory_ratio", static_cast<double>(es_memory) / pinot_memory);
  report.Metric("disk_ratio", static_cast<double>(es_disk) / pinot_disk);
  report.Metric("mean_latency_ratio", es_us / pinot_us);
  report.Write();
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
