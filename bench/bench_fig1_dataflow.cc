// F1 — Figure 1: the high-level data flow at Uber. Events from producers
// stream into Kafka; from there they flow both to the real-time path
// (Flink -> Pinot -> dashboards/Presto) and to the batch path (archival
// store -> Hive-like tables). This harness drives one payload of trips
// through every edge of the figure and prints per-stage counts.

#include <mutex>

#include "bench_util.h"
#include "core/platform.h"
#include "sql/engine.h"
#include "storage/archive.h"
#include "workload/generators.h"

namespace uberrt {

int Main() {
  bench::Header("F1", "high-level data flow: producers -> stream -> "
                      "{real-time, batch} -> analytics",
                "Figure 1: streams are the source of truth feeding both the "
                "real-time path and the data lake");
  constexpr int64_t kEvents = 4'000;
  core::RealtimePlatform platform;
  RowSchema schema = workload::TripEventGenerator::Schema();
  platform.ProvisionTopic("trips", schema, 4, "fig1").ok();

  // Real-time path: FlinkSQL rollup into a Pinot table.
  platform
      .SubmitSqlJob(
          "SELECT hex, window_start, COUNT(*) AS trips, SUM(fare) AS revenue "
          "FROM trips GROUP BY hex, TUMBLE(ts, INTERVAL '1' MINUTE)",
          "trips_rollup", "fig1")
      .ok();
  olap::TableConfig table;
  table.name = "trips_olap";
  table.segment_rows_threshold = 500;
  platform.ProvisionOlapTable(table, "trips_rollup", olap::ClusterTableOptions(),
                              "fig1").ok();

  // Batch path: raw stream archived into the Hive-like table.
  storage::ArchiveTable lake(platform.store(), "trips_lake", schema);
  sql::Catalog* catalog = platform.catalog();
  catalog->Register("trips_lake",
                    std::make_unique<sql::ArchiveConnector>(&lake));

  // Produce.
  workload::TripEventGenerator generator({});
  int64_t produced = generator.Produce(platform.streams(), "trips", kEvents).value();

  // Archive consumer (the "incrementally archived" edge): drain raw topic.
  std::vector<Row> raw_rows;
  for (int32_t p = 0; p < 4; ++p) {
    int64_t offset = 0;
    while (true) {
      auto batch = platform.streams()->FetchViews("trips", p, offset, 4096);
      if (!batch.ok() || batch.value().empty()) break;
      for (const stream::wire::MessageView& m : batch.value().messages) {
        offset = m.offset + 1;
        Result<Row> row = DecodeRow(m.value);
        if (row.ok()) raw_rows.push_back(std::move(row.value()));
      }
    }
  }
  lake.AppendBatch("2020-10-01", raw_rows).ok();

  // Drain the real-time path.
  std::string job_id;
  for (const compute::JobInfo& info : platform.jobs()->ListJobs()) job_id = info.id;
  compute::JobRunner* runner = platform.jobs()->GetRunner(job_id);
  runner->WaitUntilCaughtUp(60'000).ok();
  runner->RequestFinish();
  runner->AwaitTermination(60'000).ok();
  platform.PumpUntilIngested().ok();

  // Analytics at the top of the figure: PrestoSQL over both paths.
  auto realtime = platform.Query(
      "SELECT SUM(trips) AS trips, SUM(revenue) AS revenue FROM trips_olap",
      "fig1");
  auto batch = platform.Query(
      "SELECT COUNT(*) AS rows_in_lake FROM trips_lake", "fig1");

  std::printf("%-44s %12s\n", "stage (Figure 1 edge)", "count");
  std::printf("%-44s %12lld\n", "producers -> kafka (messages)",
              static_cast<long long>(produced));
  std::printf("%-44s %12lld\n", "kafka -> archival (rows in lake)",
              static_cast<long long>(raw_rows.size()));
  std::printf("%-44s %12lld\n", "kafka -> flink (records processed)",
              static_cast<long long>(runner->RecordsIn()));
  std::printf("%-44s %12lld\n", "flink -> pinot (rollup rows)",
              static_cast<long long>(
                  platform.olap()->NumRows("trips_olap").value()));
  std::printf("%-44s %12.0f\n", "presto over pinot (SUM(trips))",
              realtime.ok() ? realtime.value().rows[0][0].ToNumeric() : -1.0);
  std::printf("%-44s %12.0f\n", "presto over hive (rows)",
              batch.ok() ? batch.value().rows[0][0].ToNumeric() : -1.0);
  bench::Note("SUM(trips) across the real-time path equals the messages that "
              "reached Kafka; the lake holds the identical raw stream");
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
