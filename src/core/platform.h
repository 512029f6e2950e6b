#ifndef UBERRT_CORE_PLATFORM_H_
#define UBERRT_CORE_PLATFORM_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/executor.h"
#include "common/fault_injector.h"
#include "common/status.h"
#include "compute/flink_sql.h"
#include "compute/job_manager.h"
#include "metadata/schema_registry.h"
#include "olap/cluster.h"
#include "sql/engine.h"
#include "storage/archive.h"
#include "storage/object_store.h"
#include "stream/chaperone.h"
#include "stream/federation.h"

namespace uberrt::core {

/// The layer names of the paper's Figure 2 abstraction stack (and the rows
/// of Table 1).
inline constexpr const char* kLayerApi = "API";
inline constexpr const char* kLayerSql = "SQL";
inline constexpr const char* kLayerOlap = "OLAP";
inline constexpr const char* kLayerCompute = "Compute";
inline constexpr const char* kLayerStream = "Stream";
inline constexpr const char* kLayerStorage = "Storage";

/// The unified real-time data platform — the paper's overall contribution:
/// one stack (Figures 2/3) where Kafka-, Flink-, Pinot-, HDFS- and
/// Presto-equivalents are wired behind standard abstractions, with
/// self-serve provisioning (Section 9.4), schema management, audit, and
/// per-use-case layer-usage accounting (reproducing Table 1 from live
/// calls).
///
/// Every entry point takes an `actor` (use-case name); the platform records
/// which abstraction layers each actor exercised.
class RealtimePlatform {
 public:
  struct Options {
    int32_t num_stream_clusters = 2;
    int32_t cluster_topic_capacity = 100;
    int32_t olap_servers = 2;
    /// Threads in the process-wide executor every layer shares (OLAP
    /// scatter-gather, job runners, ...). 0 picks the executor default.
    size_t executor_threads = 0;
    /// Seed for the process-wide fault plane (chaos runs re-seed here).
    uint64_t fault_seed = 42;
  };

  RealtimePlatform() : RealtimePlatform(Options()) {}
  explicit RealtimePlatform(Options options);

  // --- Layer access (advanced / test use) --------------------------------
  common::Executor* executor() { return &executor_; }
  /// The process-wide fault plane: every layer consults it, so one SetRule
  /// here injects faults at any named site ("store.put", "broker.produce.*",
  /// "olap.server.query.*", "job.crash.<id>", ...).
  common::FaultInjector* faults() { return &faults_; }
  stream::KafkaFederation* streams() { return &federation_; }
  storage::InMemoryObjectStore* store() { return &store_; }
  metadata::SchemaRegistry* registry() { return &registry_; }
  compute::JobManager* jobs() { return &job_manager_; }
  olap::OlapCluster* olap() { return &olap_; }
  sql::Catalog* catalog() { return &catalog_; }
  const sql::PrestoEngine* presto() const { return &presto_; }
  stream::Chaperone* audit() { return &chaperone_; }

  // --- Provisioning (Section 9.4: seamless onboarding) --------------------

  /// Registers the schema and creates the topic on the federated cluster.
  Status ProvisionTopic(const std::string& topic, const RowSchema& schema,
                        int32_t partitions, const std::string& actor,
                        bool lossless = true);

  /// Creates a Pinot-like table ingesting from an existing topic, registers
  /// it with Presto's catalog and records lineage.
  Status ProvisionOlapTable(olap::TableConfig config, const std::string& source_topic,
                            olap::ClusterTableOptions cluster_options,
                            const std::string& actor);

  // --- Data in -------------------------------------------------------------

  /// Produces one row, audited: the `uid` header is "<actor>-<n>" with n
  /// unique per platform, `service` is the actor, and Chaperone records the
  /// uid at stage "producer" before the produce.
  Result<stream::ProduceResult> ProduceRow(const std::string& topic, const Row& row,
                                           const std::string& key,
                                           TimestampMs event_time,
                                           std::string_view actor);

  // --- Compute --------------------------------------------------------------

  /// Programmatic (API-layer) job submission.
  Result<std::string> SubmitJob(const compute::JobGraph& graph, const std::string& actor,
                                compute::JobRunnerOptions runner_options =
                                    compute::JobRunnerOptions());

  /// FlinkSQL job: compiles `sql` against the FROM topic's registered
  /// schema, provisions the sink topic with the output schema and submits.
  Result<std::string> SubmitSqlJob(const std::string& sql, const std::string& sink_topic,
                                   const std::string& actor,
                                   compute::FlinkSqlOptions sql_options =
                                       compute::FlinkSqlOptions());

  // --- Query ----------------------------------------------------------------

  /// Interactive PrestoSQL across OLAP and archive connectors.
  Result<sql::QueryResult> Query(const std::string& sql, const std::string& actor);

  /// Direct OLAP query (the limited-SQL layer).
  Result<olap::OlapResult> QueryOlap(const std::string& table,
                                     const olap::OlapQuery& query,
                                     const std::string& actor);

  // --- Operations -------------------------------------------------------------

  /// One platform pump: OLAP ingestion for all tables, job-manager tick,
  /// async archival drain.
  Status PumpOnce();
  /// Pumps until OLAP tables have zero ingest lag (jobs run on their own
  /// threads regardless).
  Status PumpUntilIngested(int32_t max_cycles = 1000);

  // --- Table 1 accounting -------------------------------------------------

  /// Layers the actor has exercised so far.
  std::set<std::string> LayersUsed(const std::string& actor) const;
  /// Renders the Table 1 matrix for the given actors (columns) in order.
  std::string RenderComponentTable(const std::vector<std::string>& actors) const;

  // --- Footprint ----------------------------------------------------------

  /// Bytes held by the platform's long-lived state: every cluster's
  /// partition logs (arenas and batch indexes), Chaperone's windows and the
  /// object store's blobs. Refreshes the platform.resident_bytes gauge.
  int64_t ResidentBytes();
  /// Registry holding platform.resident_bytes.
  MetricsRegistry* metrics() { return &metrics_; }

 private:
  void MarkUsage(std::string_view actor, const char* layer);

  // Declared first so it is destroyed last: every layer below holds a raw
  // pointer to it and may consult it while tearing down.
  common::FaultInjector faults_;
  storage::InMemoryObjectStore store_;
  stream::KafkaFederation federation_;
  metadata::SchemaRegistry registry_;
  // Declared before the components that borrow it so it is destroyed after
  // them: runners and queries may still hold tasks on it while tearing down.
  common::Executor executor_;
  olap::OlapCluster olap_;
  compute::JobManager job_manager_;
  sql::Catalog catalog_;
  sql::PrestoEngine presto_;
  stream::Chaperone chaperone_;

  std::vector<std::string> olap_tables_;
  mutable std::mutex usage_mu_;
  /// Actor -> bitmask of the layers it used (bit i = i-th Table 1 row).
  std::map<std::string, uint32_t, std::less<>> usage_;
  std::atomic<int64_t> next_uid_{0};
  MetricsRegistry metrics_;
  Gauge* resident_bytes_ = metrics_.GetGauge("platform.resident_bytes");
};

}  // namespace uberrt::core

#endif  // UBERRT_CORE_PLATFORM_H_
