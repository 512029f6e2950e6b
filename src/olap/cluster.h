#ifndef UBERRT_OLAP_CLUSTER_H_
#define UBERRT_OLAP_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "olap/lifecycle.h"
#include "olap/query.h"
#include "olap/table.h"
#include "storage/object_store.h"
#include "stream/message_bus.h"

namespace uberrt::olap {

/// How sealed segments reach the archival store (Section 4.3.4).
enum class ArchivalMode {
  /// Original Pinot design: completed segments synchronously backed up
  /// through one controller; a store outage halts all ingestion.
  kSyncCentralized,
  /// Uber's contribution: seal completes immediately, replicas are served
  /// peer-to-peer, archival happens asynchronously and retries.
  kAsyncPeerToPeer,
};

struct ClusterTableOptions {
  int32_t num_servers = 2;
  ArchivalMode archival_mode = ArchivalMode::kAsyncPeerToPeer;
  /// Peer replicas kept per sealed segment in async mode.
  int32_t replication_factor = 2;
};

struct RecoveryReport {
  int64_t segments_from_peers = 0;
  int64_t segments_from_store = 0;
  int64_t segments_lost = 0;
};

/// Cluster-wide knobs (Section 4.3.4: memory is the scarce resource on
/// realtime servers; history migrates to the archival tier).
struct OlapClusterOptions {
  /// Budget for sealed-segment resident bytes plus the result caches,
  /// across every table. When exceeded, the lifecycle manager demotes
  /// segments hot->warm->cold by query recency. 0 = unlimited.
  int64_t memory_budget_bytes = 0;
  /// Byte cap for each table's broker result cache (LRU eviction).
  int64_t result_cache_max_bytes = 4 << 20;
};

/// The Pinot-like cluster: realtime servers ingesting from the stream
/// (stream partition p lives on server p % num_servers, shared-nothing) and
/// a broker executing scatter-gather-merge queries (Section 4.3). For
/// upsert tables with an equality filter on the primary key, the broker
/// routes to the single owning partition (the Section 4.3.1 routing
/// strategy) instead of fanning out.
///
/// Deterministic pump model: ingestion advances via IngestOnce()/IngestAll()
/// and async archival via DrainArchivalQueue(), so tests and benches control
/// interleaving exactly.
///
/// Concurrency model (mirrors the stream broker's topic ownership):
///   - `mu_` guards only table-map membership; tables are shared_ptr-owned,
///     so a table dropped mid-operation stays alive until in-flight callers
///     finish.
///   - Each table carries its own `rw_mu`: Query and the read-only stats
///     take it shared (queries on one table run concurrently and never
///     block queries on another table); ingestion/seal/kill/recover take it
///     exclusive.
///   - The archival queue has its own `archival_mu` (lock order:
///     rw_mu -> archival_mu) so DrainArchivalQueue never blocks queries;
///     archival frames are encoded there too, never under rw_mu.
///   - With an executor attached, Query fans the per-server sub-queries out
///     to the pool and gathers before MergeAndFinalize; without one it runs
///     the servers inline (serial baseline for the benches).
class OlapCluster {
 public:
  OlapCluster(stream::MessageBus* bus, storage::ObjectStore* segment_store,
              common::Executor* executor = nullptr,
              OlapClusterOptions options = OlapClusterOptions())
      : bus_(bus), store_(segment_store), executor_(executor), options_(options) {
    queries_executing_ = metrics_.GetGauge("olap.queries_executing");
    result_cache_bytes_ = metrics_.GetGauge("olap.result_cache.bytes");
    backup_retries_ = metrics_.GetCounter("olap.backup_retries");
    query_retries_ = metrics_.GetCounter("olap.query_retries");
    exec_batches_ = metrics_.GetCounter("olap.exec.batches");
    exec_bitmap_words_ = metrics_.GetCounter("olap.exec.bitmap_words");
    segments_pruned_ = metrics_.GetCounter("olap.segments_pruned");
    result_cache_hits_ = metrics_.GetCounter("olap.result_cache.hits");
    result_cache_misses_ = metrics_.GetCounter("olap.result_cache.misses");
    common::RetryOptions backup_opts;
    backup_opts.max_attempts = 4;
    backup_retry_ = std::make_unique<common::RetryPolicy>(
        "olap.backup", backup_opts, SystemClock::Instance(), &metrics_);
    common::RetryOptions query_opts;
    query_opts.max_attempts = 3;
    query_retry_ = std::make_unique<common::RetryPolicy>(
        "olap.query", query_opts, SystemClock::Instance(), &metrics_);
    lifecycle_ = std::make_unique<LifecycleManager>(store_, &metrics_,
                                                    options_.memory_budget_bytes);
    // Result-cache bytes count against the same budget as segments.
    lifecycle_->SetExternalBytesFn(
        [this] { return result_cache_bytes_->value(); });
  }

  /// Swaps the scatter-gather pool; nullptr restores the serial path.
  void SetExecutor(common::Executor* executor) { executor_ = executor; }

  /// Attaches the process-wide fault plane: per-server sub-queries consult
  /// Check("olap.server.query.<id>") and retry (or, with
  /// OlapQuery::allow_partial, drop the server from the gather). Archival
  /// puts observe store faults indirectly through the store itself.
  void SetFaultInjector(common::FaultInjector* faults) { faults_ = faults; }

  /// Registers a table ingesting from `source_topic` (must exist; its
  /// partition count defines the table's partitions).
  Status CreateTable(TableConfig config, const std::string& source_topic,
                     ClusterTableOptions options = ClusterTableOptions());

  /// Unregisters a table. In-flight queries/ingests on the shared_ptr
  /// finish against the detached table.
  Status DropTable(const std::string& table);

  bool HasTable(const std::string& table) const;
  Result<TableConfig> GetTableConfig(const std::string& table) const;

  /// One ingestion pump: every server consumes up to `max_per_partition`
  /// messages from each owned stream partition. Returns rows ingested.
  /// In sync-archival mode, partitions blocked on a failed archival do not
  /// consume (the paper's "all data ingestion came to a halt").
  Result<int64_t> IngestOnce(const std::string& table, size_t max_per_partition = 1024);

  /// Pumps until the table has consumed to the topic's end (bounded cycles).
  Result<int64_t> IngestAll(const std::string& table, int32_t max_cycles = 1000);

  /// Unconsumed messages in the source topic.
  Result<int64_t> IngestLag(const std::string& table) const;

  /// Broker query: route (or scatter), execute, merge, finalize, order,
  /// limit. Holds no cluster-wide lock while servers execute.
  Result<OlapResult> Query(const std::string& table, const OlapQuery& query) const;

  /// Force-seals every consuming segment into an immutable (indexed)
  /// segment, e.g. before latency benchmarks. Returns segments sealed.
  Result<int64_t> ForceSeal(const std::string& table);

  /// Async-mode archival pump; retries failures. Returns segments archived.
  Result<int64_t> DrainArchivalQueue(const std::string& table);
  int64_t ArchivalQueueDepth(const std::string& table) const;

  /// Simulates losing a server's in-memory sealed segments.
  Status KillServer(const std::string& table, int32_t server_id);

  /// Restores a killed server's segments: peers first (async mode), then
  /// the archival store.
  Result<RecoveryReport> RecoverServer(const std::string& table, int32_t server_id);

  Result<int64_t> NumRows(const std::string& table) const;
  Result<int64_t> MemoryBytes(const std::string& table) const;

  /// Applies the cluster memory budget now (also runs automatically after
  /// ingest/seal and after queries that materialized or reloaded
  /// segments). Returns demotions performed.
  int64_t EnforceMemoryBudget() { return lifecycle_->EnforceBudget(); }
  void SetMemoryBudget(int64_t bytes) { lifecycle_->SetMemoryBudget(bytes); }
  LifecycleManager* lifecycle() { return lifecycle_.get(); }

 private:
  struct ServerPartition {
    std::unique_ptr<RealtimePartition> data;
    int64_t stream_offset = 0;
    bool archival_blocked = false;  ///< sync mode: waiting on the store
    /// Bumped (under exclusive rw_mu) whenever this partition's data
    /// changes: ingest, seal, kill, recover. The result cache validates
    /// entries against the sum of the versions a query covers.
    uint64_t data_version = 0;
  };
  struct Server {
    int32_t id = 0;
    // stream partition id -> data
    std::map<int32_t, ServerPartition> partitions;
  };
  /// A sealed segment awaiting archival. HandleSeal queues the frame under
  /// rw_mu with a copy of the validity bits (the segment is immutable); the
  /// drain encodes it under archival_mu only, keeping the encoded blob
  /// across failed puts.
  struct PendingArchive {
    std::string key;
    SegmentFrame frame;
    std::string blob;  ///< empty until the first drain attempt
  };
  struct ReplicaEntry {
    int32_t home_server = 0;
    int32_t home_partition = 0;
    RealtimePartition::SealedSegment copy;
  };
  struct Table {
    TableConfig config;
    ClusterTableOptions options;
    std::string topic;
    int32_t num_stream_partitions = 0;
    std::vector<Server> servers;
    std::deque<PendingArchive> archival_queue;
    // segment name -> peer replicas (on servers != home)
    std::map<std::string, std::vector<ReplicaEntry>> replicas;

    /// Shared: Query/NumRows/MemoryBytes/IngestLag. Exclusive: IngestOnce/
    /// ForceSeal/KillServer/RecoverServer. Never held across map lookups.
    mutable std::shared_mutex rw_mu;
    /// Guards archival_queue only. Lock order: rw_mu -> archival_mu.
    /// Store I/O (ArchivePut and its retry/backoff) happens ONLY under
    /// archival_mu, never under rw_mu — a store outage stalls archival,
    /// not queries.
    mutable std::mutex archival_mu;

    /// Broker result cache for the dashboard path (OlapQuery::use_cache):
    /// canonical query key -> result captured at a data-version sum.
    /// Entries whose version no longer matches are recomputed in place;
    /// LRU eviction under a byte cap bounds the footprint, and the bytes
    /// are charged against the cluster memory budget. Guarded by cache_mu
    /// (lock order: rw_mu shared -> cache_mu, so versions are stable while
    /// the cache is consulted).
    struct CachedResult {
      uint64_t version = 0;
      OlapResult result;
      int64_t bytes = 0;
      std::list<std::string>::iterator lru_it;
    };
    std::map<std::string, CachedResult> result_cache;
    std::list<std::string> result_cache_lru;  ///< front = most recent
    int64_t result_cache_bytes = 0;
    mutable std::mutex cache_mu;

    // Hot-path metric handles, resolved once at CreateTable.
    Counter* rows_ingested = nullptr;
    Counter* decode_errors = nullptr;
    Counter* segments_archived = nullptr;
    Counter* ingestion_blocked = nullptr;
  };

  std::string SegmentKey(const std::string& table, const std::string& segment) const {
    return "segments/" + table + "/" + segment;
  }
  /// Map lookup under mu_; the returned table is kept alive by the
  /// shared_ptr regardless of concurrent DropTable.
  Result<std::shared_ptr<Table>> FindTable(const std::string& table) const;
  Status HandleSeal(Table* t, Server* server, int32_t partition_id,
                    ServerPartition* sp, bool force = false);
  /// Store put with backoff: every retry is counted in olap.backup_retries
  /// so archival pressure during store flaps is observable.
  Status ArchivePut(const std::string& key, const std::string& blob) const;
  /// Drains the archival queue under archival_mu only (never call while
  /// holding rw_mu). Returns segments archived; *emptied reports whether
  /// the queue is now empty.
  int64_t DrainArchival(Table* t, bool* emptied) const;
  /// Clears every partition's archival_blocked flag (brief exclusive
  /// section) — called after a drain emptied the queue.
  void UnblockArchival(Table* t) const;

  stream::MessageBus* bus_;
  storage::ObjectStore* store_;
  common::Executor* executor_;
  OlapClusterOptions options_;
  common::FaultInjector* faults_ = nullptr;
  std::unique_ptr<LifecycleManager> lifecycle_;
  mutable std::mutex mu_;  // table-map membership only
  std::map<std::string, std::shared_ptr<Table>> tables_;
  mutable MetricsRegistry metrics_;
  Gauge* queries_executing_;
  Counter* backup_retries_ = nullptr;
  Counter* query_retries_ = nullptr;
  // Vectorized-engine activity, summed from per-query stats at gather time
  // (cached handles: the query path never does a registry lookup).
  Counter* exec_batches_ = nullptr;
  Counter* exec_bitmap_words_ = nullptr;
  Counter* segments_pruned_ = nullptr;
  Counter* result_cache_hits_ = nullptr;
  Counter* result_cache_misses_ = nullptr;
  Gauge* result_cache_bytes_ = nullptr;
  std::unique_ptr<common::RetryPolicy> backup_retry_;
  std::unique_ptr<common::RetryPolicy> query_retry_;

 public:
  MetricsRegistry* metrics() { return &metrics_; }
};

/// Merges partial rows from segments/servers, finalizes accumulators and
/// applies ORDER BY / LIMIT. Exposed for the SQL layer's pushed-down
/// aggregations.
Result<OlapResult> MergeAndFinalize(const OlapQuery& query, const RowSchema& table_schema,
                                    std::vector<Row> partial_rows);

}  // namespace uberrt::olap

#endif  // UBERRT_OLAP_CLUSTER_H_
