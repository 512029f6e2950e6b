#include "olap/cluster.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace uberrt::olap {

namespace {

/// Footprint estimate of one cached result, charged against the per-table
/// byte cap and the cluster memory budget: 16 bytes per row and per value
/// plus string bytes (+ the key and entry overhead).
int64_t EstimateResultBytes(const std::string& key, const OlapResult& result) {
  int64_t bytes = static_cast<int64_t>(key.size()) + 64;
  for (const Row& row : result.rows) {
    bytes += 16;
    for (const Value& v : row) {
      bytes += 16;
      if (v.type() == ValueType::kString) {
        bytes += static_cast<int64_t>(v.AsString().size());
      }
    }
  }
  return bytes;
}

}  // namespace

Result<OlapResult> MergeAndFinalize(const OlapQuery& query,
                                    const RowSchema& table_schema,
                                    std::vector<Row> partial_rows) {
  OlapResult result;
  // Output schema.
  std::vector<FieldSpec> fields;
  if (!query.aggregations.empty()) {
    for (const std::string& g : query.group_by) {
      int idx = table_schema.FieldIndex(g);
      fields.push_back({g, idx >= 0 ? table_schema.fields()[static_cast<size_t>(idx)].type
                                    : ValueType::kString});
    }
    for (const OlapAggregation& agg : query.aggregations) {
      fields.push_back({agg.output_name,
                        agg.kind == OlapAggregation::Kind::kCount ? ValueType::kInt
                                                                  : ValueType::kDouble});
    }
  } else {
    for (const std::string& s : query.select_columns) {
      int idx = table_schema.FieldIndex(s);
      fields.push_back({s, idx >= 0 ? table_schema.fields()[static_cast<size_t>(idx)].type
                                    : ValueType::kString});
    }
  }
  result.schema = RowSchema(fields);

  if (!query.aggregations.empty()) {
    size_t num_groups = query.group_by.size();
    struct GroupEntry {
      Row key_values;
      std::vector<AggAccumulator> accs;
    };
    std::map<std::string, GroupEntry> groups;
    for (const Row& partial : partial_rows) {
      if (partial.size() != num_groups + query.aggregations.size() * kAccumulatorFields) {
        return Status::Internal("partial row width mismatch");
      }
      // Typed row encoding: ToString-based keys conflated values across
      // types (string "1" vs int 1) and embedded NULs.
      Row key_prefix(partial.begin(), partial.begin() + static_cast<long>(num_groups));
      std::string key = EncodeRow(key_prefix);
      GroupEntry& entry = groups[key];
      if (entry.accs.empty()) {
        entry.accs.resize(query.aggregations.size());
        entry.key_values.assign(partial.begin(),
                                partial.begin() + static_cast<long>(num_groups));
      }
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        Result<AggAccumulator> acc =
            ReadAccumulator(partial, num_groups + a * kAccumulatorFields);
        if (!acc.ok()) return acc.status();
        entry.accs[a].Merge(acc.value());
      }
    }
    // Global aggregation with zero matching rows still returns one row of
    // zero-valued aggregates (COUNT() = 0), as SQL does.
    if (groups.empty() && num_groups == 0) {
      GroupEntry empty;
      empty.accs.resize(query.aggregations.size());
      groups.emplace("", std::move(empty));
    }
    for (auto& [key, entry] : groups) {
      Row row = std::move(entry.key_values);
      for (size_t a = 0; a < query.aggregations.size(); ++a) {
        row.push_back(entry.accs[a].Finalize(query.aggregations[a].kind));
      }
      result.rows.push_back(std::move(row));
    }
  } else {
    result.rows = std::move(partial_rows);
  }

  // ORDER BY.
  if (!query.order_by.empty()) {
    int idx = result.schema.FieldIndex(query.order_by);
    if (idx < 0) {
      return Status::InvalidArgument("order-by column not in output: " + query.order_by);
    }
    bool desc = query.order_desc;
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [idx, desc](const Row& a, const Row& b) {
                       const Value& va = a[static_cast<size_t>(idx)];
                       const Value& vb = b[static_cast<size_t>(idx)];
                       return desc ? vb < va : va < vb;
                     });
  }
  // LIMIT.
  if (query.limit >= 0 && static_cast<int64_t>(result.rows.size()) > query.limit) {
    result.rows.resize(static_cast<size_t>(query.limit));
  }
  return result;
}

Status OlapCluster::CreateTable(TableConfig config, const std::string& source_topic,
                                ClusterTableOptions options) {
  if (config.upsert_enabled) {
    if (config.primary_key_column.empty() ||
        !config.schema.HasField(config.primary_key_column)) {
      return Status::InvalidArgument("upsert table needs a valid primary key column");
    }
    if (!config.index_config.sorted_column.empty()) {
      return Status::InvalidArgument(
          "upsert tables cannot use a sorted column (row order must be stable)");
    }
    if (!config.index_config.star_tree_dimensions.empty()) {
      return Status::InvalidArgument(
          "upsert tables cannot use a star-tree (pre-aggregates cannot see "
          "validity updates)");
    }
  }
  Result<int32_t> partitions = bus_->NumPartitions(source_topic);
  if (!partitions.ok()) return partitions.status();
  auto t = std::make_shared<Table>();
  t->options = options;
  t->topic = source_topic;
  t->num_stream_partitions = partitions.value();
  t->servers.resize(static_cast<size_t>(options.num_servers));
  for (int32_t s = 0; s < options.num_servers; ++s) t->servers[static_cast<size_t>(s)].id = s;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Server& server = t->servers[static_cast<size_t>(p % options.num_servers)];
    ServerPartition sp;
    sp.data = std::make_unique<RealtimePartition>(config, p, lifecycle_.get());
    Result<int64_t> begin = bus_->BeginOffset(source_topic, p);
    if (!begin.ok()) return begin.status();
    sp.stream_offset = begin.value();
    server.partitions.emplace(p, std::move(sp));
  }
  t->config = std::move(config);
  const std::string& name = t->config.name;
  // Resolve hot-path metric handles once; the registry owns them for its
  // lifetime, so the handles stay valid even after DropTable.
  t->rows_ingested = metrics_.GetCounter("olap." + name + ".rows_ingested");
  t->decode_errors = metrics_.GetCounter("olap." + name + ".decode_errors");
  t->segments_archived = metrics_.GetCounter("olap." + name + ".segments_archived");
  t->ingestion_blocked = metrics_.GetCounter("olap." + name + ".ingestion_blocked");
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  tables_.emplace(name, std::move(t));
  return Status::Ok();
}

Status OlapCluster::DropTable(const std::string& table) {
  std::shared_ptr<Table> victim;  // destroyed outside mu_
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  victim = std::move(it->second);
  tables_.erase(it);
  {
    // Un-charge the dropped table's result cache from the cluster gauge.
    std::lock_guard<std::mutex> clock(victim->cache_mu);
    result_cache_bytes_->Add(-victim->result_cache_bytes);
    victim->result_cache_bytes = 0;
    victim->result_cache.clear();
    victim->result_cache_lru.clear();
  }
  return Status::Ok();
}

bool OlapCluster::HasTable(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(table) > 0;
}

Result<TableConfig> OlapCluster::GetTableConfig(const std::string& table) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  return found.value()->config;
}

Result<std::shared_ptr<OlapCluster::Table>> OlapCluster::FindTable(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table: " + table);
  return it->second;
}

Status OlapCluster::ArchivePut(const std::string& key, const std::string& blob) const {
  int64_t attempts = 0;
  Status put = backup_retry_->Run([&] {
    ++attempts;
    return store_->Put(key, blob);
  });
  if (attempts > 1) backup_retries_->Increment(attempts - 1);
  return put;
}

int64_t OlapCluster::DrainArchival(Table* t, bool* emptied) const {
  std::lock_guard<std::mutex> alock(t->archival_mu);
  int64_t archived = 0;
  while (!t->archival_queue.empty()) {
    PendingArchive& pending = t->archival_queue.front();
    // Backed-off retries inside ArchivePut; if the store is still down after
    // that, the segment stays queued (and counted) for the next drain.
    if (!ArchivePut(pending.key, pending.blob).ok()) break;
    ++archived;
    t->archival_queue.pop_front();
  }
  if (archived > 0) t->segments_archived->Increment(archived);
  *emptied = t->archival_queue.empty();
  return archived;
}

void OlapCluster::UnblockArchival(Table* t) const {
  std::unique_lock<std::shared_mutex> lock(t->rw_mu);
  for (Server& server : t->servers) {
    for (auto& [partition_id, sp] : server.partitions) {
      sp.archival_blocked = false;
    }
  }
}

Status OlapCluster::HandleSeal(Table* t, Server* server, int32_t partition_id,
                               ServerPartition* sp, bool force) {
  Result<std::shared_ptr<Segment>> sealed = sp->data->SealIfNeeded(force);
  if (!sealed.ok()) return sealed.status();
  if (sealed.value() == nullptr) return Status::Ok();
  const std::shared_ptr<Segment>& segment = sealed.value();
  const auto& sealed_list = sp->data->sealed();
  const RealtimePartition::SealedSegment& sealed_entry = sealed_list.back();
  std::string key = SegmentKey(t->config.name, segment->name());
  SegmentFrame frame;
  frame.seq = sealed_entry.handle->seq();
  frame.min_time = sealed_entry.handle->min_time();
  frame.max_time = sealed_entry.handle->max_time();
  frame.validity = sealed_entry.validity;
  frame.segment = segment;
  std::string blob = EncodeSegmentFrame(frame);

  if (t->options.archival_mode == ArchivalMode::kSyncCentralized) {
    // One controller, synchronous backup: consumption halts until the
    // backup succeeds — but the store I/O itself (ArchivePut with its
    // retry/backoff) never runs under rw_mu. HandleSeal only enqueues and
    // marks the partition blocked; IngestOnce/ForceSeal drain the queue
    // under archival_mu and unblock, so queries are never starved by a
    // store outage.
    sp->archival_blocked = true;
    std::lock_guard<std::mutex> alock(t->archival_mu);
    t->archival_queue.push_back({std::move(key), std::move(blob)});
    return Status::Ok();  // seal kept; consumption halted until the drain
  }

  // Async peer-to-peer: replicate to peers now, archive later. The replica
  // shares the sealed entry's validity vector (shared_ptr), so later upsert
  // invalidations on the home server are visible to recovery from peers.
  int32_t replicas_wanted = t->options.replication_factor - 1;
  for (int32_t offset = 1;
       offset < static_cast<int32_t>(t->servers.size()) && replicas_wanted > 0;
       ++offset) {
    int32_t peer = (server->id + offset) % static_cast<int32_t>(t->servers.size());
    ReplicaEntry replica;
    replica.home_server = server->id;
    replica.home_partition = partition_id;
    replica.copy = sealed_entry;  // shares the immutable Segment
    t->replicas[segment->name()].push_back(std::move(replica));
    --replicas_wanted;
    (void)peer;
  }
  std::lock_guard<std::mutex> alock(t->archival_mu);
  t->archival_queue.push_back({key, std::move(blob)});
  return Status::Ok();
}

Result<int64_t> OlapCluster::IngestOnce(const std::string& table,
                                        size_t max_per_partition) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();
  const bool sync = t->options.archival_mode == ArchivalMode::kSyncCentralized;

  // Sync mode: retry any pending backup BEFORE taking the exclusive lock.
  // During a store outage the ArchivePut retry/backoff loop must stall
  // ingestion — never the queries that rw_mu also serves.
  bool store_ok = true;
  if (sync) {
    bool emptied = false;
    DrainArchival(t, &emptied);
    store_ok = emptied;
  }

  int64_t ingested = 0;
  // Budget is per stream partition across all consume rounds of this call.
  std::map<int32_t, size_t> budget_used;
  while (true) {
    int64_t round_rows = 0;
    {
      std::unique_lock<std::shared_mutex> lock(t->rw_mu);
      for (Server& server : t->servers) {
        for (auto& [partition_id, sp] : server.partitions) {
          if (sp.archival_blocked) {
            if (!store_ok) continue;  // paper: "all data ingestion ... halt"
            sp.archival_blocked = false;
          }
          const int64_t rows_before = sp.data->NumRows();
          const int64_t segs_before = sp.data->NumSealedSegments();
          // Consume at most up to the seal threshold before attempting a
          // seal, so a blocked archival (sync mode) genuinely halts
          // consumption instead of buffering unboundedly past the segment
          // size.
          size_t& used = budget_used[partition_id];
          while (used < max_per_partition) {
            int64_t room =
                sp.data->segment_rows_threshold() - sp.data->ConsumingRows();
            if (room <= 0) {
              UBERRT_RETURN_IF_ERROR(HandleSeal(t, &server, partition_id, &sp));
              if (sp.archival_blocked) break;  // halted until the drain below
              continue;
            }
            size_t want =
                std::min(max_per_partition - used, static_cast<size_t>(room));
            Result<stream::FetchedBatch> batch =
                bus_->FetchViews(t->topic, partition_id, sp.stream_offset, want);
            if (!batch.ok()) {
              if (batch.status().code() == StatusCode::kOutOfRange) {
                Result<int64_t> begin = bus_->BeginOffset(t->topic, partition_id);
                if (begin.ok()) sp.stream_offset = begin.value();
                continue;
              }
              break;  // cluster transiently unavailable
            }
            if (batch.value().empty()) break;
            used += batch.value().size();
            // Rows decode straight out of the borrowed log slices; the
            // batch's pins keep them valid until it goes out of scope.
            for (const stream::wire::MessageView& m : batch.value().messages) {
              Result<Row> row = DecodeRow(m.value);
              sp.stream_offset = m.offset + 1;
              if (!row.ok()) {
                t->decode_errors->Increment();
                continue;
              }
              Status ingest = sp.data->Ingest(std::move(row.value()));
              if (!ingest.ok()) return ingest;
              ++round_rows;
            }
          }
          UBERRT_RETURN_IF_ERROR(HandleSeal(t, &server, partition_id, &sp));
          if (sp.data->NumRows() != rows_before ||
              sp.data->NumSealedSegments() != segs_before) {
            ++sp.data_version;  // invalidates cached results covering this
          }
        }
      }
      if (round_rows > 0) t->rows_ingested->Increment(round_rows);
    }
    ingested += round_rows;
    if (!sync) break;  // async mode: DrainArchivalQueue is the explicit pump
    bool pending;
    {
      std::lock_guard<std::mutex> alock(t->archival_mu);
      pending = !t->archival_queue.empty();
    }
    if (!pending) break;  // nothing sealed this round: caught up
    if (!store_ok) {
      // This call's opening drain already failed; don't pay a second
      // retry/backoff round — the next IngestOnce retries the backup.
      t->ingestion_blocked->Increment();
      break;
    }
    bool emptied = false;
    DrainArchival(t, &emptied);
    store_ok = emptied;
    if (!emptied) {
      t->ingestion_blocked->Increment();
      break;  // halted; the next IngestOnce retries the backup first
    }
    // Backup succeeded: run another consume round (budget permitting) so a
    // healthy store never caps throughput at one segment per call.
  }
  // Freshly sealed segments may push the cluster past its memory budget;
  // enforce only after the exclusive section above is released (demotions
  // never run under rw_mu).
  if (lifecycle_->memory_budget_bytes() > 0) lifecycle_->EnforceBudget();
  return ingested;
}

Result<int64_t> OlapCluster::IngestAll(const std::string& table, int32_t max_cycles) {
  int64_t total = 0;
  for (int32_t i = 0; i < max_cycles; ++i) {
    Result<int64_t> n = IngestOnce(table);
    if (!n.ok()) return n;
    total += n.value();
    Result<int64_t> lag = IngestLag(table);
    if (!lag.ok()) return lag.status();
    if (lag.value() == 0) return total;
  }
  return Status::Timeout("ingestion did not catch up");
}

Result<int64_t> OlapCluster::IngestLag(const std::string& table) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  const Table* t = found.value().get();
  std::shared_lock<std::shared_mutex> lock(t->rw_mu);
  int64_t lag = 0;
  for (const Server& server : t->servers) {
    for (const auto& [partition_id, sp] : server.partitions) {
      Result<int64_t> end = bus_->EndOffset(t->topic, partition_id);
      if (!end.ok()) return end.status();
      lag += std::max<int64_t>(0, end.value() - sp.stream_offset);
    }
  }
  return lag;
}

Result<OlapResult> OlapCluster::Query(const std::string& table,
                                      const OlapQuery& query) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  const std::shared_ptr<Table>& t = found.value();
  // Shared lock: concurrent queries (same or different table) overlap; only
  // ingestion/seal/recovery exclude queries, and only on this table.
  std::shared_lock<std::shared_mutex> lock(t->rw_mu);
  queries_executing_->Add(1);
  struct ExecutingGuard {
    Gauge* g;
    ~ExecutingGuard() { g->Add(-1); }
  } executing_guard{queries_executing_};

  // Partition-aware routing (Section 4.3.1): an upsert table queried with
  // an equality predicate on the primary key lives entirely in one
  // partition.
  int32_t routed_partition = -1;
  if (t->config.upsert_enabled) {
    for (const FilterPredicate& pred : query.filters) {
      if (pred.op == FilterPredicate::Op::kEq &&
          pred.column == t->config.primary_key_column) {
        routed_partition = static_cast<int32_t>(KeyToPartition(
            pred.value.ToString(), static_cast<uint32_t>(t->num_stream_partitions)));
        break;
      }
    }
  }

  // Dashboard path: consult the broker result cache. The version fingerprint
  // is the sum of the covered partitions' data_versions — versions only
  // increase (under exclusive rw_mu), so an equal sum under our shared lock
  // means no covered partition changed since the entry was written.
  const bool use_cache = query.use_cache;
  std::string cache_key;
  uint64_t cache_version = 0;
  if (use_cache) {
    cache_key = CanonicalQueryKey(query);
    for (const Server& server : t->servers) {
      for (const auto& [partition_id, sp] : server.partitions) {
        if (routed_partition >= 0 && partition_id != routed_partition) continue;
        cache_version += sp.data_version;
      }
    }
    std::lock_guard<std::mutex> clock(t->cache_mu);
    auto it = t->result_cache.find(cache_key);
    if (it != t->result_cache.end() && it->second.version == cache_version) {
      result_cache_hits_->Increment();
      // LRU: a hit moves the entry to the front.
      t->result_cache_lru.splice(t->result_cache_lru.begin(),
                                 t->result_cache_lru, it->second.lru_it);
      OlapResult cached = it->second.result;
      cached.stats.from_cache = true;
      return cached;
    }
    result_cache_misses_->Increment();
  }

  // Plan: one morsel per surviving sealed segment plus the consuming segment,
  // laid out server-by-server so the gather below is deterministic. Zone-map
  // and time-window pruning happen here — pruned segments never become work.
  struct Morsel {
    const RealtimePartition* part;
    int32_t unit;  // sealed-segment index, or -1 for the consuming segment
  };
  struct ServerPlan {
    size_t first_morsel = 0;
    size_t num_morsels = 0;
    OlapQueryStats plan_stats;  // carries segments_pruned
    bool touched = false;
  };
  std::vector<Morsel> morsels;
  std::vector<ServerPlan> plans(t->servers.size());
  size_t servers_with_work = 0;
  for (size_t si = 0; si < t->servers.size(); ++si) {
    ServerPlan& plan = plans[si];
    plan.first_morsel = morsels.size();
    for (const auto& [partition_id, sp] : t->servers[si].partitions) {
      if (routed_partition >= 0 && partition_id != routed_partition) continue;
      plan.touched = true;
      std::vector<int32_t> units;
      sp.data->PlanMorsels(query, &units, &plan.plan_stats);
      for (int32_t unit : units) morsels.push_back({sp.data.get(), unit});
    }
    plan.num_morsels = morsels.size() - plan.first_morsel;
    if (plan.num_morsels > 0) ++servers_with_work;
  }

  // Scatter: morsels are grouped into per-server chunks (a chunk never spans
  // servers, so the per-server fault site and retry semantics are unchanged)
  // and fan-out is bounded by pool width — many segments never means many
  // tasks. Serial path (no executor) = exactly one chunk per server.
  struct Chunk {
    size_t server;
    size_t begin;  // morsel range [begin, end)
    size_t end;
  };
  common::Executor* exec = executor_;
  const bool parallel = exec != nullptr && morsels.size() > 1;
  size_t fanout = 1;
  if (parallel) {
    fanout = std::max<size_t>(
        1, exec->num_threads() * 2 / std::max<size_t>(1, servers_with_work));
  }
  std::vector<Chunk> chunks;
  for (size_t si = 0; si < plans.size(); ++si) {
    const ServerPlan& plan = plans[si];
    if (plan.num_morsels == 0) continue;
    size_t pieces = std::min(fanout, plan.num_morsels);
    for (size_t c = 0; c < pieces; ++c) {
      size_t begin = plan.first_morsel + plan.num_morsels * c / pieces;
      size_t end = plan.first_morsel + plan.num_morsels * (c + 1) / pieces;
      if (begin < end) chunks.push_back({si, begin, end});
    }
  }

  // Each morsel writes into its own slot, so the merge below concatenates in
  // plan order regardless of which pool thread ran what — morsel-parallel
  // results are bitwise-identical to the serial path by construction.
  struct MorselOut {
    std::vector<Row> rows;
    OlapQueryStats stats;
  };
  std::vector<MorselOut> outs(morsels.size());
  std::vector<Status> chunk_status(chunks.size(), Status::Ok());
  auto run_chunk = [&](size_t ci) {
    const Chunk& chunk = chunks[ci];
    const std::string site = "olap.server.query." + std::to_string(chunk.server);
    // Transient sub-query failures (injected or real) are retried with
    // backoff before the gather ever sees them.
    int64_t attempts = 0;
    chunk_status[ci] = query_retry_->Run([&] {
      ++attempts;
      if (faults_ != nullptr) {
        UBERRT_RETURN_IF_ERROR(faults_->Check(site));
      }
      for (size_t m = chunk.begin; m < chunk.end; ++m) {
        MorselOut& out = outs[m];
        out.rows.clear();
        out.stats = OlapQueryStats{};
        Result<OlapResult> partial =
            morsels[m].part->ExecuteMorsel(query, morsels[m].unit, &out.stats);
        if (!partial.ok()) return partial.status();
        out.rows = std::move(partial.value().rows);
      }
      return Status::Ok();
    });
    if (attempts > 1) query_retries_->Increment(attempts - 1);
  };
  common::Executor::RunTaskGroup(parallel && chunks.size() > 1 ? exec : nullptr,
                                 chunks.size(), run_chunk);

  // Gather: walk servers in plan order; a server fails as a unit (any failed
  // chunk drops or fails the whole server, never a partial server).
  OlapQueryStats stats;
  std::vector<Row> rows;
  for (size_t si = 0; si < plans.size(); ++si) {
    const ServerPlan& plan = plans[si];
    Status server_status = Status::Ok();
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      if (chunks[ci].server == si && !chunk_status[ci].ok()) {
        server_status = chunk_status[ci];
        break;
      }
    }
    if (!server_status.ok()) {
      // Degraded mode: a server that stayed down after retries is dropped
      // from the merge instead of failing the query (Section 4.3's
      // availability-over-completeness trade, opt-in per query).
      if (query.allow_partial) {
        ++stats.servers_failed;
        continue;
      }
      return server_status;
    }
    stats.segments_pruned += plan.plan_stats.segments_pruned;
    if (plan.touched) ++stats.servers_queried;
    for (size_t m = plan.first_morsel; m < plan.first_morsel + plan.num_morsels;
         ++m) {
      stats.segments_scanned += outs[m].stats.segments_scanned;
      stats.rows_scanned += outs[m].stats.rows_scanned;
      stats.star_tree_hits += outs[m].stats.star_tree_hits;
      stats.exec_batches += outs[m].stats.exec_batches;
      stats.bitmap_words += outs[m].stats.bitmap_words;
      stats.segments_hot += outs[m].stats.segments_hot;
      stats.segments_warm += outs[m].stats.segments_warm;
      stats.segments_cold += outs[m].stats.segments_cold;
      stats.columns_materialized += outs[m].stats.columns_materialized;
      for (Row& row : outs[m].rows) rows.push_back(std::move(row));
    }
  }
  if (stats.exec_batches > 0) exec_batches_->Increment(stats.exec_batches);
  if (stats.bitmap_words > 0) exec_bitmap_words_->Increment(stats.bitmap_words);
  if (stats.segments_pruned > 0) segments_pruned_->Increment(stats.segments_pruned);
  lifecycle_->CountMaterializations(stats.columns_materialized);
  Result<OlapResult> merged = MergeAndFinalize(query, t->config.schema, std::move(rows));
  if (!merged.ok()) return merged;
  merged.value().stats = stats;
  // Complete results only: a degraded gather must never be served later as
  // if it were the whole table.
  if (use_cache && stats.servers_failed == 0) {
    std::lock_guard<std::mutex> clock(t->cache_mu);
    const int64_t bytes_before = t->result_cache_bytes;
    auto [it, inserted] = t->result_cache.emplace(cache_key, Table::CachedResult{});
    if (inserted) {
      t->result_cache_lru.push_front(cache_key);
      it->second.lru_it = t->result_cache_lru.begin();
    } else {
      // Recomputed in place: un-charge the stale bytes, refresh recency.
      t->result_cache_bytes -= it->second.bytes;
      t->result_cache_lru.splice(t->result_cache_lru.begin(),
                                 t->result_cache_lru, it->second.lru_it);
    }
    it->second.version = cache_version;
    it->second.result = merged.value();
    it->second.bytes = EstimateResultBytes(cache_key, it->second.result);
    t->result_cache_bytes += it->second.bytes;
    // LRU eviction under the byte cap — never the entry just written, so
    // one oversized result still caches (and evicts everything else).
    while (t->result_cache_bytes > options_.result_cache_max_bytes &&
           t->result_cache_lru.size() > 1) {
      auto victim = t->result_cache.find(t->result_cache_lru.back());
      t->result_cache_bytes -= victim->second.bytes;
      t->result_cache.erase(victim);
      t->result_cache_lru.pop_back();
    }
    result_cache_bytes_->Add(t->result_cache_bytes - bytes_before);
  }
  // A query that reloaded cold segments or materialized lazy columns grew
  // the resident set; settle the budget outside the shared lock.
  lock.unlock();
  if (lifecycle_->memory_budget_bytes() > 0 &&
      (stats.segments_cold > 0 || stats.columns_materialized > 0)) {
    lifecycle_->EnforceBudget();
  }
  return merged;
}

Result<int64_t> OlapCluster::ForceSeal(const std::string& table) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();
  int64_t sealed = 0;
  {
    std::unique_lock<std::shared_mutex> lock(t->rw_mu);
    for (Server& server : t->servers) {
      for (auto& [partition_id, sp] : server.partitions) {
        int64_t before = sp.data->NumSealedSegments();
        UBERRT_RETURN_IF_ERROR(
            HandleSeal(t, &server, partition_id, &sp, /*force=*/true));
        if (sp.data->NumSealedSegments() != before) {
          sealed += sp.data->NumSealedSegments() - before;
          ++sp.data_version;
        }
      }
    }
  }
  if (t->options.archival_mode == ArchivalMode::kSyncCentralized) {
    // The sync-mode backup happens here, off the exclusive section.
    bool emptied = false;
    DrainArchival(t, &emptied);
    if (emptied) {
      UnblockArchival(t);
    } else {
      t->ingestion_blocked->Increment();
    }
  }
  if (lifecycle_->memory_budget_bytes() > 0) lifecycle_->EnforceBudget();
  return sealed;
}

Result<int64_t> OlapCluster::DrainArchivalQueue(const std::string& table) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();
  bool emptied = false;
  int64_t archived = DrainArchival(t, &emptied);
  if (emptied) UnblockArchival(t);  // sync mode may be waiting on this queue
  return archived;
}

int64_t OlapCluster::ArchivalQueueDepth(const std::string& table) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return 0;
  std::lock_guard<std::mutex> alock(found.value()->archival_mu);
  return static_cast<int64_t>(found.value()->archival_queue.size());
}

Status OlapCluster::KillServer(const std::string& table, int32_t server_id) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();
  std::unique_lock<std::shared_mutex> lock(t->rw_mu);
  if (server_id < 0 || server_id >= static_cast<int32_t>(t->servers.size())) {
    return Status::InvalidArgument("no server " + std::to_string(server_id));
  }
  for (auto& [partition_id, sp] : t->servers[static_cast<size_t>(server_id)].partitions) {
    sp.data->DropSealedSegments();
    ++sp.data_version;  // cached results covering this partition are stale
  }
  return Status::Ok();
}

Result<RecoveryReport> OlapCluster::RecoverServer(const std::string& table,
                                                  int32_t server_id) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();
  std::unique_lock<std::shared_mutex> lock(t->rw_mu);
  if (server_id < 0 || server_id >= static_cast<int32_t>(t->servers.size())) {
    return Status::InvalidArgument("no server " + std::to_string(server_id));
  }
  RecoveryReport report;
  // Which segments did this server own? Peer replica registry + archival
  // store listing both know; use the replica registry for names, falling
  // back to the store listing.
  for (auto& [segment_name, replicas] : t->replicas) {
    for (ReplicaEntry& replica : replicas) {
      if (replica.home_server != server_id) continue;
      Server& server = t->servers[static_cast<size_t>(server_id)];
      auto pit = server.partitions.find(replica.home_partition);
      if (pit == server.partitions.end()) continue;
      // Idempotent: a segment the server already holds (double recovery,
      // or a partial earlier recovery) is never restored twice.
      if (pit->second.data->HasSegment(segment_name)) continue;
      pit->second.data->RestoreSegment(replica.copy);
      ++report.segments_from_peers;
    }
  }
  // Anything archived but not replicated (sync mode) comes from the store.
  for (const std::string& key : store_->List("segments/" + table + "/")) {
    std::string segment_name = key.substr(("segments/" + table + "/").size());
    if (t->replicas.count(segment_name) > 0) continue;  // already restored
    // Only restore segments whose home partition is on this server.
    Result<std::string> blob = store_->Get(key);
    if (!blob.ok()) {
      ++report.segments_lost;
      continue;
    }
    // The archival frame carries seal seq, time bounds and upsert validity;
    // legacy blobs (bare segments) decode with conservative defaults.
    Result<SegmentFrame> restored = DecodeSegmentFrame(blob.value());
    if (!restored.ok()) {
      ++report.segments_lost;
      continue;
    }
    // Segment names are "<table>_p<partition>_s<seq>"; parse the partition.
    size_t p_pos = segment_name.rfind("_p");
    size_t s_pos = segment_name.rfind("_s");
    if (p_pos == std::string::npos || s_pos == std::string::npos || s_pos <= p_pos) {
      ++report.segments_lost;
      continue;
    }
    int32_t partition_id =
        static_cast<int32_t>(std::stol(segment_name.substr(p_pos + 2, s_pos - p_pos - 2)));
    if (partition_id % static_cast<int32_t>(t->servers.size()) != server_id) continue;
    Server& server = t->servers[static_cast<size_t>(server_id)];
    auto pit = server.partitions.find(partition_id);
    if (pit == server.partitions.end()) continue;
    if (pit->second.data->HasSegment(segment_name)) continue;
    SegmentFrame& frame = restored.value();
    if (frame.seq < 0) {
      // Legacy blob: recover the seal order from the segment name.
      frame.seq = std::stol(segment_name.substr(s_pos + 2));
    }
    RealtimePartition::SealedSegment entry;
    entry.handle = SegmentHandle::Create(frame.segment, frame.seq, frame.min_time,
                                         frame.max_time, frame.validity, key,
                                         lifecycle_.get());
    entry.validity = std::move(frame.validity);
    pit->second.data->RestoreSegment(std::move(entry));
    ++report.segments_from_store;
  }
  // Restored segments may arrive out of seal order (map iteration, store
  // listing order). Re-sort by seq and — for upsert tables — replay the
  // segments to rebuild primary-key locations and row validity. Without the
  // replay, rows overwritten by later upserts would resurrect on recovery.
  for (auto& [partition_id, sp] :
       t->servers[static_cast<size_t>(server_id)].partitions) {
    // A restored segment that meanwhile went cold must materialize for the
    // upsert replay; a store outage here surfaces instead of silently
    // resurrecting overwritten rows.
    UBERRT_RETURN_IF_ERROR(sp.data->FinishRestore());
    ++sp.data_version;
  }
  return report;
}

Result<int64_t> OlapCluster::NumRows(const std::string& table) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  const Table* t = found.value().get();
  std::shared_lock<std::shared_mutex> lock(t->rw_mu);
  int64_t rows = 0;
  for (const Server& server : t->servers) {
    for (const auto& [partition_id, sp] : server.partitions) rows += sp.data->NumRows();
  }
  return rows;
}

Result<int64_t> OlapCluster::MemoryBytes(const std::string& table) const {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  const Table* t = found.value().get();
  std::shared_lock<std::shared_mutex> lock(t->rw_mu);
  int64_t bytes = 0;
  for (const Server& server : t->servers) {
    for (const auto& [partition_id, sp] : server.partitions) {
      bytes += sp.data->MemoryBytes();
    }
  }
  return bytes;
}

Result<int64_t> OlapCluster::CompactOnce(const std::string& table) {
  Result<std::shared_ptr<Table>> found = FindTable(table);
  if (!found.ok()) return found.status();
  Table* t = found.value().get();

  // Claim under the shared lock only: the claim flips an atomic flag on the
  // handle, so concurrent CompactOnce calls never double-build a segment
  // and ingestion/queries proceed meanwhile.
  std::vector<std::shared_ptr<SegmentHandle>> pending;
  RowSchema schema;
  SegmentIndexConfig index_config;
  {
    std::shared_lock<std::shared_mutex> lock(t->rw_mu);
    schema = t->config.schema;
    for (const Server& server : t->servers) {
      for (const auto& [partition_id, sp] : server.partitions) {
        sp.data->ClaimPendingCompactions(&pending);
        index_config = sp.data->CompactionIndexConfig();
      }
    }
  }
  if (pending.empty()) return 0;

  // Rebuild off the lock (and off the write path): re-read the rows,
  // build with the table's full index configuration, swap into the shared
  // handle. Row order is preserved — a deferred seal already applied the
  // sorted column, and upsert tables never sort — so validity vectors and
  // upsert locations stay valid and results never change (no data_version
  // bump: cached results remain correct).
  std::vector<Status> statuses(pending.size(), Status::Ok());
  auto rebuild = [&](size_t i) {
    const std::shared_ptr<SegmentHandle>& handle = pending[i];
    Result<std::shared_ptr<Segment>> acquired = handle->AcquireFull();
    if (!acquired.ok()) {
      statuses[i] = acquired.status();
      return;
    }
    const std::shared_ptr<Segment>& old = acquired.value();
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(old->NumRows()));
    for (int64_t r = 0; r < old->NumRows(); ++r) {
      rows.push_back(old->GetRow(static_cast<size_t>(r)));
    }
    Result<std::shared_ptr<Segment>> rebuilt =
        Segment::Build(old->name(), schema, rows, index_config);
    if (!rebuilt.ok()) {
      statuses[i] = rebuilt.status();
      return;
    }
    handle->ReplaceSegment(rebuilt.value());
  };
  common::Executor::RunTaskGroup(executor_, pending.size(), rebuild);

  int64_t compacted = 0;
  Status first_error = Status::Ok();
  for (size_t i = 0; i < pending.size(); ++i) {
    if (statuses[i].ok()) {
      ++compacted;
    } else {
      // Give the claim back: the next pump retries this segment.
      pending[i]->SetNeedsCompaction(true);
      if (first_error.ok()) first_error = statuses[i];
    }
  }
  if (compacted == 0 && !first_error.ok()) return first_error;
  // Rebuilt segments return to hot; settle the budget.
  if (lifecycle_->memory_budget_bytes() > 0) lifecycle_->EnforceBudget();
  return compacted;
}

}  // namespace uberrt::olap
