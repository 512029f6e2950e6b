#include "compute/baselines.h"

#include <cmath>
#include <map>

#include "compute/window_operator.h"

namespace uberrt::compute {

BacklogRecoveryResult SimulateCreditBasedRecovery(const BacklogRecoveryParams& params) {
  BacklogRecoveryResult result;
  // The operator pulls exactly service_per_tick per tick; zero waste.
  result.ticks_to_recover =
      (params.backlog + params.service_per_tick - 1) / params.service_per_tick;
  return result;
}

BacklogRecoveryResult SimulateAckReplayRecovery(const BacklogRecoveryParams& params) {
  // Copy-level queueing model of ack/timeout/replay without flow control.
  //
  // The spout reads from Kafka faster than the worker drains and keeps up to
  // max_pending copies in flight, so under a backlog the worker queue fills
  // to max_pending. A tuple's sojourn in that queue is approximated as
  // exponential with mean Q / service (queueing variance is what lets *some*
  // tuples complete within the timeout even under overload); a tuple whose
  // sojourn exceeds the ack timeout is re-emitted by the spout, its stale
  // copy becoming pure waste when the worker reaches it. The probability a
  // copy completes usefully is therefore
  //     p = 1 - exp(-timeout * service / Q),
  // effective goodput is service * p, and the recovery-time multiple over
  // the credit-based engine is ~1/p — which grows as the backlog (and with
  // it Q, up to max_pending) grows. This reproduces the Section 4.2 shape:
  // a well-tuned pending cap matches Flink, an oversized one turns a
  // minutes-long backlog into hours.
  BacklogRecoveryResult result;
  const double service = static_cast<double>(params.service_per_tick);
  const double spout_rate = service * 3.0;
  const int64_t kMaxTicks = 10'000'000;

  double pool = static_cast<double>(params.backlog);  // copies awaiting emission
  double queue = 0.0;                                 // copies in the worker queue
  double done = 0.0;                                  // logical tuples completed
  double waste = 0.0;
  double replays = 0.0;

  int64_t tick = 0;
  for (; tick < kMaxTicks && done < static_cast<double>(params.backlog) - 0.5; ++tick) {
    double emit = std::min(
        {spout_rate, static_cast<double>(params.max_pending) - queue, pool});
    if (emit > 0) {
      queue += emit;
      pool -= emit;
    }
    double processed = std::min(service, queue);
    if (processed <= 0) {
      if (pool <= 0 && queue <= 0) break;  // drained
      continue;
    }
    double wait_mean = std::max(queue, service) / service;  // ticks in queue
    double p_complete =
        1.0 - std::exp(-static_cast<double>(params.timeout_ticks) / wait_mean);
    queue -= processed;
    double useful = processed * p_complete;
    double stale = processed - useful;
    done = std::min(done + useful, static_cast<double>(params.backlog));
    waste += stale;
    // Every timed-out copy was re-emitted once: it re-enters the pool.
    replays += stale;
    pool += stale;
  }
  result.ticks_to_recover = tick;
  result.wasted_work = static_cast<int64_t>(waste);
  result.replays = static_cast<int64_t>(replays);
  return result;
}

Result<MicroBatchReport> RunMicroBatchWindowAggregate(
    stream::MessageBus* bus, const SourceSpec& source,
    const std::vector<std::string>& key_fields, const WindowSpec& window,
    const std::vector<AggregateSpec>& aggregates) {
  if (window.type != WindowSpec::Type::kTumbling) {
    return Status::InvalidArgument("micro-batch baseline supports tumbling windows");
  }
  MicroBatchReport report;
  std::vector<int> key_indices = ResolveIndices(source.schema, key_fields);
  std::vector<int> agg_indices;
  for (const AggregateSpec& agg : aggregates) {
    agg_indices.push_back(agg.field.empty() ? -1 : source.schema.FieldIndex(agg.field));
  }
  int time_index = source.time_field.empty() ? -1
                                             : source.schema.FieldIndex(source.time_field);

  // Buffer every raw row per (window, key) — the materialized micro-batch
  // state — tracking the peak footprint.
  struct Bucket {
    Row key_values;
    std::vector<Row> rows;
  };
  std::map<std::pair<TimestampMs, std::string>, Bucket> buffers;
  int64_t buffered_bytes = 0;
  auto row_bytes = [](const Row& row) {
    int64_t bytes = 16;
    for (const Value& v : row) {
      bytes += 16;
      if (v.type() == ValueType::kString) {
        bytes += static_cast<int64_t>(v.AsString().size());
      }
    }
    return bytes;
  };
  auto flush_before = [&](TimestampMs watermark) {
    while (!buffers.empty() && buffers.begin()->first.first + window.size_ms <= watermark) {
      auto it = buffers.begin();
      Row out = it->second.key_values;
      out.push_back(Value(static_cast<int64_t>(it->first.first)));
      for (size_t a = 0; a < aggregates.size(); ++a) {
        AggAccumulator acc;
        for (const Row& row : it->second.rows) {
          int idx = agg_indices[a];
          acc.Add(idx >= 0 && idx < static_cast<int>(row.size())
                      ? row[static_cast<size_t>(idx)].ToNumeric()
                      : 0.0);
        }
        out.push_back(acc.Finish(aggregates[a].kind));
      }
      for (const Row& row : it->second.rows) buffered_bytes -= row_bytes(row);
      report.rows.push_back(std::move(out));
      buffers.erase(it);
    }
  };

  Result<int32_t> partitions = bus->NumPartitions(source.topic);
  if (!partitions.ok()) return partitions.status();
  TimestampMs max_seen = INT64_MIN;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = bus->BeginOffset(source.topic, p);
    Result<int64_t> end = bus->EndOffset(source.topic, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    int64_t offset = begin.value();
    while (offset < end.value()) {
      Result<stream::FetchedBatch> batch =
          bus->FetchViews(source.topic, p, offset, 1024);
      if (!batch.ok()) return batch.status();
      if (batch.value().empty()) break;
      for (const stream::wire::MessageView& m : batch.value().messages) {
        offset = m.offset + 1;
        Result<Row> row = DecodeRow(m.value);
        if (!row.ok()) continue;
        TimestampMs t = m.timestamp;
        if (time_index >= 0 && time_index < static_cast<int>(row.value().size()) &&
            row.value()[static_cast<size_t>(time_index)].type() == ValueType::kInt) {
          t = row.value()[static_cast<size_t>(time_index)].AsInt();
        }
        max_seen = std::max(max_seen, t);
        TimestampMs start = t - ((t % window.size_ms) + window.size_ms) % window.size_ms;
        std::string key = EncodeKey(row.value(), key_indices);
        auto& bucket = buffers[{start, key}];
        if (bucket.rows.empty()) {
          for (int idx : key_indices) {
            bucket.key_values.push_back(idx >= 0 ? row.value()[static_cast<size_t>(idx)]
                                                 : Value::Null());
          }
        }
        buffered_bytes += row_bytes(row.value());
        bucket.rows.push_back(std::move(row.value()));
        ++report.records_processed;
        report.peak_buffered_bytes = std::max(report.peak_buffered_bytes, buffered_bytes);
        // Micro-batch boundary handling: fire windows that closed one full
        // window behind the max seen time (batch watermark).
        if (report.records_processed % 1024 == 0) {
          flush_before(max_seen - window.size_ms);
        }
      }
    }
  }
  flush_before(kMaxWatermark);
  return report;
}

}  // namespace uberrt::compute
