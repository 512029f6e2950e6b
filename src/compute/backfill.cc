#include "compute/backfill.h"

#include "common/clock.h"

namespace uberrt::compute {

namespace {
/// Rows pumped between lag checks.
constexpr int64_t kPumpChunk = 4'096;
/// Partition count of the transient replay topic.
constexpr int32_t kReplayPartitions = 4;
}  // namespace

Result<BackfillReport> KappaPlusBackfill::Run(const JobGraph& graph,
                                              const storage::ArchiveTable& table,
                                              const std::vector<std::string>& partitions,
                                              BackfillOptions options) {
  if (graph.sources().size() != 1) {
    return Status::InvalidArgument("backfill supports single-source jobs");
  }
  TimestampMs start_ms = SystemClock::Instance()->NowMs();

  // Transient replay topic standing in for the original Kafka source.
  const std::string replay_topic =
      graph.name() + "__backfill_" + std::to_string(next_replay_id_++);
  stream::TopicConfig config;
  config.num_partitions = kReplayPartitions;
  UBERRT_RETURN_IF_ERROR(bus_->CreateTopic(replay_topic, config));

  // Same logic, minor config changes: source topic + reorder slack.
  SourceSpec source = graph.sources()[0];
  source.topic = replay_topic;
  source.out_of_orderness_ms =
      std::max(source.out_of_orderness_ms, options.reorder_slack_ms);
  JobGraph backfill_graph =
      graph.WithSource(0, std::move(source)).WithName(graph.name() + "_backfill");

  JobRunner runner(backfill_graph, bus_, checkpoint_store_);
  UBERRT_RETURN_IF_ERROR(runner.Start());

  BackfillReport report;
  int64_t since_check = 0;
  for (const std::string& partition : partitions) {
    Result<std::vector<Row>> rows = table.ReadPartition(partition);
    if (!rows.ok()) {
      runner.Cancel();
      return rows.status();
    }
    for (Row& row : rows.value()) {
      stream::Message message;
      message.value = EncodeRow(row);
      Result<stream::ProduceResult> produced =
          bus_->Produce(replay_topic, std::move(message), stream::AckMode::kLeader);
      if (!produced.ok()) {
        runner.Cancel();
        return produced.status();
      }
      ++report.records_pumped;
      if (++since_check >= kPumpChunk) {
        since_check = 0;
        // Throttle: historic data reads far outpace the job; wait for the
        // pipeline to digest before pumping more.
        while (true) {
          Result<int64_t> lag = runner.SourceLag();
          if (!lag.ok()) break;
          if (lag.value() <= options.max_inflight_records) break;
          SystemClock::Instance()->SleepMs(1);
        }
      }
    }
  }
  runner.RequestFinish();
  Status finished = runner.AwaitTermination(120'000);
  if (!finished.ok()) {
    runner.Cancel();
    return finished;
  }
  report.records_out = runner.RecordsOut();
  report.duration_ms = SystemClock::Instance()->NowMs() - start_ms;
  return report;
}

Result<int64_t> KappaReplayableRecords(stream::MessageBus* bus,
                                       const std::string& topic) {
  Result<int32_t> partitions = bus->NumPartitions(topic);
  if (!partitions.ok()) return partitions.status();
  int64_t replayable = 0;
  for (int32_t p = 0; p < partitions.value(); ++p) {
    Result<int64_t> begin = bus->BeginOffset(topic, p);
    Result<int64_t> end = bus->EndOffset(topic, p);
    if (!begin.ok()) return begin.status();
    if (!end.ok()) return end.status();
    replayable += end.value() - begin.value();
  }
  return replayable;
}

}  // namespace uberrt::compute
