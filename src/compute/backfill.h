#ifndef UBERRT_COMPUTE_BACKFILL_H_
#define UBERRT_COMPUTE_BACKFILL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compute/job_graph.h"
#include "compute/job_runner.h"
#include "storage/archive.h"
#include "stream/message_bus.h"

namespace uberrt::compute {

/// Kappa+ backfill (Section 7): re-executes an unchanged streaming JobGraph
/// over archived (Hive-like) data instead of Kafka. This is Uber's answer to
/// both Lambda (two codebases) and Kappa (needs unaffordable Kafka
/// retention): the same stream-processing logic reads bounded historic data
/// directly from the archive, with
///  - explicit start/end boundaries (the archive partitions to process),
///  - throttling of the much-higher historic read throughput (the pump
///    pauses while the job's source lag exceeds a high-watermark), and
///  - a widened out-of-orderness allowance, since archived data is not in
///    event-time order.
struct BackfillOptions {
  /// Pause pumping while the job's source lag exceeds this (throttling).
  int64_t max_inflight_records = 50'000;
  /// Watermark slack applied to the job's sources (archived data is
  /// unordered; windows need a larger reorder buffer).
  int64_t reorder_slack_ms = 60'000;
};

struct BackfillReport {
  int64_t records_pumped = 0;
  int64_t records_out = 0;
  int64_t duration_ms = 0;
};

/// Executes `graph` (single-source) against archive partitions. The graph's
/// source is transparently re-pointed at a transient replay topic — the
/// user's logic is reused verbatim, "with minor config changes" exactly as
/// the paper describes.
class KappaPlusBackfill {
 public:
  KappaPlusBackfill(stream::MessageBus* bus, storage::ObjectStore* checkpoint_store)
      : bus_(bus), checkpoint_store_(checkpoint_store) {}

  Result<BackfillReport> Run(const JobGraph& graph, const storage::ArchiveTable& table,
                             const std::vector<std::string>& partitions,
                             BackfillOptions options = BackfillOptions());

 private:
  stream::MessageBus* bus_;
  storage::ObjectStore* checkpoint_store_;
  int64_t next_replay_id_ = 0;
};

/// The Kappa alternative the paper rejects: replay straight from the Kafka
/// topic. Returns how many of `expected_records` are still replayable given
/// the topic's current retention — demonstrating why limited retention makes
/// pure Kappa lossy at Uber (bench C11).
Result<int64_t> KappaReplayableRecords(stream::MessageBus* bus, const std::string& topic);

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_BACKFILL_H_
