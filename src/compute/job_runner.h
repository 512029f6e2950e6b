#ifndef UBERRT_COMPUTE_JOB_RUNNER_H_
#define UBERRT_COMPUTE_JOB_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/retry.h"
#include "common/status.h"
#include "compute/checkpoint.h"
#include "compute/job_graph.h"
#include "compute/operator.h"
#include "storage/object_store.h"
#include "stream/message_bus.h"

namespace uberrt::compute {

/// Engine behaviour knobs.
struct JobRunnerOptions {
  /// Per-channel buffer. Bounded channels give credit-based backpressure
  /// (Flink-like); 0 means unbounded (the Storm-like no-flow-control mode
  /// compared in Section 4.2 and bench C2).
  size_t channel_capacity = 1024;
  size_t source_poll_batch = 256;
  /// Max records per ElementBatch flowing through a channel. Batching
  /// amortizes queue mutexes, wakeup CASes and in-flight bookkeeping across
  /// the batch (Section 4.2's pipelined network buffers). <= 1 gives the
  /// per-record dataflow — each element travels alone through the same
  /// zero-copy source path — which the bench keeps as its baseline.
  size_t max_batch_records = 256;
  /// Fuse consecutive same-parallelism stateless transforms (map / filter /
  /// flatmap) into one operator instance per parallel slot, eliminating the
  /// intermediate channel hop entirely (Flink task chaining). Checkpoints
  /// stay compatible both ways: every graph transform keeps its own
  /// `op.<index>.<instance>` entry, with chained followers snapshotting "".
  bool enable_chaining = true;
  /// When false the job manager never snapshots this job; recovery
  /// recomputes state from the stream (the surge tuning of Section 5.1).
  bool periodic_checkpoints = true;
  int64_t source_idle_sleep_ms = 1;
  std::string checkpoint_prefix = "checkpoints";
  /// Pool the job's tasks run on. nullptr -> the runner creates a private
  /// pool of `pool_threads` threads, so tests and standalone runners need no
  /// wiring. Either way the job's OS-thread count is the pool size, not the
  /// operator-instance count.
  common::Executor* executor = nullptr;
  size_t pool_threads = 4;
  /// Retry policy wrapped around checkpoint Save/Load against the object
  /// store; nullptr means one attempt (the seed behaviour). The policy is
  /// borrowed (typically from the JobManager) and must outlive the runner.
  common::RetryPolicy* checkpoint_retry = nullptr;
};

/// Streaming dataflow executor — the Flink substitute (Section 4.2).
///
/// Executes a JobGraph as a set of cooperative tasks on a fixed-size
/// executor: each operator instance is a task that drains its input queue
/// and reschedules itself while work remains (wake-on-push, so idle
/// instances cost nothing), and each source is a self-rescheduling poll
/// task. A 20-operator job therefore needs pool-size threads, not 20+.
/// Keyed stages partition records by key hash so all records of a key reach
/// one instance; watermarks are broadcast and aligned (min across input
/// channels) per instance. Tasks never block on a full channel: the
/// producer stashes the element and yields, which propagates backpressure
/// to the sources without stalling pool threads (deadlock-free at any pool
/// size).
///
/// Checkpoints are stop-the-world: sources pause, the pipeline drains, then
/// source offsets and all operator state snapshot atomically to the object
/// store (equivalent to aligned-barrier snapshots, traded for simplicity).
/// Restores resume from the snapshot offsets, giving exactly-once state and
/// at-least-once sink delivery.
class JobRunner {
 public:
  // Implementation detail, public only for the emitter glue in the .cc.
  struct Wiring;
  struct Instance;
  struct SourceState;
  struct PendingPush;
  struct OutBuffer;

  /// Routes one record into the producer's per-target pending batch
  /// (keyed / round-robin partitioning), flushing the target at the batch
  /// cap. Public only for the emitter glue in the .cc.
  void EmitRecord(Element element, Wiring& wiring, OutBuffer* out,
                  std::deque<PendingPush>* stash);

  JobRunner(JobGraph graph, stream::MessageBus* bus, storage::ObjectStore* store,
            JobRunnerOptions options = JobRunnerOptions());
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Validates the graph and schedules the source tasks.
  Status Start();

  /// Loads a checkpoint (latest when `sequence` < 0) into the un-started
  /// job: source offsets and operator state. Must precede Start().
  Status RestoreFromCheckpoint(int64_t sequence = -1);

  /// Pauses sources, drains in-flight work, snapshots, resumes. Returns the
  /// checkpoint sequence written.
  Result<int64_t> TriggerCheckpoint();

  /// Asks sources to stop at the topics' current end offsets; the pipeline
  /// then flushes all windows and terminates ("bounded" execution — also how
  /// Kappa+ backfill jobs end, Section 7).
  void RequestFinish();

  /// Blocks until the pipeline completed (sink saw all Ends) and every task
  /// drained. Timeout < 0 waits forever.
  Status AwaitTermination(int64_t timeout_ms = -1);

  /// Hard-stops the pipeline without flushing windows (state is preserved
  /// in the last checkpoint; this models a crash or forced stop).
  void Cancel();

  /// Blocks until sources have read to their topics' current end offsets
  /// and the pipeline has no in-flight elements.
  Status WaitUntilCaughtUp(int64_t timeout_ms = 10000);

  bool IsRunning() const { return running_.load(); }
  bool IsFinished() const { return finished_.load(); }

  // --- Observability (Section 4.2.1 monitoring signals) -------------------

  /// Rows delivered to the sink.
  int64_t RecordsOut() const { return records_out_.load(); }
  /// Records read from the sources.
  int64_t RecordsIn() const { return records_in_.load(); }
  /// Live keyed-state footprint across all operator instances.
  int64_t StateBytes() const;
  /// Sum of per-instance peak state footprints (upper bound on peak total).
  int64_t PeakStateBytes() const;
  /// Unread messages remaining in the source topics.
  Result<int64_t> SourceLag() const;
  /// Records dropped as too late across all window operators.
  int64_t LateDropped() const;
  /// Rows that failed to decode from the source topics.
  int64_t DecodeErrors() const { return decode_errors_.load(); }

  const JobGraph& graph() const { return graph_; }

 private:
  /// One fused pipeline stage: graph transforms [first..last] running as one
  /// operator per parallel slot. Stateful transforms always form a
  /// single-transform stage; chains cover runs of stateless transforms with
  /// one parallelism. The final plan is the sink.
  struct StagePlan {
    size_t first = 0;
    size_t last = 0;  ///< inclusive
    int32_t parallelism = 1;
    bool is_sink = false;
  };

  /// One scheduling quantum of an operator instance: flush stash, drain up
  /// to a budget of elements, reschedule or go idle (wake-on-push).
  void RunInstance(Instance* instance);
  /// One poll cycle of a source, then self-reschedule until done/cancelled.
  void RunSource(size_t source_index);
  /// Runs every element of a channel batch through the operator, handing
  /// contiguous record runs to ProcessBatch. True when the instance saw its
  /// final End and must exit.
  bool ProcessBatchElements(Instance* instance, ElementBatch& batch);
  /// Watermark / End handling; true on final End.
  bool ProcessControl(Instance* instance, const Element& element);
  /// Appends a control element (watermark / End) to every target's pending
  /// batch — control rides behind the records that preceded it.
  void EmitControl(const Element& element, Wiring& wiring, OutBuffer* out,
                   std::deque<PendingPush>* stash);
  /// Pushes one target's pending batch downstream (stash on backpressure).
  void FlushTarget(size_t target, Wiring& wiring, OutBuffer* out,
                   std::deque<PendingPush>* stash);
  /// Flushes every target's pending batch. Producers call this before going
  /// idle / yielding so no element ever waits in a pending buffer while its
  /// producer sleeps.
  void FlushOut(Wiring& wiring, OutBuffer* out, std::deque<PendingPush>* stash);
  /// Retries stashed pushes; true when the stash is empty afterwards.
  bool FlushStash(std::deque<PendingPush>& stash);
  /// Schedules the instance's task if it is not already scheduled.
  void WakeInstance(Instance* instance);
  /// WaitGroup-tracked submit; false if the pool rejected the task.
  bool SubmitTask(std::function<void()> fn);
  Status BuildTopology();
  Status WaitForQuiesce(int64_t timeout_ms);

  JobGraph graph_;
  stream::MessageBus* bus_;
  JobRunnerOptions options_;
  CheckpointStore checkpoint_store_;

  std::unique_ptr<common::Executor> owned_executor_;  // when options_.executor==nullptr
  common::Executor* executor_ = nullptr;
  common::WaitGroup tasks_wg_;  ///< counts queued+running pool tasks

  std::vector<std::unique_ptr<SourceState>> source_states_;
  // plans_[i] describes stage i (a transform, a fused chain, or the sink);
  // stages_[i] holds its instances and wirings_[i] feeds it.
  std::vector<StagePlan> plans_;
  std::vector<std::vector<std::unique_ptr<Instance>>> stages_;
  std::vector<std::unique_ptr<Wiring>> wirings_;  // wirings_[i] feeds stage i
  size_t max_batch_ = 1;  ///< max(1, options_.max_batch_records)

  std::atomic<bool> running_{false};
  std::atomic<bool> finished_{false};
  std::atomic<bool> cancel_{false};
  std::atomic<bool> pause_sources_{false};
  std::atomic<bool> finish_requested_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> records_in_{0};
  std::atomic<int64_t> records_out_{0};
  std::atomic<int64_t> decode_errors_{0};
  std::atomic<int64_t> checkpoint_sequence_{0};

  CheckpointData restored_;  // applied during BuildTopology
  bool has_restored_ = false;
};

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_JOB_RUNNER_H_
