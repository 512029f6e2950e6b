#ifndef UBERRT_COMPUTE_JOB_RUNNER_H_
#define UBERRT_COMPUTE_JOB_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
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
  std::string checkpoint_prefix = "checkpoints";
  /// Pool the job's tasks run on. nullptr -> the runner creates a private
  /// pool of 4 threads, so tests and standalone runners need no wiring.
  /// Either way the job's OS-thread count is the pool size, not the
  /// operator-instance count.
  common::Executor* executor = nullptr;
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
/// Checkpoints are aligned barrier snapshots (Carbone et al., "Lightweight
/// Asynchronous Snapshots for Distributed Dataflows"): each source records its
/// offsets and emits a barrier in line with its records; an instance that has
/// a barrier from one input channel holds that channel's later elements back
/// until every live channel has delivered its barrier, then snapshots its own
/// operator on its own task (operator state stays single-writer), forwards
/// the barrier and replays what it held. The checkpoint is complete when the
/// sink aligns; nothing pauses. At most one checkpoint is in flight. Restores
/// resume from the snapshot offsets, giving exactly-once state and
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

  /// Loads the latest checkpoint (the one the store retains) into the
  /// un-started job: source offsets and operator state. Must precede Start().
  Status RestoreFromCheckpoint();

  /// Takes a checkpoint and persists it: settles a checkpoint already in
  /// flight, starts a new one, waits until the sink has aligned on its
  /// barrier and saves it (moving LATEST). Returns the sequence written.
  /// Declined (FailedPrecondition) once a source has sent its final End;
  /// Cancel() abandons it (FailedPrecondition, LATEST unchanged).
  Result<int64_t> TriggerCheckpoint();

  /// Starts a checkpoint without waiting: the sources cut their streams at
  /// their next poll. Returns its sequence, or FailedPrecondition when the
  /// job is not running, a checkpoint is already in flight, or a source has
  /// sent its final End.
  Result<int64_t> StartCheckpoint();

  /// Saves the in-flight checkpoint if the sink has aligned on it, through
  /// the checkpoint retry policy, and moves LATEST. Returns the sequence
  /// saved, or 0 when no checkpoint was complete. Object-store I/O runs on
  /// the caller's thread, never on the executor.
  Result<int64_t> PersistCompletedCheckpoint();

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
  /// Checkpoints this runner has saved (LATEST moved to each).
  int64_t CheckpointsCompleted() const { return checkpoints_completed_.load(); }
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
  /// Elements held back by barrier alignment (Flink's alignment buffer).
  int64_t AlignmentHeld() const { return alignment_held_.load(); }

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
  /// contiguous record runs to ProcessBatch. Elements of a channel that is
  /// aligned on a barrier are held back instead; consumed elements leave
  /// in_flight_, held ones stay counted until replayed. True when the
  /// instance saw its final End and must exit.
  bool ProcessBatchElements(Instance* instance, ElementBatch& batch);
  /// Watermark / End handling; true on final End.
  bool ProcessControl(Instance* instance, const Element& element);
  /// Marks a barrier's channel aligned; true when it was the last one.
  bool OnBarrier(Instance* instance, const Element& barrier);
  /// Snapshots the instance's operator into the in-flight checkpoint (or,
  /// at the sink, completes it), forwards the barrier and reopens channels.
  void CompleteAlignment(Instance* instance);
  /// Source side of a checkpoint: if a checkpoint started since the
  /// source's last poll, records its positions and emits its barrier.
  void EmitSourceBarrier(size_t source_index);
  /// With checkpoint_mu_ held: records the source's positions into the
  /// aligning checkpoint it has not cut yet; returns that sequence, or 0.
  int64_t CutSourceLocked(size_t source_index);
  /// Waits until no checkpoint is aligning (none in flight, or complete).
  Status WaitForAlignment(int64_t timeout_ms);
  /// Appends a control element (watermark / barrier / End) to every target's
  /// pending batch — control rides behind the records that preceded it.
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
  std::atomic<bool> finish_requested_{false};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> records_in_{0};
  std::atomic<int64_t> records_out_{0};
  std::atomic<int64_t> checkpoints_completed_{0};
  std::atomic<int64_t> decode_errors_{0};
  std::atomic<int64_t> alignment_held_{0};

  /// The in-flight checkpoint: kAligning from StartCheckpoint until the sink
  /// aligns, kComplete until a persister takes it, kPersisting while it is
  /// saved. Cancel() abandons an aligning or complete one.
  enum class CheckpointPhase { kIdle, kAligning, kComplete, kPersisting };
  mutable std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  CheckpointPhase checkpoint_phase_ = CheckpointPhase::kIdle;  // checkpoint_mu_
  CheckpointData pending_checkpoint_;                          // checkpoint_mu_
  int64_t checkpoint_sequence_ = 0;  ///< last sequence started; checkpoint_mu_
  /// Sequence of the latest checkpoint started, read lock-free by the
  /// sources at each poll to see whether they owe a barrier.
  std::atomic<int64_t> barrier_sequence_{0};

  CheckpointData restored_;  // applied during BuildTopology
  bool has_restored_ = false;
};

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_JOB_RUNNER_H_
