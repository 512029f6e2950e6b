#ifndef UBERRT_COMPUTE_JOB_MANAGER_H_
#define UBERRT_COMPUTE_JOB_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "compute/job_graph.h"
#include "compute/job_runner.h"

namespace uberrt::compute {

enum class JobState { kRunning, kFinished, kFailed, kCancelled };

const char* JobStateName(JobState state);

/// Monitoring snapshot of one managed job.
struct JobInfo {
  std::string id;
  JobState state = JobState::kRunning;
  int32_t parallelism = 1;
  int64_t restarts = 0;
  int64_t rescales = 0;
  int64_t records_in = 0;
  int64_t records_out = 0;
  int64_t lag = 0;
  int64_t state_bytes = 0;
  bool stateful = false;
};

/// Rule-based monitoring thresholds (Section 4.2.1: "a rule-based engine
/// which compares the Flink job's key metrics ... and takes corrective
/// action such as restarting a stuck job or auto scaling").
struct JobManagerOptions {
  /// Consumer lag above which a running job is scaled up (parallelism x2).
  int64_t lag_scale_up_threshold = 50'000;
  int32_t max_parallelism = 8;
  /// Periodic checkpoint cadence, counted in Tick() calls.
  int64_t checkpoint_every_ticks = 1;
  /// Pool handed to every runner whose own options leave `executor` unset —
  /// how the platform shares one process-wide pool across all jobs. nullptr
  /// lets each runner create its private pool.
  common::Executor* default_executor = nullptr;
};

/// The job management layer of the unified Flink platform (Section 4.2.2,
/// Figure 5): owns the full job lifecycle — validation, deployment,
/// monitoring, automatic failure recovery from the latest checkpoint, and
/// lag-driven auto-scaling (with keyed state redistributed across the new
/// parallelism). The platform layer above it submits standard job
/// definitions (JobGraph, produced by hand or by FlinkSQL); the
/// infrastructure below is the MessageBus + ObjectStore pair.
class JobManager {
 public:
  JobManager(stream::MessageBus* bus, storage::ObjectStore* store,
             JobManagerOptions options = JobManagerOptions());
  ~JobManager();

  /// Validates and starts the job. Returns its id.
  Result<std::string> Submit(const JobGraph& graph,
                             JobRunnerOptions runner_options = JobRunnerOptions());

  /// Stops and removes the job (graceful: checkpoint first).
  Status CancelJob(const std::string& id);

  Result<JobInfo> GetJob(const std::string& id) const;
  std::vector<JobInfo> ListJobs() const;

  /// One monitoring sweep: detect finished/crashed jobs, restart crashed
  /// ones from their latest checkpoint, auto-scale lagging jobs, and drive
  /// periodic checkpoints — save the one whose barriers the sink aligned on
  /// since the last sweep, then start the next unless one is still in
  /// flight. Deterministic (no internal timer thread).
  Status Tick();

  /// Attaches the process-wide fault plane. Each Tick consults
  /// Check("job.crash.<id>") per running job; an injected fault cancels the
  /// runner (simulated crash), and the same sweep's crash detection restarts
  /// it from the latest checkpoint.
  void SetFaultInjector(common::FaultInjector* faults) { faults_ = faults; }

  /// Registry holding the manager's retries.checkpoint.* counters and
  /// checkpoints.completed, the checkpoints its jobs have saved (the store
  /// retains only the latest per job, so its blobs do not count them).
  MetricsRegistry* metrics() { return &metrics_; }

  /// Direct access for assertions in tests.
  JobRunner* GetRunner(const std::string& id);

 private:
  struct ManagedJob {
    std::string id;
    JobGraph graph;  // at original parallelism; scaled copies derived
    JobRunnerOptions runner_options;
    std::unique_ptr<JobRunner> runner;
    JobState state = JobState::kRunning;
    int32_t parallelism = 1;
    int64_t restarts = 0;
    int64_t rescales = 0;
  };

  Status RestartFromCheckpoint(ManagedJob* job, int32_t new_parallelism);
  /// Best-effort TriggerCheckpoint that adds every checkpoint it saved to
  /// checkpoints.completed.
  void TriggerCheckpointCounted(JobRunner* runner);
  JobInfo InfoFor(const ManagedJob& job) const;

  stream::MessageBus* bus_;
  storage::ObjectStore* store_;
  JobManagerOptions options_;
  common::FaultInjector* faults_ = nullptr;
  MetricsRegistry metrics_;
  Counter* checkpoints_completed_ = metrics_.GetCounter("checkpoints.completed");
  /// Shared by every managed runner's checkpoint Save/Load (see Submit).
  common::RetryPolicy checkpoint_retry_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ManagedJob>> jobs_;
  int64_t next_id_ = 0;
  int64_t ticks_ = 0;
};

/// Re-buckets keyed operator state (window aggregates and join buffers, whose
/// snapshot rows carry the partition key in field 0) from `old_parallelism`
/// instances to `new_parallelism`, using the same key hash the runner uses
/// for record routing — so restored state lands on the instance that will
/// receive that key's future records.
Result<CheckpointData> RedistributeKeyedState(const CheckpointData& data,
                                              const JobGraph& graph,
                                              int32_t old_parallelism,
                                              int32_t new_parallelism);

}  // namespace uberrt::compute

#endif  // UBERRT_COMPUTE_JOB_MANAGER_H_
