#include "compute/job_manager.h"

#include "common/hash.h"
#include "storage/archive.h"

namespace uberrt::compute {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kRunning: return "RUNNING";
    case JobState::kFinished: return "FINISHED";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

Result<CheckpointData> RedistributeKeyedState(const CheckpointData& data,
                                              const JobGraph& graph,
                                              int32_t old_parallelism,
                                              int32_t new_parallelism) {
  CheckpointData out;
  out.sequence = data.sequence;
  // Source offsets copy through unchanged.
  for (const auto& [key, value] : data.entries) {
    if (key.rfind("source.", 0) == 0) out.entries[key] = value;
  }
  for (size_t s = 0; s < graph.transforms().size(); ++s) {
    // Gather all old instances' state rows for this stage.
    std::vector<Row> all_rows;
    for (int32_t i = 0; i < old_parallelism; ++i) {
      auto it = data.entries.find("op." + std::to_string(s) + "." + std::to_string(i));
      if (it == data.entries.end() || it->second.empty()) continue;
      Result<std::vector<Row>> rows = storage::DecodeRowBatch(it->second);
      if (!rows.ok()) return rows.status();
      for (Row& row : rows.value()) all_rows.push_back(std::move(row));
    }
    // Re-bucket by the key in field 0 with the runner's routing hash.
    std::vector<std::vector<Row>> buckets(static_cast<size_t>(new_parallelism));
    for (Row& row : all_rows) {
      if (row.empty() || row[0].type() != ValueType::kString) {
        return Status::Corruption("keyed state row lacks key field");
      }
      size_t target = static_cast<size_t>(
          Fnv1a64(row[0].AsString()) % static_cast<uint64_t>(new_parallelism));
      buckets[target].push_back(std::move(row));
    }
    for (int32_t i = 0; i < new_parallelism; ++i) {
      out.entries["op." + std::to_string(s) + "." + std::to_string(i)] =
          storage::EncodeRowBatch(buckets[static_cast<size_t>(i)]);
    }
  }
  return out;
}

JobManager::JobManager(stream::MessageBus* bus, storage::ObjectStore* store,
                       JobManagerOptions options)
    : bus_(bus),
      store_(store),
      options_(options),
      checkpoint_retry_("checkpoint", common::RetryOptions{},
                        SystemClock::Instance(), &metrics_) {}

JobManager::~JobManager() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, job] : jobs_) {
    if (job->runner) job->runner->Cancel();
  }
}

Result<std::string> JobManager::Submit(const JobGraph& graph,
                                       JobRunnerOptions runner_options) {
  UBERRT_RETURN_IF_ERROR(graph.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  auto job = std::make_unique<ManagedJob>();
  job->id = graph.name() + "-" + std::to_string(next_id_++);
  job->graph = graph.WithName(job->id);  // checkpoint namespace per managed job
  job->runner_options = runner_options;
  if (job->runner_options.executor == nullptr) {
    job->runner_options.executor = options_.default_executor;
  }
  if (job->runner_options.checkpoint_retry == nullptr) {
    job->runner_options.checkpoint_retry = &checkpoint_retry_;
  }
  job->parallelism = graph.transforms().empty() ? 1 : graph.transforms()[0].parallelism;
  job->runner = std::make_unique<JobRunner>(job->graph, bus_, store_, job->runner_options);
  UBERRT_RETURN_IF_ERROR(job->runner->Start());
  std::string id = job->id;
  jobs_.emplace(id, std::move(job));
  return id;
}

Status JobManager::CancelJob(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("no job: " + id);
  ManagedJob* job = it->second.get();
  if (job->runner && job->runner->IsRunning()) {
    if (job->runner_options.periodic_checkpoints) {
      TriggerCheckpointCounted(job->runner.get());  // best-effort graceful snapshot
    }
    job->runner->Cancel();
  }
  job->state = JobState::kCancelled;
  return Status::Ok();
}

Result<JobInfo> JobManager::GetJob(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("no job: " + id);
  return InfoFor(*it->second);
}

std::vector<JobInfo> JobManager::ListJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> out;
  for (const auto& [id, job] : jobs_) out.push_back(InfoFor(*job));
  return out;
}

JobInfo JobManager::InfoFor(const ManagedJob& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.parallelism = job.parallelism;
  info.restarts = job.restarts;
  info.rescales = job.rescales;
  info.stateful = job.graph.IsStateful();
  if (job.runner) {
    info.records_in = job.runner->RecordsIn();
    info.records_out = job.runner->RecordsOut();
    info.state_bytes = job.runner->StateBytes();
    Result<int64_t> lag = job.runner->SourceLag();
    if (lag.ok()) info.lag = lag.value();
  }
  return info;
}

void JobManager::TriggerCheckpointCounted(JobRunner* runner) {
  // TriggerCheckpoint may also save the checkpoint already in flight.
  const int64_t before = runner->CheckpointsCompleted();
  runner->TriggerCheckpoint().ok();
  checkpoints_completed_->Increment(runner->CheckpointsCompleted() - before);
}

Status JobManager::RestartFromCheckpoint(ManagedJob* job, int32_t new_parallelism) {
  JobGraph graph = job->graph.WithParallelism(new_parallelism);
  auto runner = std::make_unique<JobRunner>(graph, bus_, store_, job->runner_options);
  if (new_parallelism != job->parallelism) {
    // Rescale: rewrite the latest checkpoint with state re-bucketed.
    CheckpointStore checkpoints(store_, job->runner_options.checkpoint_prefix, job->id);
    Result<CheckpointData> latest = checkpoint_retry_.RunResult<CheckpointData>(
        [&] { return checkpoints.LoadLatest(); });
    if (latest.ok()) {
      Result<CheckpointData> redistributed = RedistributeKeyedState(
          latest.value(), job->graph, job->parallelism, new_parallelism);
      if (!redistributed.ok()) return redistributed.status();
      CheckpointData data = std::move(redistributed.value());
      data.sequence = latest.value().sequence + 1;
      UBERRT_RETURN_IF_ERROR(checkpoints.Save(data));
    }
  }
  Status restored = runner->RestoreFromCheckpoint();
  if (!restored.ok() && !restored.IsNotFound()) return restored;
  UBERRT_RETURN_IF_ERROR(runner->Start());
  job->runner = std::move(runner);
  job->parallelism = new_parallelism;
  return Status::Ok();
}

Status JobManager::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  ++ticks_;
  for (auto& [id, job_ptr] : jobs_) {
    ManagedJob* job = job_ptr.get();
    if (job->state != JobState::kRunning || !job->runner) continue;
    if (job->runner->IsFinished()) {
      job->runner->AwaitTermination(1000).ok();
      job->state = JobState::kFinished;
      continue;
    }
    // The checkpoint the pipeline completed since the last sweep is saved
    // here, so object-store I/O and its retry backoff stay off the executor.
    Result<int64_t> saved = job->runner->PersistCompletedCheckpoint();
    if (saved.ok() && saved.value() > 0) checkpoints_completed_->Increment();
    // Injected crash: cancel the runner exactly as a process kill would;
    // the crash-detection branch below restarts it in this same sweep.
    if (faults_ != nullptr && job->runner->IsRunning() &&
        !faults_->Check("job.crash." + id).ok()) {
      job->runner->Cancel();
    }
    if (!job->runner->IsRunning()) {
      // Crash detected: automatic failure recovery from the last checkpoint.
      ++job->restarts;
      Status restarted = RestartFromCheckpoint(job, job->parallelism);
      // A transiently-down checkpoint store is not a dead job: leave it
      // kRunning so the next sweep retries the restart.
      if (!restarted.ok() && !common::RetryPolicy::IsRetryable(restarted)) {
        job->state = JobState::kFailed;
      }
      continue;
    }
    // Periodic checkpoint: start the next barrier round unless one is still
    // in flight (at most one at a time); a later sweep persists it.
    if (job->runner_options.periodic_checkpoints &&
        ticks_ % options_.checkpoint_every_ticks == 0) {
      job->runner->StartCheckpoint().ok();
    }
    // Lag-driven auto-scaling.
    Result<int64_t> lag = job->runner->SourceLag();
    if (lag.ok() && lag.value() > options_.lag_scale_up_threshold &&
        job->parallelism < options_.max_parallelism) {
      TriggerCheckpointCounted(job->runner.get());
      job->runner->Cancel();
      ++job->rescales;
      int32_t new_parallelism = std::min(options_.max_parallelism, job->parallelism * 2);
      Status rescaled = RestartFromCheckpoint(job, new_parallelism);
      if (!rescaled.ok() && !common::RetryPolicy::IsRetryable(rescaled)) {
        job->state = JobState::kFailed;
      }
    }
  }
  return Status::Ok();
}

JobRunner* JobManager::GetRunner(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second->runner.get();
}

}  // namespace uberrt::compute
