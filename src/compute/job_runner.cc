#include "compute/job_runner.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/clock.h"
#include "common/hash.h"
#include "compute/window_operator.h"

namespace uberrt::compute {

namespace {

/// Elements (not batches) one instance task processes before rescheduling
/// itself, so a small pool round-robins fairly across a wide pipeline.
constexpr int kInstanceTaskBudget = 1024;
/// Elements one bounded channel buffers: credit-based backpressure
/// (Flink-like) stalls the producer beyond this.
constexpr size_t kChannelCapacity = 1024;
/// Messages a source task fetches per poll of one partition.
constexpr size_t kSourcePollBatch = 256;
/// Sleep of a source task whose poll found no data.
constexpr int64_t kSourceIdleSleepMs = 1;
/// Threads of the private pool a runner creates when given no executor.
constexpr size_t kPrivatePoolThreads = 4;
/// How long TriggerCheckpoint waits for the sink to align on a barrier.
constexpr int64_t kCheckpointTimeoutMs = 30000;

/// Per-upstream-channel alignment state of an instance.
constexpr uint8_t kChannelOpen = 0;
constexpr uint8_t kChannelAligned = 1;  ///< delivered the current barrier
constexpr uint8_t kChannelEnded = 2;    ///< sent End; counts as aligned

/// Terminal stage: delivers rows to the configured sink. A topic sink
/// assigns partitions round-robin per row and sends each run of records as
/// one wire batch per touched partition (ProduceBatch), rows in arrival
/// order within each partition.
class SinkOperator : public OperatorInstance {
 public:
  SinkOperator(const SinkSpec& spec, stream::MessageBus* bus,
               std::atomic<int64_t>* records_out)
      : spec_(spec), bus_(bus), records_out_(records_out) {}

  void ProcessRecord(const Element& element, Emitter* out) override {
    ProcessBatch(&element, 1, out);
  }

  void ProcessBatch(const Element* elements, size_t count, Emitter* out) override {
    (void)out;
    if (spec_.kind == SinkSpec::Kind::kTopic) {
      ProduceToTopic(elements, count);
    } else if (spec_.collector) {
      for (size_t i = 0; i < count; ++i) {
        spec_.collector(elements[i].row, elements[i].event_time);
      }
    }
    records_out_->fetch_add(static_cast<int64_t>(count));
  }

 private:
  void ProduceToTopic(const Element* elements, size_t count) {
    if (builders_.empty()) {
      // Failures drop the rows, as a failed per-row produce did.
      Result<int32_t> partitions = bus_->NumPartitions(spec_.topic);
      if (!partitions.ok()) return;
      builders_.resize(static_cast<size_t>(partitions.value()));
    }
    for (size_t i = 0; i < count; ++i) {
      scratch_.value = EncodeRow(elements[i].row);
      // A zero timestamp is stamped at produce time, as the broker does.
      scratch_.timestamp = elements[i].event_time != 0 ? elements[i].event_time
                                                       : SystemClock::Instance()->NowMs();
      builders_[next_partition_].Add(scratch_);
      next_partition_ = (next_partition_ + 1) % builders_.size();
    }
    for (size_t p = 0; p < builders_.size(); ++p) {
      if (builders_[p].empty()) continue;
      bus_->ProduceBatch(spec_.topic, static_cast<int32_t>(p), builders_[p].Finish(),
                         stream::AckMode::kLeader)
          .ok();
    }
  }

  SinkSpec spec_;
  stream::MessageBus* bus_;
  std::atomic<int64_t>* records_out_;
  std::vector<stream::wire::BatchBuilder> builders_;  ///< one per partition
  size_t next_partition_ = 0;
  stream::Message scratch_;  ///< reused per row: value and timestamp only
};

}  // namespace

struct JobRunner::Wiring {
  std::vector<BoundedQueue<ElementBatch>*> queues;
  std::vector<Instance*> targets;  ///< parallel to queues, for wakeups
  bool keyed = false;
  std::vector<int> key_indices[2];  ///< per input side (joins); [0] otherwise
  std::atomic<uint64_t> round_robin{0};
};

struct JobRunner::PendingPush {
  ElementBatch batch;
  Wiring* wiring = nullptr;
  size_t target = 0;
};

/// Per-producer output staging: one open batch per downstream target plus a
/// reused key-encoding scratch buffer. Owned by exactly one task at a time
/// (the producer's current quantum), so no locking. Elements in a pending
/// batch are already counted in in_flight_ — a producer always flushes (to
/// queue or stash) before ending its quantum, so WaitUntilCaughtUp never
/// misses them.
struct JobRunner::OutBuffer {
  std::vector<ElementBatch> pending;  ///< parallel to the wiring's queues
  std::string key_scratch;
};

struct JobRunner::Instance {
  int stage = 0;
  int index = 0;
  std::unique_ptr<BoundedQueue<ElementBatch>> queue;
  std::unique_ptr<OperatorInstance> op;
  Wiring* output = nullptr;  ///< null for the sink stage
  int num_upstream = 0;
  bool is_sink = false;
  std::atomic<int64_t> state_bytes{0};
  std::atomic<int64_t> peak_state_bytes{0};
  std::atomic<int64_t> late_dropped{0};

  /// True while a pool task is queued or running for this instance. The
  /// clear-then-recheck protocol in RunInstance/WakeInstance guarantees at
  /// most one task at a time and no lost wakeups, which also makes the
  /// fields below single-writer (the current task) without locks.
  std::atomic<bool> scheduled{false};
  std::atomic<bool> exited{false};
  bool exiting = false;  ///< final End seen; draining stash before exit
  std::vector<TimestampMs> upstream_wm;
  int ends_remaining = 0;
  TimestampMs aligned = INT64_MIN;
  OutBuffer out;                  ///< output batching, owner-task only
  std::deque<PendingPush> stash;  ///< output backpressure, owner-task only

  // Barrier alignment, owner-task only.
  std::vector<uint8_t> channel_state;  ///< kChannel* per upstream channel
  int64_t aligning = 0;      ///< checkpoint sequence being aligned; 0 if none
  int barriers_missing = 0;  ///< open channels still owing that barrier
  /// Elements of aligned channels that arrived behind their barrier, in
  /// arrival order; replayed once the instance has snapshotted.
  std::vector<ElementBatch> held;
};

struct JobRunner::SourceState {
  SourceSpec spec;
  /// Next offset to fetch, per partition. Atomic because the owner poll task
  /// advances it while SourceLag() reads it from the caller's thread.
  std::vector<std::atomic<int64_t>> positions;
  int time_field_index = -1;
  /// Per-partition max event time (as in Flink's per-partition Kafka
  /// watermarking): the source watermark is the min over partitions that
  /// have produced data, so slow partitions never make fast ones "late".
  std::vector<TimestampMs> partition_max_event_time;
  std::atomic<bool> busy{false};
  std::atomic<bool> done{false};

  // Owner-task-only fields (one poll task at a time, self-rescheduled).
  bool finishing = false;
  /// Terminal watermark+End broadcast issued. Set under checkpoint_mu_, which
  /// StartCheckpoint reads it under.
  bool final_sent = false;
  int64_t barrier_sequence = 0;  ///< latest checkpoint this source has cut
  /// Last watermark this source emitted. Not checkpointed: a restored source
  /// re-emits from INT64_MIN and downstream alignment only moves forward.
  TimestampMs last_watermark = INT64_MIN;
  std::vector<int64_t> end_targets;
  OutBuffer out;
  std::deque<PendingPush> stash;

  /// Watermark base: min event time over partitions. A partition with no
  /// samples yet holds the watermark back (returns INT64_MIN) if it still
  /// has unread data — we must not declare time progressed past records we
  /// have not looked at. Truly empty partitions are ignored as idle.
  TimestampMs CurrentWatermarkBase(stream::MessageBus* bus) const {
    TimestampMs min_wm = kMaxWatermark;
    bool any = false;
    for (size_t p = 0; p < partition_max_event_time.size(); ++p) {
      TimestampMs t = partition_max_event_time[p];
      if (t == INT64_MIN) {
        Result<int64_t> end = bus->EndOffset(spec.topic, static_cast<int32_t>(p));
        if (end.ok() && end.value() > positions[p]) return INT64_MIN;  // unread data
        continue;  // idle partition
      }
      any = true;
      min_wm = std::min(min_wm, t);
    }
    return any ? min_wm : INT64_MIN;
  }
};

namespace {

/// Emitter bound to one instance: routes records into the next stage
/// through the instance's own output buffer and stash (never blocks the
/// pool thread).
class RunnerEmitter : public Emitter {
 public:
  RunnerEmitter(JobRunner* runner, JobRunner::Instance* instance)
      : runner_(runner), instance_(instance) {}

  void Emit(Row row, TimestampMs event_time) override;

 private:
  JobRunner* runner_;
  JobRunner::Instance* instance_;
};

}  // namespace

JobRunner::JobRunner(JobGraph graph, stream::MessageBus* bus,
                     storage::ObjectStore* store, JobRunnerOptions options)
    : graph_(std::move(graph)),
      bus_(bus),
      options_(options),
      checkpoint_store_(store, options.checkpoint_prefix, graph_.name()) {
  max_batch_ = std::max<size_t>(1, options_.max_batch_records);
}

JobRunner::~JobRunner() { Cancel(); }

Status JobRunner::BuildTopology() {
  // Sources.
  for (const SourceSpec& spec : graph_.sources()) {
    auto src = std::make_unique<SourceState>();
    src->spec = spec;
    src->time_field_index = spec.time_field.empty()
                                ? -1
                                : spec.schema.FieldIndex(spec.time_field);
    Result<int32_t> partitions = bus_->NumPartitions(spec.topic);
    if (!partitions.ok()) return partitions.status();
    src->positions = std::vector<std::atomic<int64_t>>(
        static_cast<size_t>(partitions.value()));
    src->partition_max_event_time.resize(static_cast<size_t>(partitions.value()),
                                         INT64_MIN);
    for (int32_t p = 0; p < partitions.value(); ++p) {
      std::string key = "source." + std::to_string(source_states_.size()) + "." +
                        std::to_string(p);
      auto it = restored_.entries.find(key);
      if (it != restored_.entries.end()) {
        src->positions[static_cast<size_t>(p)] = std::stoll(it->second);
      } else {
        Result<int64_t> begin = bus_->BeginOffset(spec.topic, p);
        if (!begin.ok()) return begin.status();
        src->positions[static_cast<size_t>(p)] = begin.value();
      }
    }
    source_states_.push_back(std::move(src));
  }

  // Stage plans: fuse runs of consecutive same-parallelism stateless
  // transforms into one stage (Flink task chaining); stateful transforms
  // and the sink stand alone.
  const auto& transforms = graph_.transforms();
  plans_.clear();
  for (size_t t = 0; t < transforms.size();) {
    StagePlan plan;
    plan.first = t;
    plan.last = t;
    plan.parallelism = transforms[t].parallelism;
    if (options_.enable_chaining && IsStatelessTransform(transforms[t])) {
      while (plan.last + 1 < transforms.size() &&
             IsStatelessTransform(transforms[plan.last + 1]) &&
             transforms[plan.last + 1].parallelism == plan.parallelism) {
        ++plan.last;
      }
    }
    t = plan.last + 1;
    plans_.push_back(plan);
  }
  StagePlan sink_plan;
  sink_plan.first = transforms.size();
  sink_plan.last = transforms.size();
  sink_plan.parallelism = 1;
  sink_plan.is_sink = true;
  plans_.push_back(sink_plan);

  size_t num_stages = plans_.size();
  stages_.resize(num_stages);
  wirings_.resize(num_stages);

  // Instances per stage.
  for (size_t s = 0; s < num_stages; ++s) {
    const StagePlan& plan = plans_[s];
    int num_upstream = s == 0 ? static_cast<int>(graph_.sources().size())
                              : plans_[s - 1].parallelism;
    RowSchema input = graph_.SchemaAfter(static_cast<int>(plan.first) - 1);
    for (int32_t i = 0; i < plan.parallelism; ++i) {
      auto inst = std::make_unique<Instance>();
      inst->stage = static_cast<int>(s);
      inst->index = i;
      inst->queue =
          std::make_unique<BoundedQueue<ElementBatch>>(kChannelCapacity);
      inst->num_upstream = num_upstream;
      inst->is_sink = plan.is_sink;
      inst->upstream_wm.assign(static_cast<size_t>(num_upstream), INT64_MIN);
      inst->channel_state.assign(static_cast<size_t>(num_upstream), kChannelOpen);
      inst->ends_remaining = num_upstream;
      if (plan.is_sink) {
        inst->op = std::make_unique<SinkOperator>(graph_.sink(), bus_, &records_out_);
      } else if (plan.last > plan.first) {
        std::vector<TransformSpec> chain(transforms.begin() + plan.first,
                                         transforms.begin() + plan.last + 1);
        inst->op = CreateChainedOperatorInstance(std::move(chain));
      } else {
        RowSchema left = graph_.sources()[0].schema;
        RowSchema right =
            graph_.sources().size() > 1 ? graph_.sources()[1].schema : RowSchema();
        inst->op = CreateOperatorInstance(transforms[plan.first], input, left, right);
      }
      if (!plan.is_sink) {
        // State lives with the stage's first transform; chained followers
        // are stateless by construction and keep "" entries for key
        // compatibility with unchained checkpoints.
        std::string key =
            "op." + std::to_string(plan.first) + "." + std::to_string(i);
        auto it = restored_.entries.find(key);
        if (it != restored_.entries.end()) {
          UBERRT_RETURN_IF_ERROR(inst->op->RestoreState(it->second));
          inst->state_bytes.store(inst->op->StateBytes());
        }
      }
      stages_[s].push_back(std::move(inst));
    }
  }

  // Wirings: wirings_[s] feeds stage s.
  for (size_t s = 0; s < num_stages; ++s) {
    auto wiring = std::make_unique<Wiring>();
    for (auto& inst : stages_[s]) {
      wiring->queues.push_back(inst->queue.get());
      wiring->targets.push_back(inst.get());
    }
    if (!plans_[s].is_sink) {
      const TransformSpec& t = transforms[plans_[s].first];
      if (t.kind == TransformSpec::Kind::kWindowAggregate) {
        wiring->keyed = true;
        RowSchema input = graph_.SchemaAfter(static_cast<int>(plans_[s].first) - 1);
        wiring->key_indices[0] = ResolveIndices(input, t.key_fields);
        wiring->key_indices[1] = wiring->key_indices[0];
      } else if (t.kind == TransformSpec::Kind::kWindowJoin) {
        wiring->keyed = true;
        wiring->key_indices[0] = ResolveIndices(graph_.sources()[0].schema, t.key_fields);
        wiring->key_indices[1] = ResolveIndices(graph_.sources()[1].schema, t.key_fields);
      }
    }
    wirings_[s] = std::move(wiring);
  }

  // Instance outputs and per-producer output buffers.
  for (size_t s = 0; s + 1 < num_stages; ++s) {
    for (auto& inst : stages_[s]) {
      inst->output = wirings_[s + 1].get();
      inst->out.pending.resize(wirings_[s + 1]->queues.size());
    }
  }
  for (auto& src : source_states_) {
    src->out.pending.resize(wirings_[0]->queues.size());
  }
  return Status::Ok();
}

Status JobRunner::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  UBERRT_RETURN_IF_ERROR(graph_.Validate());
  UBERRT_RETURN_IF_ERROR(BuildTopology());
  executor_ = options_.executor;
  if (executor_ == nullptr) {
    common::ExecutorOptions pool;
    pool.num_threads = kPrivatePoolThreads;
    pool.name = "executor.job." + graph_.name();
    owned_executor_ = std::make_unique<common::Executor>(pool);
    executor_ = owned_executor_.get();
  }
  running_.store(true);
  for (size_t si = 0; si < source_states_.size(); ++si) {
    if (!SubmitTask([this, si] { RunSource(si); })) {
      source_states_[si]->done.store(true);
    }
  }
  return Status::Ok();
}

Status JobRunner::RestoreFromCheckpoint() {
  if (running_.load()) return Status::FailedPrecondition("job already started");
  auto load = [&] { return checkpoint_store_.LoadLatest(); };
  Result<CheckpointData> data =
      options_.checkpoint_retry != nullptr
          ? options_.checkpoint_retry->RunResult<CheckpointData>(load)
          : load();
  if (!data.ok()) return data.status();
  restored_ = std::move(data.value());
  has_restored_ = true;
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  checkpoint_sequence_ = restored_.sequence;
  return Status::Ok();
}

bool JobRunner::SubmitTask(std::function<void()> fn) {
  tasks_wg_.Add(1);
  bool ok = executor_->Submit([this, fn = std::move(fn)] {
    fn();
    tasks_wg_.Done();
  });
  if (!ok) tasks_wg_.Done();
  return ok;
}

void JobRunner::WakeInstance(Instance* instance) {
  if (instance->exited.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!instance->scheduled.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
    return;  // a task is queued/running; it rechecks the queue before idling
  }
  if (!SubmitTask([this, instance] { RunInstance(instance); })) {
    instance->scheduled.store(false, std::memory_order_release);
  }
}

bool JobRunner::FlushStash(std::deque<PendingPush>& stash) {
  while (!stash.empty()) {
    PendingPush& pending = stash.front();
    BoundedQueue<ElementBatch>* queue = pending.wiring->queues[pending.target];
    if (queue->TryPushRef(pending.batch)) {
      WakeInstance(pending.wiring->targets[pending.target]);
      stash.pop_front();
      continue;
    }
    if (queue->closed()) {
      // Cancelled under us: drop, as the blocking Push used to.
      in_flight_.fetch_sub(static_cast<int64_t>(pending.batch.items.size()));
      stash.pop_front();
      continue;
    }
    return false;  // downstream still full
  }
  return true;
}

void JobRunner::FlushTarget(size_t target, Wiring& wiring, OutBuffer* out,
                            std::deque<PendingPush>* stash) {
  ElementBatch& pending = out->pending[target];
  if (pending.items.empty()) return;
  ElementBatch batch = std::move(pending);
  pending.items.clear();
  // Per-queue FIFO from one producer must hold (watermarks may not overtake
  // records), so while anything sits in the stash, everything new queues
  // behind it.
  if (!stash->empty()) {
    FlushStash(*stash);
    if (!stash->empty()) {
      stash->push_back({std::move(batch), &wiring, target});
      return;
    }
  }
  if (wiring.queues[target]->TryPushRef(batch)) {
    WakeInstance(wiring.targets[target]);
    return;
  }
  if (wiring.queues[target]->closed()) {
    in_flight_.fetch_sub(static_cast<int64_t>(batch.items.size()));
    return;
  }
  stash->push_back({std::move(batch), &wiring, target});
}

void JobRunner::FlushOut(Wiring& wiring, OutBuffer* out,
                         std::deque<PendingPush>* stash) {
  for (size_t target = 0; target < out->pending.size(); ++target) {
    FlushTarget(target, wiring, out, stash);
  }
}

void JobRunner::EmitRecord(Element element, Wiring& wiring, OutBuffer* out,
                           std::deque<PendingPush>* stash) {
  size_t n = wiring.queues.size();
  size_t target = 0;
  if (wiring.keyed) {
    int side = element.side == 1 ? 1 : 0;
    EncodeKeyTo(element.row, wiring.key_indices[side], &out->key_scratch);
    target = static_cast<size_t>(Fnv1a64(out->key_scratch) % n);
  } else if (n > 1) {
    target = wiring.round_robin.fetch_add(1) % n;
  }
  in_flight_.fetch_add(1);
  ElementBatch& pending = out->pending[target];
  pending.items.push_back(std::move(element));
  if (pending.items.size() >= max_batch_) {
    FlushTarget(target, wiring, out, stash);
  }
}

void JobRunner::EmitControl(const Element& element, Wiring& wiring, OutBuffer* out,
                            std::deque<PendingPush>* stash) {
  for (size_t target = 0; target < out->pending.size(); ++target) {
    in_flight_.fetch_add(1);
    ElementBatch& pending = out->pending[target];
    pending.items.push_back(element);
    if (pending.items.size() >= max_batch_) {
      FlushTarget(target, wiring, out, stash);
    }
  }
}

void RunnerEmitter::Emit(Row row, TimestampMs event_time) {
  if (instance_->output == nullptr) return;
  Element element = Element::Record(std::move(row), event_time);
  element.from_channel = instance_->index;
  runner_->EmitRecord(std::move(element), *instance_->output, &instance_->out,
                      &instance_->stash);
}

void JobRunner::RunSource(size_t source_index) {
  SourceState& src = *source_states_[source_index];
  if (cancel_.load()) {
    src.done.store(true);
    return;
  }
  // busy brackets every position write, so WaitUntilCaughtUp observing
  // busy==false with no lag and nothing in flight means the source is idle.
  // Every return path below flushes the output buffer first, so positions
  // never run ahead of elements that are not yet queue-or-stash accounted.
  src.busy.store(true);
  Wiring& out = *wirings_[0];

  bool flushed = FlushStash(src.stash);
  if (src.final_sent) {
    src.busy.store(false);
    if (flushed) {
      src.done.store(true);
      return;
    }
    if (!SubmitTask([this, source_index] { RunSource(source_index); })) {
      src.done.store(true);
    }
    return;
  }
  EmitSourceBarrier(source_index);
  if (!flushed) {
    // Backpressured: yield. The pool's FIFO lets the downstream instance
    // tasks make progress.
    src.busy.store(false);
    SystemClock::Instance()->SleepMs(1);
    if (cancel_.load() || !SubmitTask([this, source_index] { RunSource(source_index); })) {
      src.done.store(true);
    }
    return;
  }

  if (finish_requested_.load() && !src.finishing) {
    src.finishing = true;
    src.end_targets.resize(src.positions.size());
    for (size_t p = 0; p < src.positions.size(); ++p) {
      Result<int64_t> end = bus_->EndOffset(src.spec.topic, static_cast<int32_t>(p));
      src.end_targets[p] = end.ok() ? end.value() : src.positions[p].load();
    }
  }
  // Sources fetch borrowed views and decode straight from the broker's
  // arenas (zero copy until Row materialization); per-record mode differs
  // only in its batch cap of 1. The FetchedBatch pin dies at the end of each
  // partition's poll, after every record has been decoded into an owning Row.
  bool got_data = false;
  for (size_t p = 0; p < src.positions.size() && !cancel_.load(); ++p) {
    if (!src.stash.empty()) break;  // downstream full: stop pulling more
    Result<stream::FetchedBatch> batch =
        bus_->FetchViews(src.spec.topic, static_cast<int32_t>(p), src.positions[p],
                         kSourcePollBatch);
    if (!batch.ok()) {
      if (batch.status().code() == StatusCode::kOutOfRange) {
        Result<int64_t> begin =
            bus_->BeginOffset(src.spec.topic, static_cast<int32_t>(p));
        if (begin.ok() && begin.value() > src.positions[p]) {
          src.positions[p] = begin.value();
        }
      }
      continue;
    }
    for (const stream::wire::MessageView& m : batch.value().messages) {
      got_data = true;
      Result<Row> row = DecodeRow(m.value);
      // Position advances only after the record is in the pipeline (queue,
      // stash or pending output batch — all counted in_flight_), so a
      // checkpoint can never skip an unpushed record.
      if (!row.ok()) {
        decode_errors_.fetch_add(1);
        src.positions[p] = m.offset + 1;
        continue;
      }
      TimestampMs t = m.timestamp;
      int tf = src.time_field_index;
      if (tf >= 0 && tf < static_cast<int>(row.value().size()) &&
          row.value()[static_cast<size_t>(tf)].type() == ValueType::kInt) {
        t = row.value()[static_cast<size_t>(tf)].AsInt();
      }
      src.partition_max_event_time[p] =
          std::max(src.partition_max_event_time[p], t);
      records_in_.fetch_add(1);
      Element element = Element::Record(std::move(row.value()), t,
                                        static_cast<int32_t>(source_index));
      element.from_channel = static_cast<int32_t>(source_index);
      EmitRecord(std::move(element), out, &src.out, &src.stash);
      src.positions[p] = m.offset + 1;
    }
  }
  // One watermark per poll that read records, queued behind them, so a
  // window closes once its records are read, not when later traffic comes.
  TimestampMs base = got_data ? src.CurrentWatermarkBase(bus_) : INT64_MIN;
  if (base != INT64_MIN && base - src.spec.out_of_orderness_ms > src.last_watermark) {
    src.last_watermark = base - src.spec.out_of_orderness_ms;
    Element wm = Element::Watermark(src.last_watermark);
    wm.from_channel = static_cast<int32_t>(source_index);
    EmitControl(wm, out, &src.out, &src.stash);
  }
  FlushOut(out, &src.out, &src.stash);
  if (src.finishing) {
    bool caught_up = true;
    for (size_t p = 0; p < src.positions.size(); ++p) {
      if (src.positions[p] < src.end_targets[p]) {
        caught_up = false;
        break;
      }
    }
    if (caught_up) {
      // Under checkpoint_mu_, a checkpoint either started before this and
      // gets its barrier ahead of End, or sees final_sent and is declined.
      int64_t barrier = 0;
      {
        std::lock_guard<std::mutex> lock(checkpoint_mu_);
        barrier = CutSourceLocked(source_index);
        src.final_sent = true;
      }
      if (barrier != 0) {
        Element cut = Element::Barrier(barrier);
        cut.from_channel = static_cast<int32_t>(source_index);
        EmitControl(cut, out, &src.out, &src.stash);
      }
      // Batch + stash ordering keeps these behind any pending records per
      // queue.
      Element wm = Element::Watermark(kMaxWatermark);
      wm.from_channel = static_cast<int32_t>(source_index);
      EmitControl(wm, out, &src.out, &src.stash);
      Element end = Element::End();
      end.from_channel = static_cast<int32_t>(source_index);
      EmitControl(end, out, &src.out, &src.stash);
      FlushOut(out, &src.out, &src.stash);
      src.busy.store(false);
      if (src.stash.empty() || cancel_.load() ||
          !SubmitTask([this, source_index] { RunSource(source_index); })) {
        src.done.store(true);
      }
      return;
    }
  }
  src.busy.store(false);
  if (!got_data) SystemClock::Instance()->SleepMs(kSourceIdleSleepMs);
  if (cancel_.load() || !SubmitTask([this, source_index] { RunSource(source_index); })) {
    src.done.store(true);
  }
}

int64_t JobRunner::CutSourceLocked(size_t source_index) {
  SourceState& src = *source_states_[source_index];
  const int64_t sequence = barrier_sequence_.load(std::memory_order_relaxed);
  if (sequence == src.barrier_sequence) return 0;
  src.barrier_sequence = sequence;
  if (checkpoint_phase_ != CheckpointPhase::kAligning ||
      pending_checkpoint_.sequence != sequence) {
    return 0;  // abandoned before this source got to it
  }
  for (size_t p = 0; p < src.positions.size(); ++p) {
    pending_checkpoint_.entries["source." + std::to_string(source_index) + "." +
                                std::to_string(p)] =
        std::to_string(src.positions[p].load());
  }
  return sequence;
}

void JobRunner::EmitSourceBarrier(size_t source_index) {
  SourceState& src = *source_states_[source_index];
  if (barrier_sequence_.load(std::memory_order_acquire) == src.barrier_sequence) return;
  int64_t barrier = 0;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    barrier = CutSourceLocked(source_index);
  }
  if (barrier == 0) return;
  // The positions just recorded cover exactly the records emitted so far;
  // the barrier queues behind them (through the stash if backpressured).
  Element cut = Element::Barrier(barrier);
  cut.from_channel = static_cast<int32_t>(source_index);
  EmitControl(cut, *wirings_[0], &src.out, &src.stash);
  FlushOut(*wirings_[0], &src.out, &src.stash);
}

bool JobRunner::OnBarrier(Instance* instance, const Element& barrier) {
  if (instance->aligning == 0) {
    instance->aligning = barrier.event_time;
    instance->barriers_missing = static_cast<int>(std::count(
        instance->channel_state.begin(), instance->channel_state.end(), kChannelOpen));
  }
  size_t ch = static_cast<size_t>(barrier.from_channel);
  if (ch < instance->channel_state.size() &&
      instance->channel_state[ch] == kChannelOpen) {
    instance->channel_state[ch] = kChannelAligned;
    --instance->barriers_missing;
  }
  if (instance->barriers_missing > 0) return false;
  CompleteAlignment(instance);
  return true;
}

void JobRunner::CompleteAlignment(Instance* instance) {
  const int64_t sequence = instance->aligning;
  if (instance->is_sink) {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (checkpoint_phase_ == CheckpointPhase::kAligning &&
        pending_checkpoint_.sequence == sequence) {
      checkpoint_phase_ = CheckpointPhase::kComplete;
      checkpoint_cv_.notify_all();
    }
  } else {
    // Snapshot on the instance's own task, so operator state keeps a single
    // writer. Every graph transform keeps its own entry regardless of
    // chaining, so checkpoints written with chaining on restore with it off
    // and vice versa: a chain's state lives under its first transform's key
    // and its followers (stateless by construction) store "".
    const StagePlan& plan = plans_[static_cast<size_t>(instance->stage)];
    const std::string index = "." + std::to_string(instance->index);
    std::string state = instance->op->SnapshotState();
    {
      std::lock_guard<std::mutex> lock(checkpoint_mu_);
      if (checkpoint_phase_ == CheckpointPhase::kAligning &&
          pending_checkpoint_.sequence == sequence) {
        pending_checkpoint_.entries["op." + std::to_string(plan.first) + index] =
            std::move(state);
        for (size_t t = plan.first + 1; t <= plan.last; ++t) {
          pending_checkpoint_.entries["op." + std::to_string(t) + index] = "";
        }
      }
    }
    Element forward = Element::Barrier(sequence);
    forward.from_channel = instance->index;
    EmitControl(forward, *instance->output, &instance->out, &instance->stash);
  }
  for (uint8_t& state : instance->channel_state) {
    if (state == kChannelAligned) state = kChannelOpen;
  }
  instance->aligning = 0;
}

bool JobRunner::ProcessControl(Instance* instance, const Element& element) {
  RunnerEmitter emitter(this, instance);
  auto aligned_watermark = [&]() {
    TimestampMs min_wm = kMaxWatermark;
    for (TimestampMs wm : instance->upstream_wm) min_wm = std::min(min_wm, wm);
    return min_wm;
  };
  auto update_state_gauges = [&] {
    int64_t bytes = instance->op->StateBytes();
    instance->state_bytes.store(bytes);
    if (bytes > instance->peak_state_bytes.load()) {
      instance->peak_state_bytes.store(bytes);
    }
    instance->late_dropped.store(instance->op->late_dropped());
  };

  if (element.kind == Element::Kind::kWatermark) {
    size_t ch = static_cast<size_t>(element.from_channel);
    if (ch < instance->upstream_wm.size()) {
      instance->upstream_wm[ch] =
          std::max(instance->upstream_wm[ch], element.event_time);
    }
    TimestampMs min_wm = aligned_watermark();
    if (min_wm > instance->aligned) {
      instance->aligned = min_wm;
      instance->op->OnWatermark(instance->aligned, &emitter);
      update_state_gauges();
      if (instance->output != nullptr) {
        Element forward = Element::Watermark(instance->aligned);
        forward.from_channel = instance->index;
        EmitControl(forward, *instance->output, &instance->out, &instance->stash);
      }
    }
    return false;
  }
  // kEnd.
  size_t ch = static_cast<size_t>(element.from_channel);
  if (ch < instance->upstream_wm.size()) {
    instance->upstream_wm[ch] = kMaxWatermark;
  }
  --instance->ends_remaining;
  TimestampMs min_wm = aligned_watermark();
  if (min_wm > instance->aligned) {
    instance->aligned = min_wm;
    instance->op->OnWatermark(instance->aligned, &emitter);
    update_state_gauges();
  }
  if (ch < instance->channel_state.size()) {
    // An ended channel sends no barrier: it counts as aligned. The barrier
    // goes downstream ahead of this instance's own End.
    bool owed = instance->aligning != 0 && instance->channel_state[ch] == kChannelOpen;
    instance->channel_state[ch] = kChannelEnded;
    if (owed && --instance->barriers_missing == 0) CompleteAlignment(instance);
  }
  if (instance->ends_remaining == 0) {
    if (instance->output != nullptr) {
      Element forward = Element::End();
      forward.from_channel = instance->index;
      EmitControl(forward, *instance->output, &instance->out, &instance->stash);
    }
    return true;
  }
  return false;
}

bool JobRunner::ProcessBatchElements(Instance* instance, ElementBatch& batch) {
  const size_t n = batch.items.size();
  if (n == 0) return false;
  if (instance->aligning != 0 &&
      instance->channel_state[static_cast<size_t>(batch.items[0].from_channel)] ==
          kChannelAligned) {
    // The whole batch is behind its channel's barrier: hold it back.
    alignment_held_.fetch_add(static_cast<int64_t>(n));
    instance->held.push_back(std::move(batch));
    return false;
  }
  RunnerEmitter emitter(this, instance);
  size_t i = 0;
  while (i < n) {
    const Element::Kind kind = batch.items[i].kind;
    if (kind == Element::Kind::kRecord) {
      size_t j = i + 1;
      while (j < n && batch.items[j].kind == Element::Kind::kRecord) ++j;
      // Contiguous record run: one virtual call, one state-gauge update.
      instance->op->ProcessBatch(&batch.items[i], j - i, &emitter);
      int64_t bytes = instance->op->StateBytes();
      instance->state_bytes.store(bytes);
      if (bytes > instance->peak_state_bytes.load()) {
        instance->peak_state_bytes.store(bytes);
      }
      instance->late_dropped.store(instance->op->late_dropped());
      i = j;
    } else if (kind == Element::Kind::kBarrier) {
      ++i;
      if (!OnBarrier(instance, batch.items[i - 1])) {
        // Other channels still owe the barrier: the rest of this batch
        // waits behind it.
        if (i < n) {
          ElementBatch rest;
          rest.items.assign(std::make_move_iterator(batch.items.begin() + i),
                            std::make_move_iterator(batch.items.end()));
          alignment_held_.fetch_add(static_cast<int64_t>(n - i));
          instance->held.push_back(std::move(rest));
        }
        in_flight_.fetch_sub(static_cast<int64_t>(i));
        return false;
      }
    } else {
      ++i;
      if (ProcessControl(instance, batch.items[i - 1])) {
        // Final End is always the last element of the last live producer's
        // batch, so nothing follows it.
        in_flight_.fetch_sub(static_cast<int64_t>(i));
        return true;
      }
    }
  }
  in_flight_.fetch_sub(static_cast<int64_t>(n));
  if (instance->aligning == 0 && !instance->held.empty()) {
    // Aligned and snapshotted: replay what was held back, in arrival order.
    std::vector<ElementBatch> replay = std::move(instance->held);
    instance->held.clear();
    for (ElementBatch& held : replay) {
      if (ProcessBatchElements(instance, held)) return true;
    }
  }
  return false;
}

void JobRunner::RunInstance(Instance* instance) {
  if (cancel_.load()) {
    instance->exited.store(true, std::memory_order_release);
    return;
  }
  auto resubmit = [this, instance] {
    // scheduled_ stays true across the handoff so producers don't
    // double-submit.
    if (!SubmitTask([this, instance] { RunInstance(instance); })) {
      instance->scheduled.store(false, std::memory_order_release);
    }
  };
  auto flush_output = [this, instance] {
    if (instance->output != nullptr) {
      FlushOut(*instance->output, &instance->out, &instance->stash);
    }
  };
  if (instance->exiting) {
    // Final End already processed: drain whatever that emitted, then leave
    // for good (nothing more arrives after End). Never blocks a pool
    // thread: if downstream is still full we yield and retry.
    if (!FlushStash(instance->stash)) {
      resubmit();
      return;
    }
    if (instance->is_sink) finished_.store(true);
    instance->exited.store(true, std::memory_order_release);
    return;
  }
  int budget = kInstanceTaskBudget;
  while (budget > 0) {
    if (!FlushStash(instance->stash)) {
      // Downstream full: park pending output in the stash and yield; pool
      // FIFO runs the downstream task first.
      flush_output();
      resubmit();
      return;
    }
    std::optional<ElementBatch> batch = instance->queue->TryPop();
    if (!batch.has_value()) break;
    budget -= static_cast<int>(batch->items.size());
    if (ProcessBatchElements(instance, *batch)) {
      instance->exiting = true;
      flush_output();
      if (!FlushStash(instance->stash)) {
        resubmit();
        return;
      }
      if (instance->is_sink) finished_.store(true);
      instance->exited.store(true, std::memory_order_release);
      return;
    }
  }
  // Nothing may linger in the pending output while this task idles — flush
  // to queue or stash before deciding whether to reschedule.
  flush_output();
  if (!instance->stash.empty() || instance->queue->Size() > 0) {
    resubmit();
    return;
  }
  // Idle: clear the flag, then recheck — a producer that pushed between the
  // TryPop miss and the clear would otherwise be lost.
  instance->scheduled.store(false, std::memory_order_release);
  if (instance->queue->Size() > 0) {
    bool expected = false;
    if (instance->scheduled.compare_exchange_strong(expected, true,
                                                    std::memory_order_acq_rel)) {
      resubmit();
    }
  }
}

Result<int64_t> JobRunner::StartCheckpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  if (!running_.load() || cancel_.load()) {
    return Status::FailedPrecondition("job not running");
  }
  if (checkpoint_phase_ != CheckpointPhase::kIdle) {
    return Status::FailedPrecondition("checkpoint in flight");
  }
  for (const auto& src : source_states_) {
    // A source past its final End (or stopped) cuts no more barriers, so
    // the checkpoint is declined, as in Flink before FLIP-147.
    if (src->final_sent || src->done.load()) {
      return Status::FailedPrecondition("source finished");
    }
  }
  pending_checkpoint_ = CheckpointData();
  pending_checkpoint_.sequence = ++checkpoint_sequence_;
  checkpoint_phase_ = CheckpointPhase::kAligning;
  barrier_sequence_.store(pending_checkpoint_.sequence, std::memory_order_release);
  return pending_checkpoint_.sequence;
}

Result<int64_t> JobRunner::PersistCompletedCheckpoint() {
  CheckpointData data;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (checkpoint_phase_ != CheckpointPhase::kComplete) return int64_t{0};
    checkpoint_phase_ = CheckpointPhase::kPersisting;
    data = std::move(pending_checkpoint_);
  }
  // Save is idempotent (same keys, same bytes), so retrying the whole write
  // after a transient store failure is safe.
  Status saved = options_.checkpoint_retry != nullptr
                     ? options_.checkpoint_retry->Run(
                           [&] { return checkpoint_store_.Save(data); })
                     : checkpoint_store_.Save(data);
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    checkpoint_phase_ = CheckpointPhase::kIdle;
  }
  checkpoint_cv_.notify_all();
  if (!saved.ok()) return saved;
  checkpoints_completed_.fetch_add(1);
  return data.sequence;
}

Status JobRunner::WaitForAlignment(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(checkpoint_mu_);
  bool settled = checkpoint_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return checkpoint_phase_ == CheckpointPhase::kIdle ||
           checkpoint_phase_ == CheckpointPhase::kComplete;
  });
  return settled ? Status::Ok() : Status::Timeout("checkpoint did not align");
}

Result<int64_t> JobRunner::TriggerCheckpoint() {
  // Settle a checkpoint already in flight first, so LATEST only moves
  // forward.
  UBERRT_RETURN_IF_ERROR(WaitForAlignment(kCheckpointTimeoutMs));
  Result<int64_t> earlier = PersistCompletedCheckpoint();
  if (!earlier.ok()) return earlier.status();
  Result<int64_t> sequence = StartCheckpoint();
  if (!sequence.ok()) return sequence;
  UBERRT_RETURN_IF_ERROR(WaitForAlignment(kCheckpointTimeoutMs));
  Result<int64_t> saved = PersistCompletedCheckpoint();
  if (!saved.ok()) return saved.status();
  if (saved.value() != sequence.value()) {
    return Status::FailedPrecondition("checkpoint abandoned");
  }
  return sequence;
}

void JobRunner::RequestFinish() { finish_requested_.store(true); }

Status JobRunner::AwaitTermination(int64_t timeout_ms) {
  TimestampMs deadline =
      timeout_ms < 0 ? kMaxWatermark : SystemClock::Instance()->NowMs() + timeout_ms;
  while (!finished_.load() && !cancel_.load()) {
    if (SystemClock::Instance()->NowMs() > deadline) {
      return Status::Timeout("job did not terminate");
    }
    SystemClock::Instance()->SleepMs(1);
  }
  // Sink done: sources and upstream instances have sent their Ends; wait for
  // the trailing pool tasks to drain.
  tasks_wg_.Wait();
  running_.store(false);
  return Status::Ok();
}

void JobRunner::Cancel() {
  cancel_.store(true);
  for (auto& stage : stages_) {
    for (auto& inst : stage) inst->queue->Close();
  }
  tasks_wg_.Wait();
  running_.store(false);
  {
    // An unpersisted checkpoint dies with the job; LATEST stays put.
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    if (checkpoint_phase_ == CheckpointPhase::kAligning ||
        checkpoint_phase_ == CheckpointPhase::kComplete) {
      checkpoint_phase_ = CheckpointPhase::kIdle;
    }
  }
  checkpoint_cv_.notify_all();
}

Status JobRunner::WaitUntilCaughtUp(int64_t timeout_ms) {
  TimestampMs deadline = SystemClock::Instance()->NowMs() + timeout_ms;
  while (true) {
    Result<int64_t> lag = SourceLag();
    if (lag.ok() && lag.value() == 0 && in_flight_.load() == 0) {
      bool idle = true;
      for (auto& src : source_states_) {
        if (src->busy.load()) idle = false;
      }
      if (idle) return Status::Ok();
    }
    if (SystemClock::Instance()->NowMs() > deadline) {
      return Status::Timeout("did not catch up");
    }
    SystemClock::Instance()->SleepMs(1);
  }
}

int64_t JobRunner::StateBytes() const {
  int64_t total = 0;
  for (const auto& stage : stages_) {
    for (const auto& inst : stage) total += inst->state_bytes.load();
  }
  return total;
}

int64_t JobRunner::PeakStateBytes() const {
  int64_t total = 0;
  for (const auto& stage : stages_) {
    for (const auto& inst : stage) total += inst->peak_state_bytes.load();
  }
  return total;
}

Result<int64_t> JobRunner::SourceLag() const {
  int64_t lag = 0;
  for (const auto& src : source_states_) {
    for (size_t p = 0; p < src->positions.size(); ++p) {
      Result<int64_t> end = bus_->EndOffset(src->spec.topic, static_cast<int32_t>(p));
      if (!end.ok()) return end.status();
      lag += std::max<int64_t>(0, end.value() - src->positions[p]);
    }
  }
  return lag;
}

int64_t JobRunner::LateDropped() const {
  int64_t total = 0;
  for (const auto& stage : stages_) {
    for (const auto& inst : stage) total += inst->late_dropped.load();
  }
  return total;
}

}  // namespace uberrt::compute
