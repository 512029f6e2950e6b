#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compute/job_runner.h"
#include "stream/broker.h"

// Aligned barrier checkpoints: a checkpoint cut while the sources still have
// a backlog, restored into a fresh runner, must give the same final results
// as an uninterrupted run. The sink is at-least-once, so the restored run
// may repeat what the cancelled one emitted after the cut, but it must never
// emit a row the uninterrupted run did not (state counted twice) or miss one
// (state lost). Joins get a skewed variant where one input is held back, so
// alignment must hold the other input's elements behind its barrier.

namespace uberrt::compute {
namespace {

using stream::Broker;
using stream::Message;
using stream::TopicConfig;

/// Delegating bus that sleeps before each fetch of a throttled topic, so a
/// source reads its backlog slowly, and can park fetches of one topic
/// mid-poll. Delays and the parked topic are set before the runner starts.
class ThrottledBus : public stream::MessageBus {
 public:
  explicit ThrottledBus(stream::MessageBus* inner) : inner_(inner) {}

  void SetFetchDelayMs(const std::string& topic, int64_t ms) { delay_ms_[topic] = ms; }
  void SetParkableTopic(const std::string& topic) { parkable_ = topic; }
  /// While parked, fetches of the parkable topic wait inside FetchViews.
  void Park(bool park) { park_.store(park); }
  bool HasParkedFetch() const { return parked_.load(); }

  Status CreateTopic(const std::string& topic, TopicConfig config) override {
    return inner_->CreateTopic(topic, config);
  }
  bool HasTopic(const std::string& topic) const override { return inner_->HasTopic(topic); }
  Result<int32_t> NumPartitions(const std::string& topic) const override {
    return inner_->NumPartitions(topic);
  }
  Result<stream::ProduceResult> Produce(const std::string& topic, const Message& message,
                                        stream::AckMode ack) override {
    return inner_->Produce(topic, message, ack);
  }
  Result<stream::ProduceResult> ProduceBatch(const std::string& topic, int32_t partition,
                                             const stream::wire::EncodedBatch& batch,
                                             stream::AckMode ack) override {
    return inner_->ProduceBatch(topic, partition, batch, ack);
  }
  Result<stream::FetchedBatch> FetchViews(const std::string& topic, int32_t partition,
                                          int64_t offset,
                                          size_t max_messages) const override {
    auto it = delay_ms_.find(topic);
    if (it != delay_ms_.end() && it->second > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(it->second));
    }
    if (topic == parkable_) {
      while (park_.load()) {
        parked_.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      parked_.store(false);
    }
    return inner_->FetchViews(topic, partition, offset, max_messages);
  }
  Result<int64_t> BeginOffset(const std::string& topic, int32_t partition) const override {
    return inner_->BeginOffset(topic, partition);
  }
  Result<int64_t> EndOffset(const std::string& topic, int32_t partition) const override {
    return inner_->EndOffset(topic, partition);
  }
  Status JoinGroup(const std::string& group, const std::string& topic,
                   const std::string& member) override {
    return inner_->JoinGroup(group, topic, member);
  }
  Status LeaveGroup(const std::string& group, const std::string& topic,
                    const std::string& member) override {
    return inner_->LeaveGroup(group, topic, member);
  }
  Result<std::vector<int32_t>> GetAssignment(const std::string& group,
                                             const std::string& topic,
                                             const std::string& member) const override {
    return inner_->GetAssignment(group, topic, member);
  }
  int64_t GroupGeneration(const std::string& group,
                          const std::string& topic) const override {
    return inner_->GroupGeneration(group, topic);
  }
  Status CommitOffset(const std::string& group, const std::string& topic,
                      int32_t partition, int64_t offset) override {
    return inner_->CommitOffset(group, topic, partition, offset);
  }
  Result<int64_t> CommittedOffset(const std::string& group, const std::string& topic,
                                  int32_t partition) const override {
    return inner_->CommittedOffset(group, topic, partition);
  }
  Result<int64_t> ConsumerLag(const std::string& group,
                              const std::string& topic) const override {
    return inner_->ConsumerLag(group, topic);
  }

 private:
  stream::MessageBus* inner_;
  std::map<std::string, int64_t> delay_ms_;
  std::string parkable_;
  std::atomic<bool> park_{false};
  mutable std::atomic<bool> parked_{false};
};

RowSchema EventSchema() {
  return RowSchema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

Message EventMessage(const std::string& key, double v, int64_t ts) {
  Message m;
  m.key = key;
  m.value = EncodeRow({Value(key), Value(v), Value(ts)});
  m.timestamp = ts;
  return m;
}

/// Event times rise with jitter well inside the 200 ms out-of-orderness
/// slack, so no run drops a record as late and results depend only on input.
void ProduceEvents(Broker* broker, const std::string& topic, Rng* rng, int count,
                   int keys, int64_t step_ms) {
  for (int i = 0; i < count; ++i) {
    std::string key = "k" + std::to_string(rng->Uniform(0, keys - 1));
    int64_t ts = i * step_ms + rng->Uniform(0, 5) * 10;
    // Unique values, so every join output row is distinct.
    ASSERT_TRUE(broker->Produce(topic, EventMessage(key, static_cast<double>(i), ts)).ok());
  }
}

SourceSpec Source(const std::string& topic, RowSchema schema, const std::string& time_field) {
  SourceSpec source;
  source.topic = topic;
  source.schema = std::move(schema);
  source.time_field = time_field;
  source.out_of_orderness_ms = 200;
  return source;
}

/// Filter and map ahead of a keyed window aggregation, all at parallelism 2,
/// so each aggregation instance aligns two channels (chained or not).
JobGraph AggregateGraph() {
  JobGraph graph("agg");
  graph.AddSource(Source("events", EventSchema(), "ts"))
      .Filter("keep", [](const Row& r) { return r[1].AsDouble() >= 0.0; }, 2)
      .Map(
          "scale",
          [](const Row& r) { return Row{r[0], Value(r[1].AsDouble() * 2.0), r[2]}; },
          EventSchema(), 2)
      .WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(1000),
                       {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s")},
                       /*allowed_lateness_ms=*/0, /*parallelism=*/2);
  return graph;
}

/// Two-topic window join followed by a chainable map + filter.
JobGraph JoinGraph() {
  JobGraph graph("join");
  graph.AddSource(Source("left", RowSchema({{"key", ValueType::kString},
                                            {"l", ValueType::kDouble},
                                            {"ts", ValueType::kInt}}),
                         "ts"));
  graph.AddSource(Source("right", RowSchema({{"key", ValueType::kString},
                                             {"r", ValueType::kDouble},
                                             {"ts2", ValueType::kInt}}),
                         "ts2"));
  // Join rows are [key, l, ts, r, ts2].
  graph.WindowJoin("join", {"key"}, WindowSpec::Tumbling(1000), /*allowed_lateness_ms=*/0,
                   /*parallelism=*/2)
      .Map(
          "sum",
          [](const Row& r) {
            return Row{r[0], r[1], r[3], Value(r[1].AsDouble() + r[3].AsDouble())};
          },
          RowSchema({{"key", ValueType::kString},
                     {"l", ValueType::kDouble},
                     {"r", ValueType::kDouble},
                     {"lr", ValueType::kDouble}}),
          2)
      .Filter("all", [](const Row& r) { return r[3].AsDouble() >= 0.0; }, 2);
  return graph;
}

struct Collector {
  std::mutex mu;
  std::vector<Row> rows;
  void Attach(JobGraph* graph) {
    graph->SinkToCollector([this](const Row& row, TimestampMs) {
      std::lock_guard<std::mutex> lock(mu);
      rows.push_back(row);
    });
  }
};

std::vector<std::string> Encoded(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(EncodeRow(row));
  std::sort(out.begin(), out.end());
  return out;
}

struct MidStreamRun {
  std::vector<Row> before;     ///< emitted by the cancelled runner
  std::vector<Row> after;      ///< emitted by the restored runner
  std::vector<Row> reference;  ///< one uninterrupted run
  int64_t total = 0;           ///< records in the source topics
  int64_t cut = 0;             ///< source positions in the checkpoint
  int64_t restored_in = 0;     ///< records the restored runner read
  int64_t held = 0;            ///< elements alignment held back in phase 1
};

/// Takes phase 1's checkpoint on the running job; sets its sequence.
using CheckpointStep = std::function<void(JobRunner* runner, int64_t* sequence)>;

void AwaitRecordsIn(JobRunner* runner, int64_t records) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runner->RecordsIn() < records) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "source never got going";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Checkpoints once the sources have read `records`, with the rest unread.
CheckpointStep CheckpointAfter(int64_t records) {
  return [records](JobRunner* runner, int64_t* sequence) {
    AwaitRecordsIn(runner, records);
    Result<int64_t> seq = runner->TriggerCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    *sequence = seq.value();
  };
}

/// Phase 1 reads through `throttled` and takes a checkpoint with `step`; the
/// checkpoint is then restored into a fresh runner that finishes the stream,
/// and a reference run covers it uninterrupted.
void RunMidStream(const JobGraph& proto, Broker* broker, ThrottledBus* throttled,
                  bool chaining, int64_t total, const CheckpointStep& step,
                  MidStreamRun* out) {
  out->total = total;
  storage::InMemoryObjectStore store;
  JobRunnerOptions options;
  options.max_batch_records = 64;
  options.enable_chaining = chaining;

  Collector before;
  int64_t sequence = 0;
  {
    JobGraph graph = proto.WithName("mid");
    before.Attach(&graph);
    JobRunner runner(std::move(graph), throttled, &store, options);
    ASSERT_TRUE(runner.Start().ok());
    step(&runner, &sequence);
    out->held = runner.AlignmentHeld();
    runner.Cancel();
    ASSERT_GT(sequence, 0);
  }
  CheckpointStore checkpoints(&store, "checkpoints", "mid");
  Result<CheckpointData> data = checkpoints.Load(sequence);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  for (const auto& [key, value] : data.value().entries) {
    if (key.rfind("source.", 0) == 0) out->cut += std::stoll(value);
  }

  Collector after;
  {
    JobGraph graph = proto.WithName("mid");
    after.Attach(&graph);
    JobRunner runner(std::move(graph), broker, &store, options);
    ASSERT_TRUE(runner.RestoreFromCheckpoint().ok());
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(60000).ok());
    out->restored_in = runner.RecordsIn();
  }

  Collector reference;
  {
    JobGraph graph = proto.WithName("reference");
    reference.Attach(&graph);
    JobRunner runner(std::move(graph), broker, &store, options);
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(60000).ok());
    EXPECT_EQ(runner.RecordsIn(), total);
  }
  out->before = std::move(before.rows);
  out->after = std::move(after.rows);
  out->reference = std::move(reference.rows);
}

/// Shared checks: the cut left a backlog of thousands, the restored runner
/// read exactly the records after it, and it emitted nothing the
/// uninterrupted run did not (a row counted twice shows up here).
void ExpectConsistentCut(const MidStreamRun& run) {
  EXPECT_GT(run.cut, 0);
  EXPECT_GE(run.total - run.cut, 2000) << "checkpoint was not taken mid-stream";
  EXPECT_EQ(run.restored_in, run.total - run.cut);
  std::vector<std::string> after = Encoded(run.after);
  std::vector<std::string> reference = Encoded(run.reference);
  EXPECT_TRUE(std::includes(reference.begin(), reference.end(), after.begin(), after.end()))
      << "restored run emitted rows an uninterrupted run does not";
}

/// Window results keyed by (key, window start), keeping the last emission.
std::map<std::pair<std::string, int64_t>, std::string> LastPerWindow(
    const std::vector<Row>& first, const std::vector<Row>& second) {
  std::map<std::pair<std::string, int64_t>, std::string> out;
  for (const std::vector<Row>* rows : {&first, &second}) {
    for (const Row& row : *rows) out[{row[0].AsString(), row[1].AsInt()}] = EncodeRow(row);
  }
  return out;
}

void ExpectJoinMatchesReference(const MidStreamRun& run) {
  std::vector<std::string> reference = Encoded(run.reference);
  ASSERT_EQ(std::adjacent_find(reference.begin(), reference.end()), reference.end());
  std::vector<Row> all = run.before;
  all.insert(all.end(), run.after.begin(), run.after.end());
  std::vector<std::string> seen = Encoded(all);
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen, reference);
}

class BarrierCheckpointTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(BarrierCheckpointTest, WindowAggregateRestoresFromMidStreamCut) {
  const auto [seed, chaining] = GetParam();
  Rng rng(seed);
  Broker broker("c1");
  TopicConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());
  constexpr int kEvents = 20000;
  ProduceEvents(&broker, "events", &rng, kEvents, /*keys=*/16, /*step_ms=*/2);
  ThrottledBus throttled(&broker);
  throttled.SetFetchDelayMs("events", 1);

  MidStreamRun run;
  RunMidStream(AggregateGraph(), &broker, &throttled, chaining, kEvents,
               CheckpointAfter(3000), &run);
  ExpectConsistentCut(run);
  EXPECT_EQ(LastPerWindow(run.before, run.after), LastPerWindow(run.reference, {}));
}

TEST_P(BarrierCheckpointTest, WindowJoinRestoresFromMidStreamCut) {
  const auto [seed, chaining] = GetParam();
  Rng rng(seed);
  Broker broker("c1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("left", config).ok());
  ASSERT_TRUE(broker.CreateTopic("right", config).ok());
  constexpr int kPerSide = 6000;
  ProduceEvents(&broker, "left", &rng, kPerSide, /*keys=*/50, /*step_ms=*/5);
  ProduceEvents(&broker, "right", &rng, kPerSide, /*keys=*/50, /*step_ms=*/5);
  ThrottledBus throttled(&broker);
  throttled.SetFetchDelayMs("left", 1);
  throttled.SetFetchDelayMs("right", 1);

  MidStreamRun run;
  RunMidStream(JoinGraph(), &broker, &throttled, chaining, 2 * kPerSide,
               CheckpointAfter(2000), &run);
  ExpectConsistentCut(run);
  ExpectJoinMatchesReference(run);
}

// The right source is parked inside a fetch when the checkpoint starts, so
// it cuts its stream only after the left barrier has reached the join and
// the left records behind it have arrived: alignment must hold them back,
// and the snapshot must still exclude them.
TEST_P(BarrierCheckpointTest, SkewedJoinInputsHoldBackTheFastChannel) {
  const auto [seed, chaining] = GetParam();
  Rng rng(seed);
  Broker broker("c1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("left", config).ok());
  ASSERT_TRUE(broker.CreateTopic("right", config).ok());
  constexpr int kPerSide = 8000;
  ProduceEvents(&broker, "left", &rng, kPerSide, /*keys=*/50, /*step_ms=*/5);
  ProduceEvents(&broker, "right", &rng, kPerSide, /*keys=*/50, /*step_ms=*/5);
  ThrottledBus throttled(&broker);
  throttled.SetFetchDelayMs("left", 1);
  throttled.SetFetchDelayMs("right", 1);
  throttled.SetParkableTopic("right");
  CheckpointStep skewed = [&throttled](JobRunner* runner, int64_t* sequence) {
    AwaitRecordsIn(runner, 1000);
    throttled.Park(true);
    while (!throttled.HasParkedFetch()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::optional<Result<int64_t>> seq;
    std::thread trigger([&] { seq = runner->TriggerCheckpoint(); });
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (runner->AlignmentHeld() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throttled.Park(false);
    trigger.join();
    ASSERT_TRUE(seq->ok()) << seq->status().ToString();
    *sequence = seq->value();
  };

  MidStreamRun run;
  RunMidStream(JoinGraph(), &broker, &throttled, chaining, 2 * kPerSide, skewed, &run);
  EXPECT_GT(run.held, 0) << "alignment never held the fast input back";
  ExpectConsistentCut(run);
  ExpectJoinMatchesReference(run);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndChaining, BarrierCheckpointTest,
                         ::testing::Combine(::testing::Values(11u, 42u, 977u),
                                            ::testing::Bool()));

/// Counting job whose map blocks while `gate` is closed, reporting that it
/// is blocked, so a barrier can be kept behind an unprocessed record.
struct Gate {
  std::atomic<bool> open{true};
  std::atomic<bool> blocked{false};
};

JobGraph GatedCountingGraph(Gate* gate, Collector* sink) {
  JobGraph graph("gated");
  graph.AddSource(Source("events", EventSchema(), "ts"))
      .Map(
          "gate",
          [gate](const Row& r) {
            while (!gate->open.load()) {
              gate->blocked.store(true);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            gate->blocked.store(false);
            return r;
          },
          EventSchema())
      .WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(60000),
                       {AggregateSpec::Count("n")});
  sink->Attach(&graph);
  return graph;
}

TEST(BarrierCheckpointLifecycleTest, CancelAbandonsTheCheckpointInFlight) {
  Broker broker("c1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());
  storage::InMemoryObjectStore store;
  CheckpointStore checkpoints(&store, "checkpoints", "gated");
  auto produce = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(broker.Produce("events", EventMessage("A", 1.0, 1000 + i)).ok());
    }
  };

  Gate gate;
  Collector first;
  produce(0, 100);
  int64_t persisted = 0;
  {
    JobRunner runner(GatedCountingGraph(&gate, &first), &broker, &store);
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.WaitUntilCaughtUp(10000).ok());
    Result<int64_t> seq = runner.TriggerCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    persisted = seq.value();

    // Hold a record in the map; the next barrier queues behind it.
    gate.open.store(false);
    produce(100, 110);
    while (!gate.blocked.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Result<int64_t> in_flight = runner.StartCheckpoint();
    ASSERT_TRUE(in_flight.ok()) << in_flight.status().ToString();
    EXPECT_EQ(in_flight.value(), persisted + 1);
    EXPECT_FALSE(runner.StartCheckpoint().ok());  // at most one in flight
    Result<int64_t> nothing = runner.PersistCompletedCheckpoint();
    ASSERT_TRUE(nothing.ok());
    EXPECT_EQ(nothing.value(), 0);  // the sink has not aligned

    std::thread opener([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.open.store(true);
    });
    runner.Cancel();
    opener.join();
    Result<int64_t> abandoned = runner.PersistCompletedCheckpoint();
    ASSERT_TRUE(abandoned.ok());
    EXPECT_EQ(abandoned.value(), 0);
    EXPECT_FALSE(runner.TriggerCheckpoint().ok());
  }
  Result<int64_t> latest = checkpoints.LatestSequence();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), persisted);

  // The last persisted checkpoint still restores to exact counts.
  Collector second;
  {
    JobRunner runner(GatedCountingGraph(&gate, &second), &broker, &store);
    ASSERT_TRUE(runner.RestoreFromCheckpoint().ok());
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(10000).ok());
    EXPECT_EQ(runner.RecordsIn(), 10);
  }
  ASSERT_EQ(second.rows.size(), 1u);
  EXPECT_EQ(second.rows[0][2].AsInt(), 110);
}

TEST(BarrierCheckpointLifecycleTest, CheckpointDeclinedOnceSourcesSentEnd) {
  Broker broker("c1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(broker.Produce("events", EventMessage("A", 1.0, 1000 + i)).ok());
  }
  storage::InMemoryObjectStore store;
  Gate gate;
  Collector sink;
  JobRunner runner(GatedCountingGraph(&gate, &sink), &broker, &store);
  ASSERT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  while (!runner.IsFinished()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Result<int64_t> started = runner.StartCheckpoint();
  EXPECT_EQ(started.status().code(), StatusCode::kFailedPrecondition);
  Result<int64_t> triggered = runner.TriggerCheckpoint();
  EXPECT_EQ(triggered.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runner.AwaitTermination(10000).ok());
  CheckpointStore checkpoints(&store, "checkpoints", "gated");
  EXPECT_TRUE(checkpoints.LatestSequence().status().IsNotFound());
  ASSERT_EQ(sink.rows.size(), 1u);
  EXPECT_EQ(sink.rows[0][2].AsInt(), 50);
}

}  // namespace
}  // namespace uberrt::compute
