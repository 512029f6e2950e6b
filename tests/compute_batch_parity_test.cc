#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/job_runner.h"
#include "stream/broker.h"

// Batch-at-a-time dataflow parity: the batched runtime (ElementBatch
// channels, vectorized ProcessBatch, operator chaining) must produce exactly
// the same output multiset and the same records_in/out as the per-record
// baseline (max_batch_records = 1, chaining off) for randomized job graphs,
// including across a mid-stream checkpoint/restore that flips chaining on.
//
// Test data keeps event-time disorder within the source's out-of-orderness
// slack, so no run ever drops a record as late and the output multiset is a
// pure function of the input — independent of watermark transport timing,
// which legitimately differs between batch sizes.

namespace uberrt::compute {
namespace {

using stream::AckMode;
using stream::Broker;
using stream::Message;
using stream::TopicConfig;

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

struct RunResult {
  std::vector<std::string> rows;  ///< encoded output rows, sorted
  int64_t records_in = 0;
  int64_t records_out = 0;
};

struct RunConfig {
  size_t max_batch_records = 1;
  bool enable_chaining = false;
};

RunResult RunGraph(JobGraph graph, Broker* broker, const RunConfig& config,
                   const std::string& run_name) {
  std::mutex mu;
  std::vector<std::string> rows;
  graph = graph.WithName(run_name);
  graph.SinkToCollector([&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    rows.push_back(EncodeRow(row));
  });
  storage::InMemoryObjectStore store;
  JobRunnerOptions options;
  options.max_batch_records = config.max_batch_records;
  options.enable_chaining = config.enable_chaining;
  JobRunner runner(std::move(graph), broker, &store, options);
  EXPECT_TRUE(runner.Start().ok());
  runner.RequestFinish();
  EXPECT_TRUE(runner.AwaitTermination(30000).ok());
  RunResult result;
  result.records_in = runner.RecordsIn();
  result.records_out = runner.RecordsOut();
  result.rows = std::move(rows);
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

void ExpectParity(const RunResult& baseline, const RunResult& candidate,
                  const std::string& label) {
  EXPECT_EQ(baseline.records_in, candidate.records_in) << label;
  EXPECT_EQ(baseline.records_out, candidate.records_out) << label;
  ASSERT_EQ(baseline.rows.size(), candidate.rows.size()) << label;
  EXPECT_EQ(baseline.rows, candidate.rows) << label;
}

/// Random chain of stateless transforms with varying parallelism (so some
/// adjacent pairs chain and some break on a parallelism change), optionally
/// capped by a keyed window aggregation.
JobGraph RandomGraph(Rng* rng, const std::string& topic, bool with_window) {
  JobGraph graph("proto");
  SourceSpec source;
  source.topic = topic;
  source.schema = EventSchema();
  source.time_field = "ts";
  source.out_of_orderness_ms = 200;
  graph.AddSource(source);
  int stages = 2 + rng->Uniform(0, 4);
  for (int s = 0; s < stages; ++s) {
    int32_t parallelism = 1 + rng->Uniform(0, 2);
    switch (rng->Uniform(0, 3)) {
      case 0:
        graph.Map(
            "m" + std::to_string(s),
            [s](const Row& r) {
              return Row{r[0], Value(r[1].ToNumeric() * 1.25 + s), r[2]};
            },
            EventSchema(), parallelism);
        break;
      case 1:
        graph.Filter(
            "f" + std::to_string(s),
            [s](const Row& r) {
              return std::fmod(r[1].ToNumeric() + s, 7.0) < 5.5;
            },
            parallelism);
        break;
      default:
        graph.FlatMap(
            "fm" + std::to_string(s),
            [](const Row& r) {
              std::vector<Row> out{r};
              if (r[1].ToNumeric() < 40.0) {
                out.push_back({r[0], Value(r[1].ToNumeric() + 100.0), r[2]});
              }
              return out;
            },
            EventSchema(), parallelism);
        break;
    }
  }
  if (with_window) {
    graph.WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(1000),
                          {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s"),
                           AggregateSpec::Max("v", "hi")},
                          /*allowed_lateness_ms=*/0, /*parallelism=*/2);
  }
  return graph;
}

/// Mostly-ordered event times: monotone base plus jitter well inside the
/// 200ms out-of-orderness slack, so nothing is ever late in any mode.
void ProduceEvents(Broker* broker, const std::string& topic, Rng* rng, int count,
                   int64_t ts_base = 0) {
  for (int i = 0; i < count; ++i) {
    std::string key = "k" + std::to_string(rng->Uniform(0, 7));
    double v = static_cast<double>(rng->Uniform(0, 80));
    int64_t ts = ts_base + i * 10 + rng->Uniform(0, 5) * 10;
    ASSERT_TRUE(broker->Produce(topic, EventMessage(key, v, ts)).ok());
  }
}

class BatchParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchParityTest, RandomStatelessChains) {
  Rng rng(GetParam());
  Broker broker("cluster1");
  TopicConfig config;
  config.num_partitions = 3;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());
  ProduceEvents(&broker, "events", &rng, 400);
  JobGraph graph = RandomGraph(&rng, "events", /*with_window=*/false);

  RunResult per_record = RunGraph(graph, &broker, {1, false}, "per_record");
  RunResult batched = RunGraph(graph, &broker, {64, false}, "batched");
  RunResult chained = RunGraph(graph, &broker, {64, true}, "chained");
  EXPECT_EQ(per_record.records_in, 400);
  ExpectParity(per_record, batched, "batched vs per-record");
  ExpectParity(per_record, chained, "batched+chained vs per-record");
}

TEST_P(BatchParityTest, RandomGraphsWithWindowAggregation) {
  Rng rng(GetParam());
  Broker broker("cluster1");
  TopicConfig config;
  config.num_partitions = 3;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());
  ProduceEvents(&broker, "events", &rng, 400);
  JobGraph graph = RandomGraph(&rng, "events", /*with_window=*/true);

  RunResult per_record = RunGraph(graph, &broker, {1, false}, "per_record");
  RunResult batched = RunGraph(graph, &broker, {64, false}, "batched");
  RunResult chained = RunGraph(graph, &broker, {256, true}, "chained");
  ExpectParity(per_record, batched, "batched vs per-record");
  ExpectParity(per_record, chained, "batched+chained vs per-record");
}

TEST_P(BatchParityTest, WindowJoinAcrossBatchSizes) {
  Rng rng(GetParam());
  Broker broker("cluster1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("left", config).ok());
  ASSERT_TRUE(broker.CreateTopic("right", config).ok());
  for (int i = 0; i < 150; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(0, 4));
    int64_t ts = i * 10 + rng.Uniform(0, 5) * 10;
    ASSERT_TRUE(
        broker.Produce("left", EventMessage(key, 1.0 + i, ts)).ok());
    ASSERT_TRUE(
        broker.Produce("right", EventMessage("k" + std::to_string(rng.Uniform(0, 4)),
                                             2.0 + i, ts + 3))
            .ok());
  }
  auto make_graph = [&] {
    JobGraph graph("proto");
    for (const char* topic : {"left", "right"}) {
      SourceSpec source;
      source.topic = topic;
      source.schema = topic == std::string("left")
                          ? RowSchema({{"key", ValueType::kString},
                                       {"l", ValueType::kDouble},
                                       {"ts", ValueType::kInt}})
                          : RowSchema({{"key", ValueType::kString},
                                       {"r", ValueType::kDouble},
                                       {"ts2", ValueType::kInt}});
      source.time_field = topic == std::string("left") ? "ts" : "ts2";
      source.out_of_orderness_ms = 200;
      graph.AddSource(source);
    }
    graph.WindowJoin("join", {"key"}, WindowSpec::Tumbling(1000),
                     /*allowed_lateness_ms=*/0, /*parallelism=*/2);
    return graph;
  };

  RunResult per_record = RunGraph(make_graph(), &broker, {1, false}, "per_record");
  RunResult batched = RunGraph(make_graph(), &broker, {64, false}, "batched");
  RunResult chained = RunGraph(make_graph(), &broker, {64, true}, "chained");
  ExpectParity(per_record, batched, "batched vs per-record");
  ExpectParity(per_record, chained, "batched+chained vs per-record");
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchParityTest, ::testing::Values(11u, 42u, 977u));

// A checkpoint taken by the unchained batched runtime restores into the
// chained runtime (and the combined pre/post-restore output matches an
// uninterrupted per-record run): chaining keeps per-graph-transform
// checkpoint keys, so flipping the flag across a restart is safe.
TEST(BatchParityCheckpointTest, RestoreAcrossChainingModes) {
  Rng rng(7);
  Broker broker("cluster1");
  TopicConfig config;
  config.num_partitions = 2;
  ASSERT_TRUE(broker.CreateTopic("events", config).ok());

  auto make_graph = [&] {
    JobGraph graph("proto");
    SourceSpec source;
    source.topic = "events";
    source.schema = EventSchema();
    source.time_field = "ts";
    source.out_of_orderness_ms = 200;
    graph.AddSource(source)
        .Filter("keep", [](const Row& r) { return r[1].ToNumeric() < 70.0; })
        .Map(
            "scale",
            [](const Row& r) {
              return Row{r[0], Value(r[1].ToNumeric() * 2.0), r[2]};
            },
            EventSchema())
        .WindowAggregate("agg", {"key"}, WindowSpec::Tumbling(1000),
                         {AggregateSpec::Count("n"), AggregateSpec::Sum("v", "s")},
                         /*allowed_lateness_ms=*/0, /*parallelism=*/2);
    return graph;
  };

  std::mutex mu;
  std::vector<std::string> rows;
  auto collect = [&](const Row& row, TimestampMs) {
    std::lock_guard<std::mutex> lock(mu);
    rows.push_back(EncodeRow(row));
  };
  storage::InMemoryObjectStore store;
  int64_t in_phase1 = 0;
  int64_t in_phase2 = 0;

  // Phase 1: half the stream through the unchained batched runtime, then
  // checkpoint and crash.
  ProduceEvents(&broker, "events", &rng, 200);
  {
    JobGraph graph = make_graph().WithName("chk");
    graph.SinkToCollector(collect);
    JobRunnerOptions options;
    options.max_batch_records = 64;
    options.enable_chaining = false;
    JobRunner runner(std::move(graph), &broker, &store, options);
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.WaitUntilCaughtUp(15000).ok());
    Result<int64_t> seq = runner.TriggerCheckpoint();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    in_phase1 = runner.RecordsIn();
    runner.Cancel();
  }

  // Phase 2: rest of the stream; restore with chaining on.
  ProduceEvents(&broker, "events", &rng, 200, /*ts_base=*/2000);
  {
    JobGraph graph = make_graph().WithName("chk");
    graph.SinkToCollector(collect);
    JobRunnerOptions options;
    options.max_batch_records = 64;
    options.enable_chaining = true;
    JobRunner runner(std::move(graph), &broker, &store, options);
    ASSERT_TRUE(runner.RestoreFromCheckpoint().ok());
    ASSERT_TRUE(runner.Start().ok());
    runner.RequestFinish();
    ASSERT_TRUE(runner.AwaitTermination(30000).ok());
    in_phase2 = runner.RecordsIn();
  }
  EXPECT_EQ(in_phase1 + in_phase2, 400);  // no record replayed or skipped

  // Reference: one uninterrupted per-record run over the full stream.
  RunResult reference = RunGraph(make_graph(), &broker, {1, false}, "reference");
  EXPECT_EQ(reference.records_in, 400);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, reference.rows);
}

}  // namespace
}  // namespace uberrt::compute
