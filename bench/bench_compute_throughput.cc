// Compute hot path — Section 4.2: Flink jobs at Uber process "billions of
// messages" per day per use case, which the per-record seed dataflow (one
// queue push, one mutex, one wakeup CAS per element per hop) cannot sustain.
//
// Measures the batch-at-a-time runtime against the retained per-record
// baseline on the same broker, same corpus, same graphs. Three modes per
// pipeline, interleaved and medianed over five reps:
//   - per-record:      max_batch_records = 1, chaining off. Every element
//                      travels alone — the per-record dataflow, kept as the
//                      baseline. Sources read the same zero-copy views as
//                      the batched modes, so the speedups isolate batching
//                      and chaining.
//   - batched:         max_batch_records = 256, chaining off. Records ride
//                      channels as ElementBatch, amortizing queue/mutex/
//                      wakeup costs ~256x.
//   - batched+chained: batching plus Flink-style task chaining — consecutive
//                      same-parallelism stateless transforms fuse into one
//                      operator instance, deleting the channel hop entirely.
//
// Pipelines:
//   - windowed aggregation: source -> filter -> map -> tumbling-window
//     count/sum/max (keyed, parallelism 2). The chained run fuses
//     filter+map; the flat-hash keyed state (FNV-1a over a reused key
//     scratch, open addressing) replaces the seed's std::map per window.
//   - two-input window join: left/right sources -> tumbling-window join
//     (keyed, parallelism 2) — keyed state and multi-input watermark
//     alignment with no stateless stage to chain, so its speedup isolates
//     the batching + flat-hash share.
//
// Output-row counts must match across modes (the parity suite proves the
// multiset equal; the bench re-checks counts so a wrong-result "speedup"
// cannot pass). records/s, p99 time-to-output-row, and peak keyed-state
// bytes land in BENCH_compute.json. With UBERRT_PERF_GATE set, exits
// non-zero if a batched mode is slower than the per-record baseline on
// either pipeline.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compute/job_runner.h"
#include "storage/object_store.h"
#include "stream/broker.h"

namespace uberrt {

namespace {

constexpr int kReps = 5;
constexpr int kAggRecords = 150'000;
constexpr int kJoinRecords = 30'000;  // per side
constexpr int kAggKeys = 100;  // ~10 records per key-window bucket
constexpr int kJoinKeys = 500;
constexpr size_t kBatchRecords = 256;

struct Mode {
  const char* name;
  size_t max_batch_records;
  bool enable_chaining;
};

constexpr std::array<Mode, 3> kModes{{{"per-record", 1, false},
                                      {"batched", kBatchRecords, false},
                                      {"batched+chained", kBatchRecords, true}}};

RowSchema EventSchema() {
  return RowSchema({{"key", ValueType::kString},
                    {"v", ValueType::kDouble},
                    {"ts", ValueType::kInt}});
}

stream::Message EventMessage(int key_mod, int i, int64_t ts) {
  stream::Message m;
  m.key = "k" + std::to_string(i % key_mod);
  m.value = EncodeRow({Value(m.key), Value(0.5 + i % 97), Value(ts)});
  m.timestamp = ts;
  // Audit metadata every production message carries (Section 9.4).
  // FetchViews leaves them as borrowed bytes the decoder never touches.
  m.headers[stream::kHeaderUid] = "uid-" + std::to_string(i);
  m.headers[stream::kHeaderService] = "rides";
  m.headers[stream::kHeaderTier] = "1";
  return m;
}

compute::SourceSpec MakeSource(const std::string& topic) {
  compute::SourceSpec source;
  source.topic = topic;
  source.schema = EventSchema();
  source.time_field = "ts";
  source.out_of_orderness_ms = 100;
  source.watermark_interval_records = 64;
  return source;
}

/// source -> filter -> map -> keyed tumbling count/sum/max. filter+map are
/// the chainable run; the window stage exercises the flat-hash keyed state.
compute::JobGraph AggGraph() {
  compute::JobGraph graph("bench_agg");
  graph.AddSource(MakeSource("events"));
  graph.Filter(
      "f", [](const Row& r) { return r[1].ToNumeric() < 90.0; },
      /*parallelism=*/2);
  graph.Map(
      "m",
      [](const Row& r) {
        return Row{r[0], Value(r[1].ToNumeric() * 1.0625 + 1.0), r[2]};
      },
      EventSchema(), /*parallelism=*/2);
  graph.WindowAggregate("agg", {"key"}, compute::WindowSpec::Tumbling(10'000),
                        {compute::AggregateSpec::Count("n"),
                         compute::AggregateSpec::Sum("v", "s"),
                         compute::AggregateSpec::Max("v", "hi")},
                        /*allowed_lateness_ms=*/0, /*parallelism=*/2);
  return graph;
}

/// left/right sources -> keyed tumbling window join. No chainable stage:
/// isolates the batching + flat-hash buffer share of the speedup.
compute::JobGraph JoinGraph() {
  compute::JobGraph graph("bench_join");
  graph.AddSource(MakeSource("jleft"));
  compute::SourceSpec right = MakeSource("jright");
  right.schema = RowSchema({{"key", ValueType::kString},
                            {"r", ValueType::kDouble},
                            {"ts2", ValueType::kInt}});
  right.time_field = "ts2";
  graph.AddSource(right);
  graph.WindowJoin("join", {"key"}, compute::WindowSpec::Tumbling(5'000),
                   /*allowed_lateness_ms=*/0, /*parallelism=*/2);
  return graph;
}

struct RepMetrics {
  int64_t wall_us = 0;    ///< Start() to fully drained
  double p99_ms = 0.0;    ///< p99 time from Start() to an output row landing
  int64_t rows = 0;       ///< output rows (must match across modes)
  int64_t state_bytes = 0;  ///< peak keyed-state footprint
};

struct LegResult {
  int64_t wall_us = 0;  ///< median across reps
  double p99_ms = 0.0;
  int64_t rows = 0;
  int64_t state_bytes = 0;
  double speedup = 1.0;  ///< median of the per-rep baseline/mode ratios
};

/// Runs `make_graph()` to completion once under `mode`. The broker is shared
/// read-only across runs; each run gets a fresh object store (checkpoints
/// are off the measured path).
template <typename MakeGraph>
RepMetrics RunOnce(MakeGraph&& make_graph, stream::Broker* broker,
                   const Mode& mode, int64_t records_in_expected, int rep) {
  compute::JobGraph graph = make_graph();
  graph = graph.WithName(std::string(mode.name) + "_rep" + std::to_string(rep));
  std::mutex mu;
  std::vector<int64_t> arrival_us;
  auto run_start = std::chrono::steady_clock::now();
  graph.SinkToCollector([&](const Row&, TimestampMs) {
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu);
    arrival_us.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(now - run_start)
            .count());
  });
  storage::InMemoryObjectStore store;
  compute::JobRunnerOptions options;
  options.max_batch_records = mode.max_batch_records;
  options.enable_chaining = mode.enable_chaining;
  options.periodic_checkpoints = false;
  compute::JobRunner runner(std::move(graph), broker, &store, options);
  RepMetrics m;
  run_start = std::chrono::steady_clock::now();
  m.wall_us = bench::TimeUs([&] {
    if (!runner.Start().ok()) std::abort();
    runner.RequestFinish();
    if (!runner.AwaitTermination(120'000).ok()) std::abort();
  });
  if (runner.RecordsIn() != records_in_expected || runner.LateDropped() != 0) {
    std::printf("BAD RUN (%s): records_in %lld late %lld\n", mode.name,
                static_cast<long long>(runner.RecordsIn()),
                static_cast<long long>(runner.LateDropped()));
    std::abort();
  }
  std::sort(arrival_us.begin(), arrival_us.end());
  m.p99_ms = arrival_us.empty()
                 ? 0.0
                 : arrival_us[arrival_us.size() * 99 / 100] / 1000.0;
  m.rows = runner.RecordsOut();
  m.state_bytes = runner.PeakStateBytes();
  return m;
}

template <typename T>
T MedianOf(std::array<T, kReps> v) {
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

/// Runs every mode kReps times, interleaved (baseline, batched, chained,
/// repeat) so ambient machine load hits all modes alike, then medians each
/// metric. Speedups are the median of per-rep ratios — each ratio compares
/// runs taken back to back, which is robust to load drift across the bench.
template <typename MakeGraph>
std::array<LegResult, kModes.size()> RunPipeline(MakeGraph&& make_graph,
                                                 stream::Broker* broker,
                                                 int64_t records_in_expected) {
  std::array<std::array<RepMetrics, kReps>, kModes.size()> reps{};
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t m = 0; m < kModes.size(); ++m) {
      reps[m][rep] =
          RunOnce(make_graph, broker, kModes[m], records_in_expected, rep);
    }
  }
  std::array<LegResult, kModes.size()> legs{};
  for (size_t m = 0; m < kModes.size(); ++m) {
    std::array<int64_t, kReps> wall{};
    std::array<double, kReps> p99{};
    std::array<int64_t, kReps> state{};
    std::array<double, kReps> ratio{};
    for (int rep = 0; rep < kReps; ++rep) {
      wall[rep] = reps[m][rep].wall_us;
      p99[rep] = reps[m][rep].p99_ms;
      state[rep] = reps[m][rep].state_bytes;
      ratio[rep] = static_cast<double>(reps[0][rep].wall_us) /
                   static_cast<double>(reps[m][rep].wall_us);
    }
    legs[m].wall_us = MedianOf(wall);
    legs[m].p99_ms = MedianOf(p99);
    legs[m].state_bytes = MedianOf(state);
    legs[m].speedup = MedianOf(ratio);
    legs[m].rows = reps[m][0].rows;
  }
  return legs;
}

void PrintLeg(const char* pipeline, const Mode& mode, const LegResult& r,
              int64_t records) {
  std::printf("%-8s %-16s %12.0f rec/s %9.1fms p99 %8lld rows %9lld B %7.2fx\n",
              pipeline, mode.name,
              r.wall_us > 0 ? 1e6 * records / r.wall_us : 0.0, r.p99_ms,
              static_cast<long long>(r.rows),
              static_cast<long long>(r.state_bytes), r.speedup);
}

}  // namespace

int Main() {
  bench::Header("compute",
                "batched dataflow + chaining + flat-hash keyed state vs the "
                "per-record baseline",
                "Flink at Uber: billions of messages/day per job, task "
                "chaining and network buffers on the hot path (Section 4.2)");

  stream::Broker broker("bench");
  stream::TopicConfig config;
  config.num_partitions = 4;
  for (const char* topic : {"events", "jleft", "jright"}) {
    if (!broker.CreateTopic(topic, config).ok()) return 1;
  }
  // Monotone event time (10 ms apart round-robin across partitions), so no
  // record is ever late in any mode and output multisets match exactly.
  for (int i = 0; i < kAggRecords; ++i) {
    if (!broker.Produce("events", EventMessage(kAggKeys, i, int64_t{10} * i)).ok())
      return 1;
  }
  for (int i = 0; i < kJoinRecords; ++i) {
    if (!broker.Produce("jleft", EventMessage(kJoinKeys, i, int64_t{10} * i)).ok())
      return 1;
    if (!broker.Produce("jright", EventMessage(kJoinKeys, i * 7, int64_t{10} * i + 3))
             .ok())
      return 1;
  }

  std::printf("%-8s %-16s %18s %13s %13s %11s %8s\n", "pipeline", "mode",
              "throughput", "p99-to-row", "rows", "peak-state", "speedup");

  std::array<LegResult, kModes.size()> agg =
      RunPipeline(AggGraph, &broker, kAggRecords);
  std::array<LegResult, kModes.size()> join =
      RunPipeline(JoinGraph, &broker, 2 * kJoinRecords);
  for (size_t m = 0; m < kModes.size(); ++m) {
    PrintLeg("agg", kModes[m], agg[m], kAggRecords);
  }
  for (size_t m = 0; m < kModes.size(); ++m) {
    PrintLeg("join", kModes[m], join[m], 2 * kJoinRecords);
  }

  for (size_t m = 1; m < kModes.size(); ++m) {
    if (agg[m].rows != agg[0].rows || join[m].rows != join[0].rows) {
      std::printf("ROW COUNT MISMATCH: %s produced agg %lld/join %lld vs "
                  "baseline agg %lld/join %lld\n",
                  kModes[m].name, static_cast<long long>(agg[m].rows),
                  static_cast<long long>(join[m].rows),
                  static_cast<long long>(agg[0].rows),
                  static_cast<long long>(join[0].rows));
      return 1;
    }
  }

  double agg_batched = agg[1].speedup;
  double agg_chained = agg[2].speedup;
  double join_batched = join[1].speedup;
  double join_chained = join[2].speedup;
  std::printf("-> windowed aggregation: %.2fx batched, %.2fx batched+chained; "
              "window join: %.2fx batched, %.2fx batched+chained\n",
              agg_batched, agg_chained, join_batched, join_chained);

  bench::JsonReport report("compute",
                           "billions of messages/day per job need "
                           "batch-at-a-time dataflow, not per-record hops "
                           "(Section 4.2)");
  report.Metric("agg_records", static_cast<double>(kAggRecords));
  report.Metric("join_records_per_side", static_cast<double>(kJoinRecords));
  report.Metric("batch_records", static_cast<double>(kBatchRecords));
  report.Metric("per_record_baseline",
                "batch cap 1 on the zero-copy view source path, chaining off");
  report.Metric("agg_output_rows", static_cast<double>(agg[0].rows));
  report.Metric("join_output_rows", static_cast<double>(join[0].rows));
  for (size_t m = 0; m < kModes.size(); ++m) {
    std::string tag = m == 0 ? "per_record" : (m == 1 ? "batched" : "chained");
    report.Metric("agg_" + tag + "_records_per_sec",
                  1e6 * kAggRecords / static_cast<double>(agg[m].wall_us));
    report.Metric("agg_" + tag + "_p99_to_row_ms", agg[m].p99_ms);
    report.Metric("agg_" + tag + "_peak_state_bytes",
                  static_cast<double>(agg[m].state_bytes));
    report.Metric("join_" + tag + "_records_per_sec",
                  1e6 * 2 * kJoinRecords / static_cast<double>(join[m].wall_us));
    report.Metric("join_" + tag + "_p99_to_row_ms", join[m].p99_ms);
    report.Metric("join_" + tag + "_peak_state_bytes",
                  static_cast<double>(join[m].state_bytes));
  }
  report.Metric("agg_batched_speedup", agg_batched);
  report.Metric("agg_chained_speedup", agg_chained);
  report.Metric("join_batched_speedup", join_batched);
  report.Metric("join_chained_speedup", join_chained);
  report.Write();

  if (std::getenv("UBERRT_PERF_GATE") != nullptr) {
    if (agg_batched < 1.0 || agg_chained < 1.0 || join_batched < 1.0 ||
        join_chained < 1.0) {
      std::printf("PERF GATE FAIL: a batched mode is slower than the "
                  "per-record baseline (agg %.2fx/%.2fx, join %.2fx/%.2fx)\n",
                  agg_batched, agg_chained, join_batched, join_chained);
      return 1;
    }
    std::printf("PERF GATE OK: agg %.2fx batched, %.2fx chained; join %.2fx "
                "batched, %.2fx chained\n",
                agg_batched, agg_chained, join_batched, join_chained);
  }
  return 0;
}

}  // namespace uberrt

int main() { return uberrt::Main(); }
