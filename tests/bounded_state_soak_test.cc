// Bounded-state soak: the Restaurant Manager path (audited ProduceRow into
// the FlinkSQL per-minute rollup, the rollup landing in OLAP) with a
// checkpoint on every pump, over thousands of one-second Chaperone windows.
// Invariants: each job retains one checkpoint blob; Chaperone's footprint
// levels off once windows finalize; the log index stays compact; and a
// crash restored from the one retained checkpoint keeps the rollup exact.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>

#include "core/platform.h"
#include "compute/checkpoint.h"
#include "core/use_cases.h"
#include "workload/generators.h"

namespace uberrt::core {
namespace {

constexpr int kRounds = 240;           ///< 2N pumps
constexpr int kRowsPerRound = 400;     ///< ten one-second windows of 40 orders
constexpr int64_t kStepMs = 25;        ///< event time between orders
constexpr int kCrashRound = kRounds / 3;

struct Rollup {
  int64_t orders = 0;
  double sales = 0;
};
using RollupKey = std::tuple<int64_t, int64_t, std::string>;  // window, restaurant, item

/// Chk-* blobs per job directory under "checkpoints/".
std::map<std::string, int> CheckpointBlobsPerJob(storage::ObjectStore* store) {
  std::map<std::string, int> per_job;
  for (const std::string& key : store->List("checkpoints/")) {
    const size_t chk = key.find("/chk-");
    if (chk != std::string::npos) ++per_job[key.substr(0, chk)];
  }
  return per_job;
}

TEST(BoundedStateSoakTest, StateLevelsOffAndCrashRestoreStaysExact) {
  RealtimePlatform::Options options;
  options.executor_threads = 2;
  RealtimePlatform platform(options);
  RestaurantManagerApp app(&platform);
  ASSERT_TRUE(app.Start().ok());
  std::vector<compute::JobInfo> jobs = platform.jobs()->ListJobs();
  ASSERT_EQ(jobs.size(), 1u);
  const std::string job = jobs[0].id;

  workload::EatsOrderGenerator generator(workload::EatsOrderGenerator::Options(), 7);
  std::map<RollupKey, Rollup> reference;
  int64_t ts = 0;
  int64_t chaperone_at_n = 0;
  for (int round = 1; round <= kRounds; ++round) {
    for (int i = 0; i < kRowsPerRound; ++i, ts += kStepMs) {
      Row row = generator.NextRow();
      row[8] = Value(ts);
      ASSERT_TRUE(platform
                      .ProduceRow(app.options().orders_topic, row, row[1].ToString(), ts,
                                  RestaurantManagerApp::kActor)
                      .ok());
      if (row[7].AsString() == "abandoned") continue;
      Rollup& r = reference[{ts / 60'000 * 60'000, row[1].AsInt(), row[5].AsString()}];
      ++r.orders;
      r.sales += row[6].AsDouble();
    }
    if (round == kCrashRound) {
      // One-shot crash: the same sweep restores from the retained checkpoint.
      ASSERT_TRUE(compute::CheckpointStore(platform.store(), "checkpoints", job)
                      .LatestSequence()
                      .ok());
      common::FaultRule crash;
      crash.error_probability = 1.0;
      crash.max_triggers = 1;
      platform.faults()->SetRule("job.crash." + job, crash);
    }
    ASSERT_TRUE(platform.PumpOnce().ok());
    for (const auto& [dir, blobs] : CheckpointBlobsPerJob(platform.store())) {
      ASSERT_LE(blobs, 1) << dir << " after round " << round;
    }
    if (round == kRounds / 2) chaperone_at_n = platform.audit()->ResidentBytes();
  }
  ASSERT_GE(platform.jobs()->GetJob(job).value().restarts, 1);
  EXPECT_GT(platform.jobs()->metrics()->GetCounter("checkpoints.completed")->value(),
            kRounds / 4);

  // Chaperone: N rounds already span twice the finalization horizon, so
  // 2N rounds add only finalized 24-byte windows.
  const int64_t chaperone_at_2n = platform.audit()->ResidentBytes();
  EXPECT_LE(chaperone_at_2n, chaperone_at_n * 11 / 10)
      << "at N " << chaperone_at_n << ", at 2N " << chaperone_at_2n;
  const int64_t produced = int64_t{kRounds} * kRowsPerRound;
  EXPECT_EQ(platform.audit()->TotalCount("producer", app.options().orders_topic), produced);
  EXPECT_EQ(platform.audit()->GetStats("producer", app.options().orders_topic).size(),
            static_cast<size_t>(produced * kStepMs / 1000));

  // Log index: at most 24 bytes a batch (one batch per audited produce).
  int64_t index_bytes = 0, batches = 0;
  for (const std::string& name : platform.streams()->ListClusters()) {
    stream::LogFootprint footprint =
        platform.streams()->GetCluster(name).value()->Footprint();
    index_bytes += footprint.index_bytes;
    batches += footprint.batches;
  }
  EXPECT_GE(batches, produced);
  EXPECT_LE(index_bytes, 24 * batches);
  const int64_t resident = platform.ResidentBytes();
  EXPECT_EQ(platform.metrics()->GetGauge("platform.resident_bytes")->value(), resident);

  // Flush every window and compare the rollup topic with the reference. A
  // restore replays from the checkpoint, so a window closed between it and
  // the crash may be emitted twice (at-least-once sink), but with the same
  // values: every emitted row must match, and every window must be there.
  compute::JobRunner* runner = platform.jobs()->GetRunner(job);
  ASSERT_NE(runner, nullptr);
  ASSERT_TRUE(runner->WaitUntilCaughtUp(60'000).ok());
  runner->RequestFinish();
  ASSERT_TRUE(runner->AwaitTermination(60'000).ok());
  std::map<RollupKey, Rollup> emitted;
  const std::string& rollup_topic = app.options().rollup_topic;
  const int32_t partitions = platform.streams()->NumPartitions(rollup_topic).value();
  for (int32_t p = 0; p < partitions; ++p) {
    const int64_t end = platform.streams()->EndOffset(rollup_topic, p).value();
    for (int64_t offset = 0; offset < end;) {
      Result<stream::FetchedBatch> fetched =
          platform.streams()->FetchViews(rollup_topic, p, offset, 1024);
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      for (const stream::wire::MessageView& view : fetched.value().messages) {
        Result<Row> row = DecodeRow(view.value);
        ASSERT_TRUE(row.ok());
        // restaurant_id, item, window_start, orders, sales
        const RollupKey key{row.value()[2].AsInt(), row.value()[0].AsInt(),
                            row.value()[1].AsString()};
        const Rollup got{row.value()[3].AsInt(), row.value()[4].ToNumeric()};
        auto [it, first] = emitted.emplace(key, got);
        if (!first) {
          EXPECT_EQ(it->second.orders, got.orders);
          EXPECT_DOUBLE_EQ(it->second.sales, got.sales);
        }
      }
      offset += static_cast<int64_t>(fetched.value().size());
    }
  }
  ASSERT_EQ(emitted.size(), reference.size());
  for (const auto& [key, want] : reference) {
    auto it = emitted.find(key);
    ASSERT_NE(it, emitted.end()) << "window " << std::get<0>(key);
    EXPECT_EQ(it->second.orders, want.orders) << "window " << std::get<0>(key);
    EXPECT_NEAR(it->second.sales, want.sales, 1e-6 * std::max(1.0, std::abs(want.sales)));
  }
}

}  // namespace
}  // namespace uberrt::core
