// Benchmark-local checks of the traced instrumentation: the split pump must
// leave the same tables as PumpOnce, and queries through TimingConnector must
// answer exactly as through the table's own connector, on the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pipebench.h"

namespace pipebench {
namespace {

constexpr uint64_t kSeed = 7;

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() == uberrt::ValueType::kDouble && b[i].type() == uberrt::ValueType::kDouble) {
      // Window aggregates over a parallel join may add in either order.
      double x = a[i].AsDouble(), y = b[i].AsDouble();
      if (std::fabs(x - y) > 1e-9 * std::max(1.0, std::fabs(y))) return false;
    } else if (a[i].ToString() != b[i].ToString()) {
      return false;
    }
  }
  return true;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return uberrt::EncodeRow(a) < uberrt::EncodeRow(b);
  });
  return rows;
}

/// Loads the workload's history with the untraced or the split pump and
/// returns every closed row of its table.
std::vector<Row> LoadAndDump(const std::string& name, bool traced) {
  std::unique_ptr<Workload> w = Workload::Create(name, kSeed);
  EXPECT_TRUE(w->Start(2).ok());
  IngestDriver driver(w.get());
  SpanLog log(1);
  driver.set_log(traced ? &log : nullptr);
  const int64_t steps = w->settings().history_steps;
  driver.ScheduleBurst(steps, NowMs());
  EXPECT_TRUE(driver.RunUntil(
      [&] { return driver.next_step() >= steps && w->CompleteThrough(driver.last_ts()); },
      NowMs() + 60'000));
  EXPECT_TRUE(driver.first_error().ok()) << driver.first_error().ToString();
  EXPECT_TRUE(w->Check(driver.last_ts()).ok()) << w->Check(driver.last_ts()).ToString();
  EXPECT_EQ(traced, !log.spans().empty());

  uberrt::core::RealtimePlatform* platform = w->platform();
  Result<uberrt::olap::TableConfig> config = platform->olap()->GetTableConfig(w->table());
  EXPECT_TRUE(config.ok());
  uberrt::olap::OlapQuery all;
  for (size_t i = 0; i < config.value().schema.NumFields(); ++i) {
    all.select_columns.push_back(config.value().schema.fields()[i].name);
  }
  if (w->settings().window_ms > 0) {
    all.filters.push_back(uberrt::olap::FilterPredicate::Range(
        config.value().time_column, uberrt::olap::FilterPredicate::Op::kLt,
        uberrt::Value(w->ClosedBefore(driver.last_ts()))));
  }
  Result<uberrt::olap::OlapResult> rows = platform->olap()->Query(w->table(), all);
  EXPECT_TRUE(rows.ok());
  return Sorted(rows.value().rows);
}

TEST(PipebenchSelfTest, TracedPumpMatchesPumpOnce) {
  for (const std::string& name : Workload::Names()) {
    SCOPED_TRACE(name);
    std::vector<Row> untraced = LoadAndDump(name, false);
    std::vector<Row> traced = LoadAndDump(name, true);
    ASSERT_FALSE(untraced.empty());
    ASSERT_EQ(untraced.size(), traced.size());
    for (size_t i = 0; i < untraced.size(); ++i) {
      ASSERT_TRUE(SameRow(untraced[i], traced[i])) << "row " << i;
    }
  }
}

TEST(PipebenchSelfTest, WrappedQueriesMatchUnwrapped) {
  constexpr int64_t kQueries = 24;
  for (const std::string& name : Workload::Names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Workload> w = Workload::Create(name, kSeed);
    ASSERT_TRUE(w->Start(2).ok());
    IngestDriver driver(w.get());
    const int64_t steps = w->settings().history_steps;
    driver.ScheduleBurst(steps, NowMs());
    ASSERT_TRUE(driver.RunUntil(
        [&] { return driver.next_step() >= steps && w->CompleteThrough(driver.last_ts()); },
        NowMs() + 60'000));

    std::vector<std::vector<Row>> plain;
    for (int64_t i = 0; i < kQueries; ++i) {
      Result<uberrt::sql::QueryResult> r = w->Query(i);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      plain.push_back(Sorted(r.value().rows));
    }
    SpanLog log(2);
    w->InstallTimingConnector(&log);
    for (int64_t i = 0; i < kQueries; ++i) {
      Result<uberrt::sql::QueryResult> r = w->Query(i);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<Row> wrapped = Sorted(r.value().rows);
      ASSERT_EQ(plain[static_cast<size_t>(i)].size(), wrapped.size()) << "query " << i;
      for (size_t j = 0; j < wrapped.size(); ++j) {
        ASSERT_TRUE(SameRow(plain[static_cast<size_t>(i)][j], wrapped[j])) << "query " << i;
      }
    }
    size_t connector_spans = 0;
    for (const Span& s : log.spans()) {
      if (std::string(s.name) == "olap.query" || std::string(s.name) == "olap.scan") {
        ++connector_spans;
      }
    }
    EXPECT_GE(connector_spans, static_cast<size_t>(kQueries));
  }
}

}  // namespace
}  // namespace pipebench
