#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/hash.h"
#include "common/rng.h"
#include "core/use_cases.h"
#include "pipebench.h"
#include "stream/producer.h"
#include "workload/generators.h"

namespace pipebench {

using uberrt::Value;
using uberrt::olap::OlapAggregation;
using uberrt::olap::OlapQuery;

namespace {

bool SameDouble(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

Status Mismatch(const std::string& what, int64_t bad, int64_t total) {
  return Status::Internal(what + ": " + std::to_string(bad) + " of " +
                          std::to_string(total) + " wrong");
}

/// Column index by name in a query result.
size_t Col(const uberrt::RowSchema& schema, const std::string& name) {
  int idx = schema.FieldIndex(name);
  return idx < 0 ? 0 : static_cast<size_t>(idx);
}

}  // namespace

// --- Workload ------------------------------------------------------------------

Workload::~Workload() = default;

Status Workload::Start(size_t executor_threads) {
  uberrt::core::RealtimePlatform::Options options;
  options.executor_threads = executor_threads;
  platform_ = std::make_unique<uberrt::core::RealtimePlatform>(options);
  UBERRT_RETURN_IF_ERROR(StartApp());
  Result<int32_t> partitions = platform_->streams()->NumPartitions(tracked_topic_);
  if (!partitions.ok()) return partitions.status();
  mirror_.assign(static_cast<size_t>(partitions.value()), PartitionMirror());
  return Status::Ok();
}

void Workload::Track(int32_t partition, int64_t offset, const RowSample& sample) {
  PartitionMirror& m = mirror_[static_cast<size_t>(partition)];
  m.pending.emplace_back(offset, samples_.size());
  m.registered_end = std::max(m.registered_end, offset + 1);
  samples_.push_back(sample);
}

std::vector<int64_t> Workload::NoteEventTime(
    int64_t ts, double due_ms, double ack_ms,
    const std::function<int64_t(int64_t)>& expected_rows) {
  std::vector<int64_t> noted;
  const int64_t window = settings_.window_ms;
  if (window == 0) return noted;
  while (next_unclosed_window_ + window + settings_.out_of_orderness_ms <= ts) {
    int64_t start = next_unclosed_window_;
    next_unclosed_window_ += window;
    int64_t expected = expected_rows(start);
    if (expected == 0) continue;  // skipped by an event-time jump
    WindowInfo& info = windows_[start];
    info.closer_due_ms = due_ms;
    info.closer_ack_ms = ack_ms;
    info.expected_rows = expected;
    noted.push_back(start);
  }
  return noted;
}

void Workload::Tap() {
  const double now = NowMs();
  for (size_t p = 0; p < mirror_.size(); ++p) {
    while (true) {
      Result<uberrt::stream::FetchedBatch> batch = platform_->streams()->FetchViews(
          tracked_topic_, static_cast<int32_t>(p), mirror_[p].registered_end, 1024);
      if (!batch.ok() || batch.value().empty()) break;
      for (const uberrt::stream::wire::MessageView& m : batch.value().messages) {
        RowSample sample;
        // The sink stamps a window result with the window's last millisecond.
        sample.window = m.timestamp + 1 - settings_.window_ms;
        sample.sink_ms = now;
        Track(static_cast<int32_t>(p), m.offset, sample);
      }
    }
  }
}

Status Workload::PumpAndTrack(SpanLog* log) {
  if (settings_.window_ms > 0) Tap();
  std::vector<int64_t> ends(mirror_.size());
  for (size_t p = 0; p < mirror_.size(); ++p) ends[p] = mirror_[p].registered_end;
  Status pumped = Pump(platform_.get(), table_, log);
  if (!pumped.ok()) return pumped;
  const double now = NowMs();
  backlogged_ = false;
  for (size_t p = 0; p < mirror_.size(); ++p) {
    PartitionMirror& m = mirror_[p];
    m.consumed = std::max(m.consumed, std::min(ends[p], m.consumed + kIngestBudget));
    if (ends[p] > m.consumed) backlogged_ = true;
    while (!m.pending.empty() && m.pending.front().first < m.consumed) {
      RowSample& sample = samples_[m.pending.front().second];
      m.pending.pop_front();
      sample.visible_ms = now;
      last_visible_ms_ = now;
      if (sample.window >= 0) {
        WindowInfo& info = windows_[sample.window];
        if (++info.visible_rows == info.expected_rows) info.complete_ms = now;
      }
    }
  }
  return Status::Ok();
}

bool Workload::HasUnpumped() {
  for (size_t p = 0; p < mirror_.size(); ++p) {
    Result<int64_t> end =
        platform_->streams()->EndOffset(tracked_topic_, static_cast<int32_t>(p));
    if (end.ok() && end.value() > mirror_[p].consumed) return true;
  }
  return false;
}

void Workload::FinalizeSamples() {
  for (RowSample& s : samples_) {
    if (s.window < 0) continue;
    auto it = windows_.find(s.window);
    if (it == windows_.end()) continue;
    s.origin_ms = it->second.closer_due_ms;
    s.ack_ms = it->second.closer_ack_ms < 0 ? s.sink_ms
                                            : std::min(it->second.closer_ack_ms, s.sink_ms);
  }
}

bool Workload::Resolved(double due_limit) const {
  if (settings_.window_ms == 0) {
    for (const PartitionMirror& m : mirror_) {
      if (!m.pending.empty() && samples_[m.pending.front().second].origin_ms < due_limit) {
        return false;
      }
    }
    return true;
  }
  for (const auto& [start, info] : windows_) {
    if (info.closer_due_ms < 0 || info.closer_due_ms >= due_limit) continue;
    if (info.complete_ms < 0) return false;
  }
  return true;
}

int64_t Workload::ClosedBefore(int64_t last_ts) const {
  const int64_t w = settings_.window_ms;
  const int64_t last_closed =
      last_ts - w - settings_.out_of_orderness_ms - settings_.close_margin_ms;  // latest closed start
  return last_closed < 0 ? 0 : last_closed / w * w + w;
}

bool Workload::CompleteThrough(int64_t ts_limit) const {
  if (settings_.window_ms == 0) return Resolved(kInf);
  const int64_t reach =
      settings_.window_ms + settings_.out_of_orderness_ms + settings_.close_margin_ms;
  for (const auto& [start, info] : windows_) {
    if (start + reach > ts_limit) break;
    if (info.expected_rows > 0 && info.complete_ms < 0) return false;
  }
  return true;
}

double Workload::CompletedAt(int64_t ts_limit) const {
  if (settings_.window_ms == 0) return last_visible_ms_;
  const int64_t reach =
      settings_.window_ms + settings_.out_of_orderness_ms + settings_.close_margin_ms;
  double at = -1;
  for (const auto& [start, info] : windows_) {
    if (start + reach > ts_limit) break;
    at = std::max(at, info.complete_ms);
  }
  return at;
}

void Workload::InstallTimingConnector(SpanLog* log) {
  platform_->catalog()->Register(
      table_, std::make_unique<TimingConnector>(
                  std::make_unique<uberrt::sql::OlapConnector>(platform_->olap(), table_),
                  log));
}

int64_t Workload::SourceLag() {
  int64_t lag = 0;
  for (const std::string& id : JobIds()) {
    uberrt::compute::JobRunner* runner = platform_->jobs()->GetRunner(id);
    if (runner == nullptr) continue;
    Result<int64_t> l = runner->SourceLag();
    if (l.ok()) lag += l.value();
  }
  return lag;
}

int64_t Workload::IngestLag() {
  Result<int64_t> lag = platform_->olap()->IngestLag(table_);
  return lag.ok() ? lag.value() : 0;
}

void Workload::VerifyMirror(int64_t reported_lag) {
  int64_t modelled = 0;
  for (size_t p = 0; p < mirror_.size(); ++p) {
    Result<int64_t> end =
        platform_->streams()->EndOffset(tracked_topic_, static_cast<int32_t>(p));
    if (end.ok()) modelled += end.value() - mirror_[p].consumed;
  }
  // The model may lag the table (rows that reached the sink mid-pump), never
  // lead it.
  if (reported_lag > modelled) ++guards_.mirror_mismatches;
}

std::vector<std::string> Workload::JobIds() {
  std::vector<std::string> ids;
  for (const uberrt::compute::JobInfo& info : platform_->jobs()->ListJobs()) {
    ids.push_back(info.id);
  }
  return ids;
}

void Workload::UpdateJobGuards() {
  guards_.rescales = 0;
  guards_.restarts = 0;
  for (const uberrt::compute::JobInfo& info : platform_->jobs()->ListJobs()) {
    guards_.rescales += info.rescales;
    guards_.restarts += info.restarts;
  }
}

namespace {

// --- dashboard_rollup ----------------------------------------------------------

/// Section 5.2 Restaurant Manager as shipped: audited ProduceRow per order, the
/// FlinkSQL filter + 1-minute rollup, the star-tree table, and page loads of
/// TopItems + SalesTimeseries over Zipf-popular restaurants.
class DashboardRollup : public Workload {
 public:
  explicit DashboardRollup(uint64_t seed)
      : Workload(MakeSettings(), "eats_rollup", "eats_orders_rollup"),
        generator_(uberrt::workload::EatsOrderGenerator::Options(), seed),
        query_seed_(seed * 7919 + 1) {}

  static Settings MakeSettings() {
    Settings s;
    s.name = "dashboard_rollup";
    s.steps_per_s = 20000;
    // 120x: a window closes every 500 ms of wall time, so a steady phase
    // holds dozens of windows for the freshness median.
    s.step_ms = 6;
    s.queries_per_s = 200;
    s.history_steps = 100'000;  // 10 windows
    s.saturation_steps = 40'000;  // 4 windows
    s.window_ms = 60'000;
    s.out_of_orderness_ms = uberrt::compute::FlinkSqlOptions().out_of_orderness_ms;
    return s;
  }

  Status ProduceStep(int64_t ts, double due_ms, SpanLog* log) override {
    Row row = generator_.NextRow();
    row[8] = Value(ts);
    Result<uberrt::stream::ProduceResult> produced = [&] {
      ScopedSpan span(log, "stream.produce");
      return platform_->ProduceRow(app_->options().orders_topic, row, row[1].ToString(), ts,
                                   uberrt::core::RestaurantManagerApp::kActor);
    }();
    const double ack = NowMs();
    CountProduce(produced.ok());
    if (produced.ok() && row[7].AsString() != "abandoned") {
      Agg& agg = reference_[ts / settings_.window_ms * settings_.window_ms]
                           [{row[1].AsInt(), row[5].AsString()}];
      ++agg.orders;
      agg.sales += row[6].AsDouble();
    }
    NoteEventTime(ts, due_ms, ack, [this](int64_t start) {
      auto it = reference_.find(start);
      return it == reference_.end() ? int64_t{0} : static_cast<int64_t>(it->second.size());
    });
    return produced.ok() ? Status::Ok() : produced.status();
  }

  /// Page load i / 2 of a Zipf-popular restaurant: TopItems, then
  /// SalesTimeseries.
  Result<uberrt::sql::QueryResult> Query(int64_t i) override {
    uberrt::Rng rng(query_seed_ + static_cast<uint64_t>(i / 2));
    const int64_t restaurant = rng.Zipf(200, 1.1);
    return i % 2 == 0 ? app_->TopItems(restaurant) : app_->SalesTimeseries(restaurant);
  }

  Status Check(int64_t last_ts) override {
    OlapQuery q;
    q.group_by = {"restaurant_id", "item", "window_start"};
    q.aggregations = {OlapAggregation::Count("rows"), OlapAggregation::Sum("orders", "orders"),
                      OlapAggregation::Sum("sales", "sales")};
    Result<uberrt::olap::OlapResult> got = platform_->olap()->Query(table_, q);
    if (!got.ok()) return got.status();
    const uberrt::RowSchema& schema = got.value().schema;
    const size_t r = Col(schema, "restaurant_id"), it = Col(schema, "item"),
                 ws = Col(schema, "window_start"), n = Col(schema, "rows"),
                 o = Col(schema, "orders"), s = Col(schema, "sales");
    const int64_t closed_before = ClosedBefore(last_ts);
    int64_t checked = 0, bad = 0;
    for (const Row& row : got.value().rows) {
      int64_t start = row[ws].AsInt();
      if (start >= closed_before) continue;
      ++checked;
      auto win = reference_.find(start);
      if (win == reference_.end()) {
        ++bad;
        continue;
      }
      auto ref = win->second.find({row[r].AsInt(), row[it].AsString()});
      if (ref == win->second.end() || row[n].ToNumeric() != 1 ||
          row[o].ToNumeric() != static_cast<double>(ref->second.orders) ||
          !SameDouble(row[s].ToNumeric(), ref->second.sales)) {
        ++bad;
      }
    }
    int64_t expected = 0;
    for (const auto& [start, groups] : reference_) {
      if (start < closed_before) expected += static_cast<int64_t>(groups.size());
    }
    if (bad > 0 || checked != expected) {
      return Status::Internal("rollup rows: " + std::to_string(bad) + " wrong, " +
                              std::to_string(checked) + " present, " +
                              std::to_string(expected) + " expected");
    }
    return Status::Ok();
  }

 protected:
  Status StartApp() override {
    app_ = std::make_unique<uberrt::core::RestaurantManagerApp>(platform_.get());
    return app_->Start();
  }

 private:
  struct Agg {
    int64_t orders = 0;
    double sales = 0;
  };

  std::unique_ptr<uberrt::core::RestaurantManagerApp> app_;
  uberrt::workload::EatsOrderGenerator generator_;
  /// window start -> (restaurant, item) -> orders and sales, in send order.
  std::map<int64_t, std::map<std::pair<int64_t, std::string>, Agg>> reference_;
  uint64_t query_seed_;
};

// --- ops_raw -------------------------------------------------------------------

/// Section 5.4 ops exploration: orders straight from the topic into a raw
/// table (time column ts, inverted indexes on restaurant_id and city, default
/// 10k-row seals, async peer-to-peer archival), no compute job, and an ad-hoc
/// PrestoSQL mix over it.
class OpsRaw : public Workload {
 public:
  explicit OpsRaw(uint64_t seed)
      : Workload(MakeSettings(), "eats_orders_raw", kTopic),
        generator_(uberrt::workload::EatsOrderGenerator::Options(), seed),
        query_seed_(seed * 7919 + 2) {}

  static constexpr char kTopic[] = "ops_orders";
  static constexpr const char* kStatuses[] = {"placed", "preparing", "picked_up",
                                              "delivered", "abandoned"};

  static Settings MakeSettings() {
    Settings s;
    s.name = "ops_raw";
    s.steps_per_s = 5000;
    s.step_ms = 12;  // 60x
    s.queries_per_s = 200;
    s.history_steps = 100'000;
    s.saturation_steps = 20'000;
    return s;
  }

  Status ProduceStep(int64_t ts, double due_ms, SpanLog* log) override {
    Row row = generator_.NextRow();
    row[8] = Value(ts);
    Result<uberrt::stream::ProduceResult> produced = [&] {
      ScopedSpan span(log, "stream.produce");
      return platform_->ProduceRow(kTopic, row, row[1].ToString(), ts,
                                   uberrt::core::EatsOpsAutomationApp::kActor);
    }();
    const double ack = NowMs();
    CountProduce(produced.ok());
    if (!produced.ok()) return produced.status();
    RowSample sample;
    sample.origin_ms = due_ms;
    sample.ack_ms = ack;
    sample.sink_ms = ack;
    Track(produced.value().partition, produced.value().offset, sample);
    reference_.push_back({row[1].AsInt(), row[4].AsString(), row[7].AsString(),
                          row[6].AsDouble()});
    return Status::Ok();
  }

  /// Round robin over a status group-by, a restaurant lookup and a range count.
  Result<uberrt::sql::QueryResult> Query(int64_t i) override {
    uberrt::Rng rng(query_seed_ + static_cast<uint64_t>(i));
    int kind = static_cast<int>(i % 3);
    int64_t param = kind == 0   ? rng.Uniform(0, 4)
                    : kind == 1 ? rng.Zipf(200, 1.1)
                                : rng.Uniform(5, 45);
    return app_->Explore(Sql(kind, param));
  }

  Status Check(int64_t last_ts) override {
    (void)last_ts;
    Result<int64_t> rows = platform_->olap()->NumRows(table_);
    if (!rows.ok()) return rows.status();
    if (rows.value() != static_cast<int64_t>(reference_.size())) {
      return Status::Internal("raw rows: " + std::to_string(rows.value()) + " present, " +
                              std::to_string(reference_.size()) + " produced");
    }
    const std::vector<std::pair<int, int64_t>> cases = {
        {0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 0}, {1, 1},
        {1, 7}, {1, 199}, {2, 5}, {2, 20}, {2, 44}};
    int64_t bad = 0;
    for (const auto& [kind, param] : cases) {
      Result<uberrt::sql::QueryResult> got = app_->Explore(Sql(kind, param));
      if (!got.ok()) return got.status();
      if (!Matches(kind, param, got.value())) ++bad;
    }
    return bad == 0 ? Status::Ok()
                    : Mismatch("ad-hoc query answers", bad, static_cast<int64_t>(cases.size()));
  }

 protected:
  Status StartApp() override {
    uberrt::core::EatsOpsAutomationApp::Options options;
    options.table = table_;
    app_ = std::make_unique<uberrt::core::EatsOpsAutomationApp>(platform_.get(), options);
    const char* actor = uberrt::core::EatsOpsAutomationApp::kActor;
    UBERRT_RETURN_IF_ERROR(platform_->ProvisionTopic(
        kTopic, uberrt::workload::EatsOrderGenerator::Schema(), 4, actor));
    uberrt::olap::TableConfig config;
    config.name = table_;
    config.time_column = "ts";
    config.index_config.inverted_columns = {"restaurant_id", "city"};
    return platform_->ProvisionOlapTable(std::move(config), kTopic,
                                         uberrt::olap::ClusterTableOptions(), actor);
  }

 private:
  struct Order {
    int64_t restaurant;
    std::string city;
    std::string status;
    double total;
  };

  std::string Sql(int kind, int64_t param) const {
    std::ostringstream sql;
    if (kind == 0) {
      sql << "SELECT city, COUNT(*) AS orders, SUM(total) AS sales FROM " << table_
          << " WHERE status = '" << kStatuses[param] << "' GROUP BY city";
    } else if (kind == 1) {
      sql << "SELECT COUNT(*) AS orders, SUM(total) AS sales FROM " << table_
          << " WHERE restaurant_id = " << param;
    } else {
      sql << "SELECT COUNT(*) AS orders FROM " << table_ << " WHERE total >= " << param
          << " AND total < " << param + 5;
    }
    return sql.str();
  }

  bool Matches(int kind, int64_t param, const uberrt::sql::QueryResult& got) const {
    std::map<std::string, std::pair<int64_t, double>> want;  // group -> orders, sales
    for (const Order& o : reference_) {
      bool hit = kind == 0   ? o.status == kStatuses[param]
                 : kind == 1 ? o.restaurant == param
                             : o.total >= static_cast<double>(param) &&
                                   o.total < static_cast<double>(param + 5);
      if (!hit) continue;
      auto& [orders, sales] = want[kind == 0 ? o.city : std::string()];
      ++orders;
      sales += o.total;
    }
    const uberrt::RowSchema& schema = got.schema;
    if (kind != 0 && want.empty()) want[""] = {0, 0.0};
    if (got.rows.size() != want.size()) return false;
    for (const Row& row : got.rows) {
      std::string group = kind == 0 ? row[Col(schema, "city")].AsString() : std::string();
      auto it = want.find(group);
      if (it == want.end()) return false;
      if (row[Col(schema, "orders")].ToNumeric() != static_cast<double>(it->second.first)) {
        return false;
      }
      if (kind != 2 && it->second.first > 0 &&
          !SameDouble(row[Col(schema, "sales")].ToNumeric(), it->second.second)) {
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<uberrt::core::EatsOpsAutomationApp> app_;
  uberrt::workload::EatsOrderGenerator generator_;
  std::vector<Order> reference_;
  uint64_t query_seed_;
};

// --- prediction_join -------------------------------------------------------------

/// Section 5.3 as shipped in PredictionMonitoringApp: predictions and their
/// outcomes (sent 2 s of event time later) through BatchingProducer, the
/// window join on prediction_id feeding a per-model aggregate, the tiny
/// model_accuracy cube, and AccuracyByModel queries.
class PredictionJoin : public Workload {
 public:
  explicit PredictionJoin(uint64_t seed)
      : Workload(MakeSettings(), "model_accuracy", "model_metrics"),
        generator_(uberrt::workload::PredictionGenerator::Options(), seed) {}

  static Settings MakeSettings() {
    Settings s;
    s.name = "prediction_join";
    s.steps_per_s = 4000;
    s.events_per_step = 2;
    // 600x: at 60x each source would emit a watermark (every 64 records) only
    // every 32 ms, and that wait, not the pipeline, would set the freshness.
    s.step_ms = 150;
    s.queries_per_s = 200;
    s.history_steps = 30'000;  // 75 windows
    s.saturation_steps = 40'000;
    s.window_ms = 60'000;
    s.out_of_orderness_ms = 5000;  // the app's sources
    // 64 records of event time per source, plus the outcome delay.
    s.close_margin_ms = 12'000;
    return s;
  }

  Status ProduceStep(int64_t ts, double due_ms, SpanLog* log) override {
    uberrt::workload::PredictionGenerator::Pair pair = generator_.NextPair();
    const int64_t delay = uberrt::workload::PredictionGenerator::Options().outcome_delay_ms;
    pair.prediction[3] = Value(ts);
    pair.outcome[3] = Value(ts + delay);
    const std::string key = pair.prediction[0].ToString();
    const int32_t partition = static_cast<int32_t>(
        uberrt::KeyToPartition(key, static_cast<uint32_t>(pred_sent_.size())));
    const int64_t offset = pred_sent_[static_cast<size_t>(partition)]++;
    Status status = Send(predictions_.get(), pair.prediction, key, ts, log);
    // Joined iff both sides fall in one tumbling window.
    const int64_t w = settings_.window_ms;
    if (ts / w == (ts + delay) / w) ++reference_[ts / w * w][pair.prediction[1].AsString()];
    pending_outcomes_.push_back(std::move(pair.outcome));
    while (status.ok() && !pending_outcomes_.empty() &&
           pending_outcomes_.front()[3].AsInt() <= ts) {
      const Row& outcome = pending_outcomes_.front();
      status = Send(outcomes_.get(), outcome, outcome[0].ToString(), outcome[3].AsInt(), log);
      pending_outcomes_.pop_front();
    }
    if (status.ok() && !primed_) status = Prime();
    std::vector<int64_t> noted = NoteEventTime(ts, due_ms, -1, [this](int64_t start) {
      auto it = reference_.find(start);
      return it == reference_.end() ? int64_t{0} : static_cast<int64_t>(it->second.size());
    });
    for (int64_t start : noted) pending_acks_.push_back({partition, offset, start});
    return status;
  }

  void Poll(SpanLog* log) override {
    {
      ScopedSpan span(log, "stream.flush");
      predictions_->MaybeFlushLinger().ok();
      outcomes_->MaybeFlushLinger().ok();
    }
    if (pending_acks_.empty()) return;
    const double now = NowMs();
    while (!pending_acks_.empty()) {
      const PendingAck& a = pending_acks_.front();
      Result<int64_t> end = platform_->streams()->EndOffset(
          app_->options().predictions_topic, a.partition);
      if (!end.ok() || end.value() <= a.offset) break;
      windows_[a.window].closer_ack_ms = now;
      pending_acks_.pop_front();
    }
  }

  double EventsPerBatch() const override {
    int64_t batches = predictions_->batches_flushed() + outcomes_->batches_flushed();
    return batches == 0 ? 0.0
                        : static_cast<double>(predictions_->produced() + outcomes_->produced()) /
                              static_cast<double>(batches);
  }

  Result<uberrt::sql::QueryResult> Query(int64_t i) override {
    (void)i;
    return app_->AccuracyByModel();
  }

  Status Check(int64_t last_ts) override {
    OlapQuery q;
    q.group_by = {"model_id", "window_start"};
    q.aggregations = {OlapAggregation::Count("rows"), OlapAggregation::Sum("n", "n")};
    Result<uberrt::olap::OlapResult> got = platform_->olap()->Query(table_, q);
    if (!got.ok()) return got.status();
    const uberrt::RowSchema& schema = got.value().schema;
    const size_t m = Col(schema, "model_id"), ws = Col(schema, "window_start"),
                 rows = Col(schema, "rows"), n = Col(schema, "n");
    const int64_t closed_before = ClosedBefore(last_ts);
    int64_t checked = 0, bad = 0;
    std::string example;
    for (const Row& row : got.value().rows) {
      int64_t start = row[ws].AsInt();
      if (start >= closed_before) continue;
      ++checked;
      auto win = reference_.find(start);
      if (win == reference_.end()) {
        ++bad;
        continue;
      }
      auto ref = win->second.find(row[m].AsString());
      if (ref == win->second.end() || row[rows].ToNumeric() != 1 ||
          row[n].ToNumeric() != static_cast<double>(ref->second)) {
        if (bad++ == 0) {
          example = " (first: window " + std::to_string(start) + " model " +
                    row[m].AsString() + ": " + row[rows].ToString() + " rows, n " +
                    row[n].ToString() + ", want " +
                    (ref == win->second.end() ? "none" : std::to_string(ref->second)) + ")";
        }
      }
    }
    int64_t expected = 0;
    for (const auto& [start, models] : reference_) {
      if (start < closed_before) expected += static_cast<int64_t>(models.size());
    }
    if (bad > 0 || checked != expected) {
      return Status::Internal("per-model joined counts: " + std::to_string(bad) +
                              " wrong, " + std::to_string(checked) + " present, " +
                              std::to_string(expected) + " expected" + example);
    }
    return Status::Ok();
  }

 protected:
  Status StartApp() override {
    app_ = std::make_unique<uberrt::core::PredictionMonitoringApp>(platform_.get());
    UBERRT_RETURN_IF_ERROR(app_->Start());
    predictions_ = std::make_unique<uberrt::stream::BatchingProducer>(
        platform_->streams(), app_->options().predictions_topic);
    outcomes_ = std::make_unique<uberrt::stream::BatchingProducer>(
        platform_->streams(), app_->options().outcomes_topic);
    pred_sent_.assign(static_cast<size_t>(app_->options().partitions), 0);
    return Status::Ok();
  }

 private:
  struct PendingAck {
    int32_t partition;
    int64_t offset;
    int64_t window;
  };

  /// Ships every step at once until each partition of both topics holds a
  /// record. A job source treats a partition that never had data as idle, so
  /// if one partition's first batch lingered while another's was read, the
  /// watermark would pass its records and the join would drop them as late.
  Status Prime() {
    UBERRT_RETURN_IF_ERROR(predictions_->Flush());
    UBERRT_RETURN_IF_ERROR(outcomes_->Flush());
    for (const std::string& topic :
         {app_->options().predictions_topic, app_->options().outcomes_topic}) {
      for (int32_t p = 0; p < app_->options().partitions; ++p) {
        Result<int64_t> end = platform_->streams()->EndOffset(topic, p);
        if (!end.ok()) return end.status();
        if (end.value() == 0) return Status::Ok();
      }
    }
    primed_ = true;
    return Status::Ok();
  }

  Status Send(uberrt::stream::BatchingProducer* producer, const Row& row,
              const std::string& key, int64_t ts, SpanLog* log) {
    uberrt::stream::Message message;
    message.key = key;
    message.value = uberrt::EncodeRow(row);
    message.timestamp = ts;
    ScopedSpan span(log, "stream.produce");
    Status status = producer->Produce(message);
    CountProduce(status.ok());
    return status;
  }

  std::unique_ptr<uberrt::core::PredictionMonitoringApp> app_;
  std::unique_ptr<uberrt::stream::BatchingProducer> predictions_;
  std::unique_ptr<uberrt::stream::BatchingProducer> outcomes_;
  uberrt::workload::PredictionGenerator generator_;
  std::deque<Row> pending_outcomes_;
  std::vector<int64_t> pred_sent_;  ///< predictions sent per partition
  std::deque<PendingAck> pending_acks_;
  bool primed_ = false;
  /// window start -> model -> joined pairs.
  std::map<int64_t, std::map<std::string, int64_t>> reference_;
};

}  // namespace

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {"dashboard_rollup", "ops_raw",
                                                 "prediction_join"};
  return names;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name, uint64_t seed) {
  if (name == "dashboard_rollup") return std::make_unique<DashboardRollup>(seed);
  if (name == "ops_raw") return std::make_unique<OpsRaw>(seed);
  if (name == "prediction_join") return std::make_unique<PredictionJoin>(seed);
  return nullptr;
}

}  // namespace pipebench
