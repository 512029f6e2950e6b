// Fig. 1 pipeline benchmark: produce -> broker -> Flink-style job -> sink
// topic -> Pinot-style ingest -> Presto-style query, driven open loop through
// the platform's public API. Nothing here reaches into src/ internals: layers
// are timed from outside, around the calls the benchmark makes into them, and
// their public counters are read.
#ifndef PIPEBENCH_PIPEBENCH_H_
#define PIPEBENCH_PIPEBENCH_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.h"
#include "sql/engine.h"

namespace pipebench {

using uberrt::Result;
using uberrt::Row;
using uberrt::Status;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Milliseconds on the steady clock since the first call in the process.
double NowMs();

/// Exact nearest-rank percentiles over recorded samples. A failed request is
/// recorded as +infinity, so it misses every latency limit.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Sum() const;
  /// q in (0, 100]; 0 when empty.
  double Pct(double q) const;
  /// The samples as a JSON array, in recording order.
  std::string Json() const;

 private:
  std::vector<double> values_;
};

/// One timed call the benchmark made into a layer's public API.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 for a root span
  const char* name = "";
  double start_ms = 0;
  double end_ms = 0;
  /// Work reported by the call, by span name: olap.ingest {rows},
  /// storage.archive {segments}, olap.query {rows scanned, segments scanned,
  /// segments pruned}, query {rows fetched}.
  std::array<int64_t, 3> counts{};
};

/// The spans of one driver thread, kept in memory until the run ends.
/// Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(int64_t thread_tag) : next_id_((thread_tag << 40) + 1) {}
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;
  std::vector<Span> spans_;
  int64_t next_id_;
  int64_t current_ = 0;  ///< innermost open span, parent of the next one
};

/// Records a span over its scope. A null log records nothing, which is how
/// the untraced run pays no tracing cost.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(size_t i, int64_t value);

 private:
  SpanLog* log_;
  size_t index_ = 0;
  int64_t saved_parent_ = 0;
};

/// Writes spans as tab-separated `id parent name start_ms end_ms counts...`.
Status WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Catalog entry that times the OLAP calls PrestoSQL makes under a query.
/// Registered in place of the table's own connector in the traced run; the
/// results it returns are the wrapped connector's, unchanged.
class TimingConnector : public uberrt::sql::Connector {
 public:
  TimingConnector(std::unique_ptr<uberrt::sql::Connector> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}
  const uberrt::RowSchema& schema() const override { return inner_->schema(); }
  bool SupportsPushdown() const override { return inner_->SupportsPushdown(); }
  Result<std::vector<Row>> Scan(const std::vector<uberrt::olap::FilterPredicate>& filters,
                                const std::vector<std::string>& columns) override;
  Result<uberrt::olap::OlapResult> ExecuteOlap(
      const uberrt::olap::OlapQuery& query) override;

 private:
  std::unique_ptr<uberrt::sql::Connector> inner_;
  SpanLog* log_;
};

/// One platform pump for a pipeline that ends in `table`. Untraced (null
/// log): RealtimePlatform::PumpOnce. Traced: PumpOnce's public parts —
/// OlapCluster::IngestOnce, DrainArchivalQueue, JobManager::Tick — in the
/// same order, each in its own span under a `pump` span.
Status Pump(uberrt::core::RealtimePlatform* platform, const std::string& table,
            SpanLog* log);

/// Fixed settings of one workload; all are recorded in the output.
struct Settings {
  std::string name;
  double steps_per_s = 0;       ///< steady offered rate, in generator steps
  int64_t events_per_step = 1;  ///< messages one step produces
  int64_t step_ms = 0;          ///< event time per step (speed-up x 1000 / rate)
  double queries_per_s = 0;     ///< open-loop query rate
  int64_t history_steps = 0;    ///< loaded during set-up
  int64_t saturation_steps = 0;  ///< offered at once per saturation round
  int64_t window_ms = 0;        ///< 0: raw rows, no window
  int64_t out_of_orderness_ms = 0;
  /// Event time the input must run past `window end + out-of-orderness`
  /// before the set-up or a saturation round counts a window as closed by its
  /// own data. Sources emit a watermark only every 64 records, so this covers
  /// 64 records of event time plus any delay between the job's inputs.
  int64_t close_margin_ms = 2000;

  double speedup() const { return static_cast<double>(step_ms) * steps_per_s / 1000.0; }
};

/// In burst mode (set-up and saturation) the ingest driver produces only
/// while the backlog — job source lag plus table ingest lag, in messages — is
/// under this cap. The pipeline then never runs dry, the job manager's
/// 50,000-record lag-driven rescale stays out of reach, and the job's queues
/// stay short: with deep queues every checkpoint's drain stalls the sources
/// longer, and capacity drops and swings from run to run.
inline constexpr int64_t kBacklogCap = 5'000;

/// One freshness sample: a raw row, or one result row of a window.
struct RowSample {
  double origin_ms = 0;  ///< intended send time: the row's event, or the window's closer
  double ack_ms = 0;     ///< produce ack of that event
  double sink_ms = 0;    ///< seen on the sink topic (= ack_ms for raw rows)
  double visible_ms = -1;  ///< end of the pump after which OLAP served it
  int64_t window = -1;     ///< window start, or -1 for a raw row
};

/// A tumbling window of the reference: when it became closable, how many
/// result rows it must produce and how many are queryable.
struct WindowInfo {
  double closer_due_ms = -1;  ///< intended send time of the first event past end + ooo
  double closer_ack_ms = -1;
  int64_t expected_rows = 0;
  int64_t visible_rows = 0;
  double complete_ms = -1;
};

/// Validity guards, reported per run.
struct Guards {
  int64_t mirror_mismatches = 0;  ///< modelled OLAP consumption disagreed with IngestLag
  int64_t rescales = 0;
  int64_t restarts = 0;
};

/// A workload: the app it starts, the inputs it generates, the reference it
/// keeps, the queries it issues and the checks it runs. The ingest driver
/// calls ProduceStep/Poll/PumpAndTrack from one thread; the query driver
/// calls Query from another.
class Workload {
 public:
  /// nullptr for an unknown name.
  static std::unique_ptr<Workload> Create(const std::string& name, uint64_t seed);
  static const std::vector<std::string>& Names();
  virtual ~Workload();

  const Settings& settings() const { return settings_; }
  uberrt::core::RealtimePlatform* platform() { return platform_.get(); }
  const std::string& table() const { return table_; }

  /// Builds the platform with an `executor_threads` pool and starts the app.
  Status Start(size_t executor_threads);

  /// Generates and produces one step at event time `ts`, due at `due_ms`.
  virtual Status ProduceStep(int64_t ts, double due_ms, SpanLog* log) = 0;
  /// Called every driver iteration: linger flushes, pending acks.
  virtual void Poll(SpanLog* log) { (void)log; }
  /// Reads the sink topic (window workloads), pumps, and marks what became
  /// queryable.
  Status PumpAndTrack(SpanLog* log);

  /// Issues query `i` of the mix (thread-safe against the ingest driver).
  virtual Result<uberrt::sql::QueryResult> Query(int64_t i) = 0;
  /// Registers TimingConnector in place of the table's connector.
  void InstallTimingConnector(SpanLog* log);

  /// Every raw row, or every window whose closer is due before `due_limit`,
  /// is queryable.
  bool Resolved(double due_limit) const;
  /// Every raw row, or every window with end + ooo + margin <= ts_limit, is
  /// queryable.
  bool CompleteThrough(int64_t ts_limit) const;
  /// Windows starting before this are closed by the events up to `last_ts`
  /// (the rule CompleteThrough applies).
  int64_t ClosedBefore(int64_t last_ts) const;
  /// When the rows behind CompleteThrough(ts_limit) became queryable.
  double CompletedAt(int64_t ts_limit) const;

  /// Compares the OLAP table (and the query mix) with the reference built
  /// from the generated inputs. Requires CompleteThrough(last_ts).
  virtual Status Check(int64_t last_ts) = 0;

  /// The last pump left messages it had budget for no more of: the driver
  /// pumps again at once, as PumpUntilIngested would.
  bool IngestBacklogged() const { return backlogged_; }
  /// The table's source topic holds messages no pump has consumed yet.
  bool HasUnpumped();
  /// Window workloads: fills each result row's origin and ack from its
  /// window's closer (an ack is observed no later than the row it released).
  void FinalizeSamples();

  /// Source lag of the job (0 without one) and OLAP ingest lag.
  int64_t SourceLag();
  int64_t IngestLag();
  int64_t Backlog() { return SourceLag() + IngestLag(); }
  /// Compares the modelled OLAP consumption with the reported ingest lag.
  void VerifyMirror(int64_t reported_lag);

  const std::vector<RowSample>& samples() const { return samples_; }
  const std::map<int64_t, WindowInfo>& windows() const { return windows_; }
  const Guards& guards() const { return guards_; }
  int64_t produce_attempts() const { return produce_attempts_; }
  int64_t produce_failures() const { return produce_failures_; }
  /// Produced messages per wire batch.
  virtual double EventsPerBatch() const { return 1.0; }
  /// Job ids, for the compute counters.
  std::vector<std::string> JobIds();
  void UpdateJobGuards();

 protected:
  Workload(Settings settings, std::string table, std::string tracked_topic)
      : settings_(std::move(settings)),
        table_(std::move(table)),
        tracked_topic_(std::move(tracked_topic)) {}

  virtual Status StartApp() = 0;

  /// Registers a row the OLAP table will consume at (partition, offset).
  void Track(int32_t partition, int64_t offset, const RowSample& sample);
  /// Records the closer of every window that `ts` (due at `due_ms`, acked
  /// at `ack_ms`, or -1 when the ack comes later) makes closable;
  /// `expected_rows(start)` gives its size. Returns the windows noted.
  std::vector<int64_t> NoteEventTime(int64_t ts, double due_ms, double ack_ms,
                                     const std::function<int64_t(int64_t)>& expected_rows);
  void CountProduce(bool ok) {
    ++produce_attempts_;
    if (!ok) ++produce_failures_;
  }

  Settings settings_;
  std::string table_;
  std::string tracked_topic_;
  std::unique_ptr<uberrt::core::RealtimePlatform> platform_;
  std::map<int64_t, WindowInfo> windows_;
  /// Windows whose closer was noted: all windows starting before it.
  int64_t next_unclosed_window_ = 0;
  Guards guards_;

 private:
  /// The table's consumption of its source topic, modelled per partition:
  /// each IngestOnce consumes up to 1024 messages of what was there when the
  /// pump started. Checked against IngestLag by VerifyMirror.
  static constexpr int64_t kIngestBudget = 1024;  ///< IngestOnce's default per partition

  /// Window workloads: registers result rows that reached the sink topic.
  void Tap();

  struct PartitionMirror {
    int64_t consumed = 0;
    int64_t registered_end = 0;
    std::deque<std::pair<int64_t, size_t>> pending;  ///< offset, sample index
  };

  std::vector<PartitionMirror> mirror_;
  std::vector<RowSample> samples_;
  double last_visible_ms_ = -1;
  bool backlogged_ = false;
  int64_t produce_attempts_ = 0;
  int64_t produce_failures_ = 0;
};

/// Gauges sampled by the ingest driver every kGaugeIntervalMs.
struct GaugeSample {
  double at_ms = 0;
  int64_t source_lag = 0;
  int64_t ingest_lag = 0;
};

/// Open-loop ingest driver: produces generator steps on their schedule and
/// pumps the platform on a fixed grid of kPumpIntervalMs. It never waits for
/// the system: a step that is late is sent late, and its lateness is
/// recorded; a late pump runs at once and the grid does not shift.
class IngestDriver {
 public:
  /// Coprime with the wall time a window lasts (1000 ms at 60x, 100 ms at
  /// 600x), so successive windows close at every phase of the pump grid in
  /// turn and the freshness median does not hinge on where one phase falls.
  static constexpr double kPumpIntervalMs = 21;
  static constexpr double kGaugeIntervalMs = 100;
  static constexpr int64_t kMaxStepsPerIteration = 1024;
  /// How long a burst waits when the backlog is at the cap.
  static constexpr double kBacklogWaitMs = 0.2;

  explicit IngestDriver(Workload* workload) : w_(workload) {}

  /// Steps from the next one on are due at the steady rate, starting now.
  void ScheduleRate(double now_ms);
  /// The next `steps` steps are all due now, and are produced as fast as
  /// kBacklogCap admits them. Event time first jumps to the next window
  /// boundary, so every burst covers the same whole windows.
  void ScheduleBurst(int64_t steps, double now_ms);
  /// Runs driver iterations until `done()` or the deadline; returns done().
  bool RunUntil(const std::function<bool()>& done, double deadline_ms);

  void set_log(SpanLog* log) { log_ = log; }
  /// Sends whose due time falls in [from, to) record their lateness.
  void RecordSendLagBetween(double from_ms, double to_ms) {
    lag_from_ms_ = from_ms;
    lag_to_ms_ = to_ms;
  }
  /// Called after each pump (the traced run samples layer gauges here).
  void set_after_pump(std::function<void()> fn) { after_pump_ = std::move(fn); }

  int64_t next_step() const { return next_step_; }
  /// When the next pump on the grid is due.
  double next_pump_ms() const { return next_pump_ms_; }
  /// Event time of the last step produced.
  int64_t last_ts() const { return last_ts_; }
  /// Event time of step `k`.
  int64_t TsOf(int64_t k) const { return ts_base_ + (k - ts_base_step_) * step_ms(); }
  const Samples& send_lag_ms() const { return send_lag_ms_; }
  const std::vector<GaugeSample>& gauges() const { return gauges_; }
  const Status& first_error() const { return first_error_; }

 private:
  int64_t step_ms() const { return w_->settings().step_ms; }
  double DueOf(int64_t k) const;

  Workload* w_;
  SpanLog* log_ = nullptr;
  int64_t next_step_ = 0;
  int64_t last_ts_ = 0;
  // Event time: ts(k) = ts_base_ + (k - ts_base_step_) * step_ms.
  int64_t ts_base_ = 0;
  int64_t ts_base_step_ = 0;
  // Schedule: rate mode (burst_end_ < 0) or burst mode.
  double rate_base_ms_ = 0;
  int64_t rate_base_step_ = 0;
  double burst_due_ms_ = 0;
  int64_t burst_end_ = -1;
  double pump_grid_ms_ = 0;  ///< origin of the pump grid
  double next_pump_ms_ = -kInf;
  double last_gauge_ms_ = -kInf;
  double lag_from_ms_ = kInf;
  double lag_to_ms_ = kInf;
  Samples send_lag_ms_;
  std::vector<GaugeSample> gauges_;
  std::function<void()> after_pump_;
  Status first_error_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_PIPEBENCH_H_
