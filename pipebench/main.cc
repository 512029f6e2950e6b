// Usage: pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                       [--spans <path>]
//
// One run: set-up (repeated, median reported), warm-up (discarded), a steady
// phase of --seconds at fixed open-loop rates, then a saturation phase of
// fixed-size rounds while queries keep their rate. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 the per-layer
// metrics, from the same phases with spans around every produce, pump and
// query.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pipebench.h"

namespace pipebench {
namespace {

// Thread budget: executor_threads + the two driver threads <= nproc (4).
constexpr size_t kExecutorThreads = 2;
constexpr int kDriverThreads = 2;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupMs = 2000;
/// Saturation rounds. On a shared host, capacity swings by tens of percent
/// for a second or two at a time, so a run takes the median of many short
/// rounds. The traced run traces every other round, which gives the tracing
/// overhead.
constexpr int kSaturationRounds = 20;
constexpr double kDrainTimeoutMs = 10'000;
constexpr double kSaturationTimeoutMs = 30'000;
constexpr double kSetupTimeoutMs = 60'000;
/// Validity: the generator may run at most this late (p99 of steady sends).
constexpr double kSendLagBoundMs = 100;
/// Validity: freshness needs this many steady-phase samples.
constexpr size_t kMinFreshnessSamples = 1000;
/// Reconciliation: the stage medians must sum to the freshness median within
/// this share of it (or kReconcileFloorMs, whichever is larger).
constexpr double kReconcileTolerance = 0.25;
constexpr double kReconcileFloorMs = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// Gives the ingest driver CPU 0 to itself and the other threads the rest:
/// the executor threads inherit the mask of the thread that builds the
/// platform. Left to the scheduler, the driver sometimes shared a CPU with a
/// busy executor thread for seconds at a time, and capacity halved for those
/// runs. No-op when the thread budget exceeds nproc.
void PinCurrentThread(bool ingest_driver) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (kExecutorThreads + kDriverThreads > nproc) return;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (ingest_driver) {
    CPU_SET(0, &cpus);
  } else {
    for (unsigned c = 1; c < nproc; ++c) CPU_SET(c, &cpus);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus);
}

struct QueryRecord {
  double due_ms = 0;
  double end_ms = 0;
  bool ok = false;
};

/// Open-loop query driver: query k is due at t0 + k / rate and is timed from
/// that intended issue time, so a stall is charged to every query behind it.
class QueryDriver {
 public:
  QueryDriver(Workload* workload, double per_s, SpanLog* log)
      : w_(workload), per_s_(per_s), log_(log) {}
  ~QueryDriver() { Stop(); }
  QueryDriver(const QueryDriver&) = delete;
  QueryDriver& operator=(const QueryDriver&) = delete;

  void Start(double t0_ms) {
    t0_ms_ = t0_ms;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const std::vector<QueryRecord>& records() const { return records_; }

 private:
  void Loop() {
    PinCurrentThread(false);
    for (int64_t k = 0; !stop_.load(); ++k) {
      const double due = t0_ms_ + static_cast<double>(k) * 1000.0 / per_s_;
      for (double wait = due - NowMs(); wait > 0 && !stop_.load(); wait = due - NowMs()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(std::min(wait, 5.0)));
      }
      if (stop_.load()) break;
      ScopedSpan span(log_, "query");
      Result<uberrt::sql::QueryResult> result = w_->Query(k);
      if (result.ok()) span.set_count(0, result.value().stats.rows_fetched);
      records_.push_back({due, NowMs(), result.ok()});
    }
  }

  Workload* w_;
  double per_s_;
  SpanLog* log_;
  double t0_ms_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<QueryRecord> records_;
  std::thread thread_;  // declared last: joined before the members it uses die
};

/// Ordered metric list printed as the result's "metrics" object.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, {std::isfinite(value) ? value : 1e300, unit}});
  }
  std::string Json() const {
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", entries_[i].second.first);
      os << (i ? ", " : "") << "\"" << entries_[i].first << "\": {\"value\": " << value
         << ", \"unit\": \"" << entries_[i].second.second << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Spans named `name` that started in [from, to).
std::vector<const Span*> SpansIn(const SpanLog& log, const char* name, double from,
                                 double to) {
  std::vector<const Span*> out;
  for (const Span& s : log.spans()) {
    if (s.start_ms >= from && s.start_ms < to && std::strcmp(s.name, name) == 0) {
      out.push_back(&s);
    }
  }
  return out;
}

Samples DurationsUs(const std::vector<const Span*>& spans) {
  Samples out;
  for (const Span* s : spans) out.Add((s->end_ms - s->start_ms) * 1000.0);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Tail of a steady-phase sample: the p99 of each quarter of the phase, by
/// intended time, then the median of the four. A stall confined to one
/// quarter cannot carry the run's tail on its own.
class QuarteredTail {
 public:
  QuarteredTail(double from_ms, double to_ms) : from_ms_(from_ms), to_ms_(to_ms) {}
  void Add(double at_ms, double value) {
    int q = static_cast<int>(4 * (at_ms - from_ms_) / (to_ms_ - from_ms_));
    parts_[std::clamp(q, 0, 3)].Add(value);
  }
  double P99() const {
    std::array<double, 4> p99;
    for (size_t i = 0; i < 4; ++i) p99[i] = parts_[i].Pct(99);
    std::sort(p99.begin(), p99.end());
    return (p99[1] + p99[2]) / 2;
  }

 private:
  double from_ms_;
  double to_ms_;
  std::array<Samples, 4> parts_;
};

/// Mean of backlog samples (source + ingest lag) in [from, to).
double MeanBacklog(const std::vector<GaugeSample>& gauges, double from, double to) {
  double sum = 0;
  int n = 0;
  for (const GaugeSample& g : gauges) {
    if (g.at_ms >= from && g.at_ms < to) {
      sum += static_cast<double>(g.source_lag + g.ingest_lag);
      ++n;
    }
  }
  return n == 0 ? 0 : sum / n;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "pipeline_bench: %s\n", what.c_str());
  return 1;
}

int Run(const Args& args) {
  const bool trace = args.trace == 1;
  std::unique_ptr<Workload> w = Workload::Create(args.workload, args.seed);
  if (w == nullptr) return Fail("unknown workload " + args.workload);
  const Settings settings = w->settings();
  const unsigned nproc = std::thread::hardware_concurrency();

  // --- Set-up: platform, app and history, several times; the last is kept.
  Samples setup_s;
  std::unique_ptr<IngestDriver> driver;
  for (int r = 0; r < kSetupRepeats; ++r) {
    driver.reset();
    w.reset();
    const double t = NowMs();
    PinCurrentThread(false);
    w = Workload::Create(args.workload, args.seed);
    Status started = w->Start(kExecutorThreads);
    PinCurrentThread(true);
    if (!started.ok()) return Fail("set-up: " + started.ToString());
    driver = std::make_unique<IngestDriver>(w.get());
    driver->ScheduleBurst(settings.history_steps, t);
    bool loaded = driver->RunUntil(
        [&] {
          return driver->next_step() >= settings.history_steps &&
                 w->CompleteThrough(driver->last_ts());
        },
        t + kSetupTimeoutMs);
    if (!loaded || !driver->first_error().ok()) {
      return Fail("history load: " + driver->first_error().ToString());
    }
    setup_s.Add((NowMs() - t) / 1000.0);
  }
  const int64_t setup_attempts = w->produce_attempts();
  const int64_t setup_failures = w->produce_failures();

  SpanLog ingest_log(1);
  SpanLog query_log(2);
  SpanLog* ilog = trace ? &ingest_log : nullptr;
  SpanLog* qlog = trace ? &query_log : nullptr;
  if (trace) w->InstallTimingConnector(qlog);
  driver->set_log(ilog);
  uberrt::core::RealtimePlatform* platform = w->platform();
  uberrt::Histogram* task_wait_us =
      platform->executor()->metrics().GetHistogram("executor.platform.task_wait_us");
  uberrt::Histogram* task_run_us =
      platform->executor()->metrics().GetHistogram("executor.platform.task_run_us");
  std::vector<std::pair<double, int64_t>> queue_depth;
  if (trace) {
    driver->set_after_pump([&] {
      queue_depth.emplace_back(NowMs(),
                               static_cast<int64_t>(platform->executor()->QueueDepth()));
    });
  }

  // --- Warm-up and steady phase at the fixed rates.
  const double t0 = NowMs();
  const double s0 = t0 + kWarmupMs;
  const double s1 = s0 + args.seconds * 1000.0;
  driver->RecordSendLagBetween(s0, s1);
  QueryDriver queries(w.get(), settings.queries_per_s, qlog);
  queries.Start(t0);
  driver->ScheduleRate(t0);
  auto never = [] { return false; };
  driver->RunUntil(never, s0);
  const double cpu0 = ProcessCpuMs();
  const int64_t step0 = driver->next_step();
  const double run_us0 = task_run_us->Sum();
  if (trace) task_wait_us->Reset();
  driver->RunUntil(never, s1);
  const double cpu1 = ProcessCpuMs();
  const int64_t step1 = driver->next_step();
  const double run_us1 = task_run_us->Sum();
  const double task_wait_p99 = static_cast<double>(task_wait_us->Percentile(99));
  // Keep the steady rate until what became closable in the steady phase is
  // queryable.
  const bool drained = driver->RunUntil([&] { return w->Resolved(s1); }, s1 + kDrainTimeoutMs);

  // --- Saturation: rounds of a fixed step count, each offered at once and
  // admitted as fast as the backlog cap allows, so the pipeline never runs
  // dry; queries keep their rate. A round's capacity is its counted events
  // over the time until they were all queryable; the run reports the median
  // round, untraced and traced apart.
  std::array<Samples, 2> capacity;
  bool saturation_done = true;
  for (int round = 0; round < kSaturationRounds && saturation_done; ++round) {
    const int traced_round = trace && round % 2 == 1 ? 1 : 0;
    driver->set_log(traced_round ? &ingest_log : nullptr);
    const double start = NowMs();
    const int64_t first = driver->next_step();
    const int64_t end = first + settings.saturation_steps;
    driver->ScheduleBurst(settings.saturation_steps, start);
    const int64_t first_ts = driver->TsOf(first);
    const int64_t last_ts = driver->TsOf(end - 1);
    saturation_done = driver->RunUntil(
        [&] { return driver->next_step() >= end && w->CompleteThrough(last_ts); },
        start + kSaturationTimeoutMs);
    int64_t counted_steps = settings.saturation_steps;
    if (settings.window_ms > 0) {
      // Only whole windows the round itself closes count.
      int64_t windows = (w->ClosedBefore(last_ts) - first_ts) / settings.window_ms;
      counted_steps = windows * settings.window_ms / settings.step_ms;
    }
    const double seconds = (w->CompletedAt(last_ts) - start) / 1000.0;
    const double counted = static_cast<double>(counted_steps * settings.events_per_step);
    capacity[traced_round].Add(Ratio(counted, seconds));
  }
  queries.Stop();
  driver->set_log(nullptr);

  // --- Correctness and validity.
  w->UpdateJobGuards();
  w->FinalizeSamples();
  Status check = w->Check(driver->last_ts());

  Samples freshness, produce_ack, emit_delay, visible_delay;
  QuarteredTail freshness_tail(s0, s1);
  for (const RowSample& s : w->samples()) {
    if (s.origin_ms < s0 || s.origin_ms >= s1) continue;
    const double fresh = s.visible_ms < 0 ? kInf : s.visible_ms - s.origin_ms;
    freshness.Add(fresh);
    freshness_tail.Add(s.origin_ms, fresh);
    if (s.visible_ms < 0) continue;
    produce_ack.Add(s.ack_ms - s.origin_ms);
    emit_delay.Add(s.sink_ms - s.ack_ms);
    visible_delay.Add(s.visible_ms - s.sink_ms);
  }
  Samples query_ms;
  QuarteredTail query_tail(s0, s1);
  int64_t queries_attempted = 0, queries_failed = 0;
  for (const QueryRecord& q : queries.records()) {
    ++queries_attempted;
    if (!q.ok) ++queries_failed;
    if (q.due_ms < s0 || q.due_ms >= s1) continue;
    const double latency = q.ok ? q.end_ms - q.due_ms : kInf;
    query_ms.Add(latency);
    query_tail.Add(q.due_ms, latency);
  }
  const int64_t attempted = w->produce_attempts() - setup_attempts + queries_attempted;
  const int64_t failed = w->produce_failures() - setup_failures + queries_failed;

  const double quarter = (s1 - s0) / 4;
  const double backlog_q2 = MeanBacklog(driver->gauges(), s0 + quarter, s0 + 2 * quarter);
  const double backlog_q4 = MeanBacklog(driver->gauges(), s0 + 3 * quarter, s1);
  const double send_lag_p99 = driver->send_lag_ms().Pct(99);

  std::vector<std::string> problems;
  if (!driver->first_error().ok()) problems.push_back("error " + driver->first_error().ToString());
  if (!check.ok()) problems.push_back("check " + check.ToString());
  if (!drained) problems.push_back("steady-phase rows not queryable within the drain timeout");
  if (!saturation_done) problems.push_back("a saturation round did not complete");
  if (send_lag_p99 > kSendLagBoundMs) problems.push_back("generator ran late");
  if (w->guards().rescales > 0 || w->guards().restarts > 0) {
    problems.push_back("job rescaled or restarted");
  }
  if (backlog_q4 > backlog_q2 + std::max(1000.0, backlog_q2)) {
    problems.push_back("backlog still growing at the end of the steady phase");
  }
  if (w->guards().mirror_mismatches > 0) problems.push_back("ingest model disagreed with IngestLag");
  if (freshness.size() < kMinFreshnessSamples) problems.push_back("too few freshness samples");

  std::printf("# config {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"offered_steps_per_s\": %.0f, \"offered_events_per_s\": %.0f, "
              "\"queries_per_s\": %.0f, \"event_time_speedup\": %.1f, "
              "\"executor_threads\": %zu, \"driver_threads\": %d, \"nproc\": %u, "
              "\"pump_interval_ms\": %.0f, \"warmup_s\": %.1f, \"steady_s\": %d, "
              "\"setup_repeats\": %d, \"saturation_rounds\": %d, \"round_events\": %" PRId64
              ", \"backlog_cap\": %" PRId64 ", \"history_events\": %" PRId64
              ", \"trace\": %d}\n",
              settings.name.c_str(), args.seed, settings.steps_per_s,
              settings.steps_per_s * static_cast<double>(settings.events_per_step),
              settings.queries_per_s, settings.speedup(), kExecutorThreads, kDriverThreads,
              nproc, IngestDriver::kPumpIntervalMs, kWarmupMs / 1000, args.seconds,
              kSetupRepeats, kSaturationRounds,
              settings.saturation_steps * settings.events_per_step, kBacklogCap,
              settings.history_steps * settings.events_per_step, args.trace);
  if (kExecutorThreads + kDriverThreads > nproc) {
    std::printf("# note: thread budget %zu exceeds nproc %u\n",
                kExecutorThreads + kDriverThreads, nproc);
  }
  std::printf("# guards {\"send_lag_p99_ms\": %.3f, \"send_lag_bound_ms\": %.0f, "
              "\"rescales\": %" PRId64 ", \"restarts\": %" PRId64
              ", \"backlog_q2\": %.1f, \"backlog_q4\": %.1f, \"drained\": %s, "
              "\"saturation_completed\": %s, \"ingest_model_mismatches\": %" PRId64 "}\n",
              send_lag_p99, kSendLagBoundMs, w->guards().rescales, w->guards().restarts,
              backlog_q2, backlog_q4, drained ? "true" : "false",
              saturation_done ? "true" : "false", w->guards().mirror_mismatches);
  // query_p99_ms is printed here, not gated: on a shared host a single slow
  // stretch moves it by more than any bound the benchmark could keep.
  std::printf("# samples {\"freshness\": %zu, \"queries\": %zu, \"failed_ratio\": %.6f, "
              "\"query_p99_ms\": %.4f, \"setup_s\": %s, \"capacity_eps\": %s}\n",
              freshness.size(), query_ms.size(),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), query_tail.P99(),
              setup_s.Json().c_str(), capacity[0].Json().c_str());

  Metrics metrics;
  if (!trace) {
    metrics.Add("setup_s", setup_s.Pct(50), "s");
    metrics.Add("capacity_eps", capacity[0].Pct(50), "1/s");
    metrics.Add("freshness_p50_ms", freshness.Pct(50), "ms");
    metrics.Add("freshness_p99_ms", freshness_tail.P99(), "ms");
    metrics.Add("query_p50_ms", query_ms.Pct(50), "ms");
    metrics.Add("query_p95_ms", query_ms.Pct(95), "ms");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const double steady_ms = s1 - s0;
    const double steady_us = steady_ms * 1000.0;
    // stream
    std::vector<const Span*> produce = SpansIn(ingest_log, "stream.produce", s0, s1);
    std::vector<const Span*> flush = SpansIn(ingest_log, "stream.flush", s0, s1);
    Samples produce_us = DurationsUs(produce);
    metrics.Add("stream.produce_us_p50", produce_us.Pct(50), "us");
    metrics.Add("stream.produce_us_p99", produce_us.Pct(99), "us");
    metrics.Add("stream.produce_busy_share",
                (produce_us.Sum() + DurationsUs(flush).Sum()) / steady_us, "ratio");
    metrics.Add("stream.produce_failed",
                static_cast<double>(w->produce_failures() - setup_failures), "count");
    metrics.Add("stream.events_per_batch", w->EventsPerBatch(), "count");
    // compute
    int64_t records_in = 0, records_out = 0, peak_state = 0, late = 0;
    for (const std::string& id : w->JobIds()) {
      uberrt::compute::JobRunner* runner = platform->jobs()->GetRunner(id);
      if (runner == nullptr) continue;
      records_in += runner->RecordsIn();
      records_out += runner->RecordsOut();
      peak_state += runner->PeakStateBytes();
      late += runner->LateDropped();
    }
    Samples source_lag, ingest_lag;
    for (const GaugeSample& g : driver->gauges()) {
      if (g.at_ms < s0 || g.at_ms >= s1) continue;
      source_lag.Add(static_cast<double>(g.source_lag));
      ingest_lag.Add(static_cast<double>(g.ingest_lag));
    }
    Samples tick_us = DurationsUs(SpansIn(ingest_log, "compute.tick", s0, s1));
    int64_t checkpoints = 0;
    for (const std::string& key : platform->store()->List("checkpoints/")) {
      if (key.find("/chk-") != std::string::npos) ++checkpoints;
    }
    metrics.Add("compute.emit_delay_p50_ms", emit_delay.Pct(50), "ms");
    metrics.Add("compute.emit_delay_p99_ms", emit_delay.Pct(99), "ms");
    metrics.Add("compute.source_lag_p99", source_lag.Pct(99), "count");
    metrics.Add("compute.records_out_per_in",
                Ratio(static_cast<double>(records_out), static_cast<double>(records_in)),
                "ratio");
    metrics.Add("compute.state_bytes_peak", static_cast<double>(peak_state), "bytes");
    metrics.Add("compute.tick_us_p50", tick_us.Pct(50), "us");
    metrics.Add("compute.tick_us_p99", tick_us.Pct(99), "us");
    metrics.Add("compute.checkpoints", static_cast<double>(checkpoints), "count");
    metrics.Add("compute.rescales", static_cast<double>(w->guards().rescales), "count");
    metrics.Add("compute.restarts", static_cast<double>(w->guards().restarts), "count");
    metrics.Add("compute.late_dropped", static_cast<double>(late), "count");
    // olap ingest
    std::vector<const Span*> ingest = SpansIn(ingest_log, "olap.ingest", s0, s1);
    Samples ingest_us = DurationsUs(ingest);
    int64_t ingested_rows = 0;
    for (const Span* s : ingest) ingested_rows += s->counts[0];
    std::map<std::string, int64_t> olap_counters = platform->olap()->metrics()->SnapshotValues();
    Result<int64_t> memory = platform->olap()->MemoryBytes(w->table());
    metrics.Add("olap.visible_delay_p50_ms", visible_delay.Pct(50), "ms");
    metrics.Add("olap.visible_delay_p99_ms", visible_delay.Pct(99), "ms");
    metrics.Add("olap.ingest_us_p50", ingest_us.Pct(50), "us");
    metrics.Add("olap.ingest_us_p99", ingest_us.Pct(99), "us");
    metrics.Add("olap.ingest_us_per_row",
                Ratio(ingest_us.Sum(), static_cast<double>(ingested_rows)), "us");
    metrics.Add("olap.ingest_busy_share", ingest_us.Sum() / steady_us, "ratio");
    metrics.Add("olap.ingest_lag_p99", ingest_lag.Pct(99), "count");
    metrics.Add("olap.segments_sealed",
                static_cast<double>(olap_counters["olap." + w->table() + ".segments_archived"] +
                                    platform->olap()->ArchivalQueueDepth(w->table())),
                "count");
    metrics.Add("olap.memory_bytes_end",
                memory.ok() ? static_cast<double>(memory.value()) : 0, "bytes");
    // olap query side: connector calls made under PrestoSQL
    std::vector<const Span*> olap_queries = SpansIn(query_log, "olap.query", s0, s1);
    std::vector<const Span*> scans = SpansIn(query_log, "olap.scan", s0, s1);
    Samples connector_us = DurationsUs(olap_queries);
    for (const Span* s : scans) connector_us.Add((s->end_ms - s->start_ms) * 1000.0);
    int64_t rows_scanned = 0, segs_scanned = 0, segs_pruned = 0;
    for (const Span* s : olap_queries) {
      rows_scanned += s->counts[0];
      segs_scanned += s->counts[1];
      segs_pruned += s->counts[2];
    }
    std::vector<const Span*> query_spans = SpansIn(query_log, "query", s0, s1);
    const double n_queries = static_cast<double>(query_spans.size());
    const double cache_hits = static_cast<double>(olap_counters["olap.result_cache.hits"]);
    const double cache_misses = static_cast<double>(olap_counters["olap.result_cache.misses"]);
    metrics.Add("olap.query_us_p50", connector_us.Pct(50), "us");
    metrics.Add("olap.query_us_p99", connector_us.Pct(99), "us");
    metrics.Add("olap.rows_scanned_per_query",
                Ratio(static_cast<double>(rows_scanned), n_queries), "count");
    metrics.Add("olap.pruned_ratio",
                Ratio(static_cast<double>(segs_pruned),
                      static_cast<double>(segs_scanned + segs_pruned)),
                "ratio");
    metrics.Add("olap.cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio");
    // sql: PrestoSQL's own time, the connector calls under it subtracted
    std::map<int64_t, double> child_ms;
    for (const Span& s : query_log.spans()) {
      if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
    }
    Samples sql_self_us;
    double rows_fetched = 0;
    for (const Span* s : query_spans) {
      sql_self_us.Add((s->end_ms - s->start_ms - child_ms[s->id]) * 1000.0);
      rows_fetched += static_cast<double>(s->counts[0]);
    }
    metrics.Add("sql.self_us_p50", sql_self_us.Pct(50), "us");
    metrics.Add("sql.self_us_p99", sql_self_us.Pct(99), "us");
    metrics.Add("sql.rows_fetched_per_query", Ratio(rows_fetched, n_queries), "count");
    // storage
    std::vector<const Span*> archive = SpansIn(ingest_log, "storage.archive", s0, s1);
    Samples archive_busy_us = DurationsUs(archive);
    Samples archive_us;
    for (const Span* s : archive) {
      if (s->counts[0] > 0) archive_us.Add((s->end_ms - s->start_ms) * 1000.0);
    }
    metrics.Add("storage.archive_us_p99", archive_us.Pct(99), "us");
    metrics.Add("storage.archive_busy_share", archive_busy_us.Sum() / steady_us, "ratio");
    metrics.Add("storage.bytes_end", static_cast<double>(platform->store()->TotalBytes()),
                "bytes");
    metrics.Add("storage.objects_end",
                static_cast<double>(platform->store()->List("").size()), "count");
    // common: the shared executor
    int64_t depth_max = 0;
    for (const auto& [at, depth] : queue_depth) {
      if (at >= s0 && at < s1) depth_max = std::max(depth_max, depth);
    }
    metrics.Add("executor.task_wait_us_p99", task_wait_p99, "us");
    metrics.Add("executor.busy_share",
                (run_us1 - run_us0) / (steady_us * static_cast<double>(kExecutorThreads)),
                "ratio");
    metrics.Add("executor.queue_depth_max", static_cast<double>(depth_max), "count");
    // harness
    const double steady_events =
        static_cast<double>((step1 - step0) * settings.events_per_step);
    const double cap_untraced = capacity[0].Pct(50);
    const double cap_traced = capacity[1].Pct(50);
    metrics.Add("harness.send_lag_p99_ms", send_lag_p99, "ms");
    metrics.Add("harness.cpu_us_per_event", Ratio((cpu1 - cpu0) * 1000.0, steady_events), "us");
    metrics.Add("harness.capacity_eps_traced", cap_traced, "1/s");
    metrics.Add("harness.trace_overhead", Ratio(cap_untraced - cap_traced, cap_untraced),
                "ratio");
    // Reconciliation: produce ack + emit delay + visible delay ~ freshness.
    const double stage_sum =
        produce_ack.Pct(50) + emit_delay.Pct(50) + visible_delay.Pct(50);
    const double fresh_p50 = freshness.Pct(50);
    metrics.Add("harness.produce_ack_p50_ms", produce_ack.Pct(50), "ms");
    metrics.Add("harness.stage_sum_p50_ms", stage_sum, "ms");
    metrics.Add("harness.freshness_p50_ms_traced", fresh_p50, "ms");
    if (std::fabs(stage_sum - fresh_p50) >
        std::max(kReconcileFloorMs, kReconcileTolerance * fresh_p50)) {
      problems.push_back("stage delays do not add up to freshness");
    }
    if (!args.spans_path.empty()) {
      Status written = WriteSpans(args.spans_path, {&ingest_log, &query_log});
      if (!written.ok()) problems.push_back(written.ToString());
    }
    (void)steady_ms;
  }

  for (const std::string& p : problems) std::printf("# invalid: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              problems.empty() ? "true" : "false", std::max<int64_t>(attempted, 1), failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 3;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload <dashboard_rollup|ops_raw|prediction_join> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  return pipebench::Run(args);
}
