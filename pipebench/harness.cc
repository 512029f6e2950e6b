#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "pipebench.h"

namespace pipebench {

double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Pct(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string Samples::Json() const {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", values_[i]);
    out += buf;
  }
  return out + "]";
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  Span span;
  span.id = log_->next_id_++;
  span.parent = log_->current_;
  span.name = name;
  span.start_ms = NowMs();
  index_ = log_->spans_.size();
  saved_parent_ = log_->current_;
  log_->current_ = span.id;
  log_->spans_.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ms = NowMs();
  log_->current_ = saved_parent_;
}

void ScopedSpan::set_count(size_t i, int64_t value) {
  if (log_ != nullptr) log_->spans_[index_].counts[i] = value;
}

Status WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Unavailable("cannot write " + path);
  std::fprintf(out, "id\tparent\tname\tstart_ms\tend_ms\tcount0\tcount1\tcount2\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(out, "%lld\t%lld\t%s\t%.4f\t%.4f\t%lld\t%lld\t%lld\n",
                   static_cast<long long>(s.id), static_cast<long long>(s.parent), s.name,
                   s.start_ms, s.end_ms, static_cast<long long>(s.counts[0]),
                   static_cast<long long>(s.counts[1]), static_cast<long long>(s.counts[2]));
    }
  }
  return std::fclose(out) == 0 ? Status::Ok() : Status::Unavailable("cannot close " + path);
}

Result<std::vector<Row>> TimingConnector::Scan(
    const std::vector<uberrt::olap::FilterPredicate>& filters,
    const std::vector<std::string>& columns) {
  ScopedSpan span(log_, "olap.scan");
  Result<std::vector<Row>> rows = inner_->Scan(filters, columns);
  if (rows.ok()) span.set_count(0, static_cast<int64_t>(rows.value().size()));
  return rows;
}

Result<uberrt::olap::OlapResult> TimingConnector::ExecuteOlap(
    const uberrt::olap::OlapQuery& query) {
  ScopedSpan span(log_, "olap.query");
  Result<uberrt::olap::OlapResult> result = inner_->ExecuteOlap(query);
  if (result.ok()) {
    const uberrt::olap::OlapQueryStats& stats = result.value().stats;
    span.set_count(0, stats.rows_scanned);
    span.set_count(1, stats.segments_scanned);
    span.set_count(2, stats.segments_pruned);
  }
  return result;
}

Status Pump(uberrt::core::RealtimePlatform* platform, const std::string& table,
            SpanLog* log) {
  if (log == nullptr) return platform->PumpOnce();
  ScopedSpan pump(log, "pump");
  Result<int64_t> ingested = int64_t{0};
  {
    ScopedSpan span(log, "olap.ingest");
    ingested = platform->olap()->IngestOnce(table);
    if (ingested.ok()) span.set_count(0, ingested.value());
  }
  if (!ingested.ok()) return ingested.status();
  {
    ScopedSpan span(log, "storage.archive");
    Result<int64_t> archived = platform->olap()->DrainArchivalQueue(table);
    if (archived.ok()) span.set_count(0, archived.value());
  }
  ScopedSpan span(log, "compute.tick");
  return platform->jobs()->Tick();
}

// --- IngestDriver ------------------------------------------------------------

double IngestDriver::DueOf(int64_t k) const {
  if (burst_end_ >= 0) return burst_due_ms_;
  return rate_base_ms_ +
         static_cast<double>(k - rate_base_step_) * 1000.0 / w_->settings().steps_per_s;
}

void IngestDriver::ScheduleRate(double now_ms) {
  pump_grid_ms_ = now_ms;
  next_pump_ms_ = now_ms;
  burst_end_ = -1;
  rate_base_ms_ = now_ms;
  rate_base_step_ = next_step_;
}

void IngestDriver::ScheduleBurst(int64_t steps, double now_ms) {
  const int64_t window = w_->settings().window_ms;
  if (window > 0) {
    int64_t ts = TsOf(next_step_);
    ts_base_ = (ts + window - 1) / window * window;
    ts_base_step_ = next_step_;
  }
  burst_due_ms_ = now_ms;
  burst_end_ = next_step_ + steps;
}

bool IngestDriver::RunUntil(const std::function<bool()>& done, double deadline_ms) {
  while (true) {
    if (done()) return true;
    double now = NowMs();
    if (now >= deadline_ms) return false;
    int64_t budget = kMaxStepsPerIteration;
    const bool bursting = burst_end_ >= 0 && next_step_ < burst_end_;
    if (bursting) {
      const int64_t room = kBacklogCap - w_->Backlog();
      budget = std::clamp<int64_t>(room / w_->settings().events_per_step, 0, budget);
    }
    int64_t produced = 0;
    while (produced < budget && (burst_end_ < 0 || next_step_ < burst_end_)) {
      double due = DueOf(next_step_);
      double start = NowMs();
      if (due > start) break;
      if (due >= lag_from_ms_ && due < lag_to_ms_) send_lag_ms_.Add(start - due);
      last_ts_ = TsOf(next_step_);
      Status s = w_->ProduceStep(last_ts_, due, log_);
      if (!s.ok() && first_error_.ok()) first_error_ = s;
      ++next_step_;
      ++produced;
    }
    w_->Poll(log_);
    now = NowMs();
    // Once a burst is all produced, the driver pumps as soon as rows reach the
    // table's topic, so the burst's end is not rounded up to the pump grid.
    const bool burst_tail = burst_end_ >= 0 && next_step_ >= burst_end_;
    if (now >= next_pump_ms_ || w_->IngestBacklogged() ||
        (burst_tail && w_->HasUnpumped())) {
      next_pump_ms_ = pump_grid_ms_ +
                      (std::floor((now - pump_grid_ms_) / kPumpIntervalMs) + 1) * kPumpIntervalMs;
      Status s = w_->PumpAndTrack(log_);
      if (!s.ok() && first_error_.ok()) first_error_ = s;
      if (after_pump_) after_pump_();
      if (now - last_gauge_ms_ >= kGaugeIntervalMs) {
        last_gauge_ms_ = now;
        int64_t ingest_lag = w_->IngestLag();
        w_->VerifyMirror(ingest_lag);
        gauges_.push_back({now, w_->SourceLag(), ingest_lag});
      }
      continue;
    }
    if (produced > 0) continue;
    double next = next_pump_ms_;
    if (burst_end_ < 0) next = std::min(next, DueOf(next_step_));
    if (bursting) next = std::min(next, now + kBacklogWaitMs);
    double wait_ms = std::min(next - NowMs(), 1.0);
    if (wait_ms > 0.02) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait_ms));
    }
  }
}

}  // namespace pipebench
