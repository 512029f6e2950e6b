#include "common/fault_injector.h"

namespace uberrt::common {

namespace {

bool InOutage(const FaultRule& rule, TimestampMs now_ms) {
  for (const OutageWindow& window : rule.outages) {
    if (now_ms >= window.start_ms && now_ms < window.end_ms) return true;
  }
  return false;
}

}  // namespace

FaultInjector::FaultInjector(uint64_t seed, Clock* clock)
    : seed_(seed),
      clock_(clock),
      rng_(seed),
      checks_total_(metrics_.GetCounter("faults.checks")),
      injected_total_(metrics_.GetCounter("faults.injected")) {}

void FaultInjector::SetRule(const std::string& site, FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  RuleState& state = rules_[site];
  state.rule = std::move(rule);
  state.triggered = 0;
  has_rules_.store(!rules_.empty(), std::memory_order_release);
}

void FaultInjector::ClearRule(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.erase(site);
  has_rules_.store(!rules_.empty(), std::memory_order_release);
}

void FaultInjector::SetDown(const std::string& site, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[site].rule.down = down;
  has_rules_.store(!rules_.empty(), std::memory_order_release);
}

void FaultInjector::ScheduleOutage(const std::string& site,
                                   TimestampMs start_ms, TimestampMs end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_[site].rule.outages.push_back(OutageWindow{start_ms, end_ms});
  has_rules_.store(!rules_.empty(), std::memory_order_release);
}

std::vector<FaultInjector::RuleState*> FaultInjector::MatchingRulesLocked(
    const std::string& site) {
  std::vector<RuleState*> matches;
  // A rule applies when its site equals `site` or is a dot-prefix of it:
  // "store" matches "store.put"; "broker.produce" matches
  // "broker.produce.cluster-0"; "stor" matches nothing.
  for (auto& [name, state] : rules_) {
    if (name.size() > site.size()) continue;
    if (site.compare(0, name.size(), name) != 0) continue;
    if (name.size() < site.size() && site[name.size()] != '.') continue;
    matches.push_back(&state);
  }
  return matches;
}

Status FaultInjector::Check(const std::string& site) {
  checks_total_->Increment();
  if (!has_rules_.load(std::memory_order_acquire)) return Status::Ok();
  int64_t latency_ms = 0;
  Status injected = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TimestampMs now_ms = clock_->NowMs();
    for (RuleState* state : MatchingRulesLocked(site)) {
      const FaultRule& rule = state->rule;
      latency_ms += rule.added_latency_ms;
      if (injected.ok() && (rule.down || InOutage(rule, now_ms))) {
        injected = Status(rule.error_code, "injected outage at " + site);
      }
      if (injected.ok() && rule.error_probability > 0.0 &&
          (rule.max_triggers < 0 || state->triggered < rule.max_triggers) &&
          rng_.Chance(rule.error_probability)) {
        injected = Status(rule.error_code, "injected fault at " + site);
        state->triggered++;
      }
    }
  }
  if (latency_ms > 0) clock_->SleepMs(latency_ms);
  if (!injected.ok()) {
    injected_total_->Increment();
    metrics_.GetCounter("faults." + site + ".injected")->Increment();
  }
  return injected;
}

bool FaultInjector::IsDown(const std::string& site) const {
  bool down = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TimestampMs now_ms = clock_->NowMs();
    for (const auto& [name, state] : rules_) {
      if (name.size() > site.size()) continue;
      if (site.compare(0, name.size(), name) != 0) continue;
      if (name.size() < site.size() && site[name.size()] != '.') continue;
      if (state.rule.down || InOutage(state.rule, now_ms)) {
        down = true;
        break;
      }
    }
  }
  if (down) metrics_.GetCounter("faults." + site + ".unavailable")->Increment();
  return down;
}

}  // namespace uberrt::common
