#ifndef UBERRT_COMMON_FAULT_INJECTOR_H_
#define UBERRT_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"

namespace uberrt::common {

/// Half-open [start_ms, end_ms) window during which a site is unconditionally
/// down, evaluated against the injector's clock. Windows compose with the
/// probabilistic part of a rule: inside a window every check fails; outside,
/// `error_probability` applies.
struct OutageWindow {
  TimestampMs start_ms = 0;
  TimestampMs end_ms = 0;
};

/// Failure behaviour attached to one site (or site prefix — see
/// FaultInjector::Check for the prefix-matching rules).
struct FaultRule {
  /// Probability in [0, 1] that a check returns `error_code`.
  double error_probability = 0.0;
  /// Status code injected failures carry.
  StatusCode error_code = StatusCode::kUnavailable;
  /// Latency added to every check that matches this rule, injected via the
  /// injector's clock (so SimulatedClock-based tests stay instant).
  int64_t added_latency_ms = 0;
  /// Scripted outage schedule: the site is hard-down inside any window.
  std::vector<OutageWindow> outages;
  /// Unconditional kill switch (a whole-component outage).
  bool down = false;
  /// If >= 0, the rule stops firing after this many injected faults. A value
  /// of 1 makes a one-shot fault (e.g. crash a job exactly once).
  int64_t max_triggers = -1;
};

/// Process-wide, deterministic fault plane. Components ask it, per named
/// site, whether an operation should fail and with what; tests and benches
/// script failures against it instead of poking per-component toggles.
///
/// Sites are dot-separated hierarchical names, e.g. "store.put",
/// "broker.produce.cluster-0", "olap.server.query.2", "region.dca". A rule
/// registered on a prefix applies to every site under it: SetDown("store")
/// downs "store.put", "store.get", ... — which is what lets the short names
/// from the design doc act as wildcards over per-instance sites.
///
/// Determinism: all randomness comes from one seeded Rng, consumed under the
/// injector's mutex, and all time comes from the injected Clock. The same
/// seed + schedule + operation sequence yields the same faults.
///
/// Thread safety: all methods are safe to call concurrently. Injected
/// latency is applied after the internal lock is released so a slow site
/// never blocks rule updates or checks on other sites.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 42,
                         Clock* clock = SystemClock::Instance());

  /// Installs (or replaces) the rule for `site`.
  void SetRule(const std::string& site, FaultRule rule);

  /// Removes the rule for `site` (no-op when absent). Rules on other
  /// prefixes of the same site are unaffected.
  void ClearRule(const std::string& site);

  /// Convenience kill switch: marks `site` hard-down (or back up) without
  /// disturbing the rest of its rule.
  void SetDown(const std::string& site, bool down);

  /// Appends a scripted outage window [start_ms, end_ms) to `site`'s rule.
  void ScheduleOutage(const std::string& site, TimestampMs start_ms,
                      TimestampMs end_ms);

  /// The per-operation hook: returns Ok when the operation should proceed,
  /// or the injected error. Applies the added latency of every matching
  /// rule. Components call this at the top of the guarded operation.
  Status Check(const std::string& site);

  /// Pure availability probe: true when `site` is hard-down or inside an
  /// outage window. Consumes no randomness and injects no latency — for
  /// boolean-shaped paths (Exists/List) and health checks.
  bool IsDown(const std::string& site) const;

  /// Counters: "faults.injected" (total), "faults.checks" (total), and
  /// per-site "faults.<site>.injected".
  MetricsRegistry* metrics() const { return &metrics_; }

  uint64_t seed() const { return seed_; }
  Clock* clock() const { return clock_; }

 private:
  struct RuleState {
    FaultRule rule;
    int64_t triggered = 0;  // injected faults charged against max_triggers
  };

  /// Collects every rule whose site is `site` itself or a dot-prefix of it.
  std::vector<RuleState*> MatchingRulesLocked(const std::string& site);

  const uint64_t seed_;
  Clock* const clock_;
  mutable std::mutex mu_;
  Rng rng_;                                // guarded by mu_
  std::map<std::string, RuleState> rules_;  // guarded by mu_
  /// !rules_.empty(), stored under mu_ by every rule change: Check on a
  /// fault plane with no rules (every produce, normally) takes no lock.
  std::atomic<bool> has_rules_{false};
  mutable MetricsRegistry metrics_;
  Counter* checks_total_;
  Counter* injected_total_;
};

}  // namespace uberrt::common

#endif  // UBERRT_COMMON_FAULT_INJECTOR_H_
