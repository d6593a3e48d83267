#ifndef UCR_OBS_HEALTH_H_
#define UCR_OBS_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/timeseries.h"

namespace ucr::obs {

/// Aggregate verdict, ordered by severity so rule results combine with
/// max().
enum class HealthStatus : uint8_t {
  kOk = 0,
  kDegraded = 1,
  kFailing = 2,
};

/// "ok" | "degraded" | "failing".
std::string_view HealthStatusName(HealthStatus status);

/// \brief One declarative health rule over a retained time series.
///
/// A rule reduces the newest `window` tier-0 points of `metric` to a
/// single value (a per-second rate for counters, the latest value for
/// gauges, the window-max interval p99 for histograms) and compares it
/// against two thresholds. Strictly-greater comparison; a negative
/// threshold disables that level, so `failing_at = 0` is the idiom for
/// "any occurrence fails" (the paper's correctness signals — e.g. one
/// shadow divergence — are never acceptable).
struct HealthRule {
  enum class Signal : uint8_t {
    kCounterRate = 0,  ///< Sum of deltas / covered seconds.
    kGaugeValue,       ///< Latest retained value.
    kHistogramP99,     ///< Max interval p99 over the window (ns).
  };

  std::string name;    ///< Rule id, e.g. "shadow_mismatch_rate".
  std::string metric;  ///< Series name, e.g. "ucr_shadow_mismatch_total".
  Signal signal = Signal::kCounterRate;
  double degraded_at = -1.0;  ///< value > this → degraded; < 0 disables.
  double failing_at = -1.0;   ///< value > this → failing; < 0 disables.
  size_t window = 30;         ///< Tier-0 points to aggregate.
  std::string help;           ///< Operator-facing one-liner.
};

/// One evaluated rule.
struct HealthRuleResult {
  std::string name;
  HealthStatus status = HealthStatus::kOk;
  double value = 0.0;
  size_t points = 0;    ///< Retained points the value was computed from.
  std::string reason;   ///< Non-empty when status != ok.
};

/// One full evaluation.
struct HealthVerdict {
  HealthStatus status = HealthStatus::kOk;
  uint64_t sampler_tick = 0;  ///< Sampler tick at evaluation time.
  std::vector<HealthRuleResult> rules;
};

/// The shipped rule set (DESIGN.md §13): shadow-mismatch rate (any →
/// failing), audit-ring drop rate, reachability traversal-fallback
/// rate, epoch publish-wait p99, and tracer slow-query rate.
std::vector<HealthRule> DefaultHealthRules();

/// \brief Evaluator turning retained telemetry into a live
/// ok|degraded|failing verdict with per-rule reasons.
///
/// The global `TimeSeriesSampler` evaluates it at the end of every
/// tick, right after publishing that tick's points — the only moment a
/// rule's inputs change — so it needs no thread or cadence of its own.
/// The verdict feeds `/healthz` (non-200 on failing), `/varz`, and
/// `ucr_admin top`. Every verdict
/// change increments `ucr_health_transitions_total`, updates the
/// `ucr_health_status` gauge, and emits a `kHealthTransition` audit
/// event naming the worst rule — health flaps end up in the same
/// tamper-evident stream as the decisions they explain.
class HealthEngine {
 public:
  /// The process-wide engine (leaked, like `Registry::Global`).
  static HealthEngine& Global();

  HealthEngine() = default;
  HealthEngine(const HealthEngine&) = delete;
  HealthEngine& operator=(const HealthEngine&) = delete;

  /// Replaces the rule set (defaults to `DefaultHealthRules`).
  void SetRules(std::vector<HealthRule> rules);
  std::vector<HealthRule> rules() const;

  /// Evaluates every rule now (what each sampler tick does). Updates
  /// the retained verdict and emits transition effects.
  HealthVerdict Evaluate();

  /// The most recent verdict (default-ok before any evaluation).
  HealthVerdict last_verdict() const;

  /// Verdict changes since process start.
  uint64_t transitions_total() const {
    return transitions_.load(std::memory_order_relaxed);
  }

  /// {"status":"ok","sampler_tick":N,"rules":[...]} for `/healthz` and
  /// `/varz`.
  std::string RenderJson() const;

  /// Restores default rules and the ok verdict (tests). Must not run
  /// concurrently with a running sampler.
  void ResetForTesting();

 private:
  HealthRuleResult EvaluateRule(const HealthRule& rule) const;

  std::atomic<uint64_t> transitions_{0};

  mutable std::mutex mu_;  ///< Guards rules_ and verdict_ (control path).
  bool rules_set_ = false;
  std::vector<HealthRule> rules_;
  HealthVerdict verdict_;
};

}  // namespace ucr::obs

#endif  // UCR_OBS_HEALTH_H_
