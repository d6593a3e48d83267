#include "obs/health.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/audit_log.h"

namespace ucr::obs {

std::string_view HealthStatusName(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk: return "ok";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kFailing: return "failing";
  }
  return "unknown";
}

std::vector<HealthRule> DefaultHealthRules() {
  using Signal = HealthRule::Signal;
  std::vector<HealthRule> rules;
  // Correctness first: one shadow divergence means the optimized
  // engine disagreed with the paper's Fig. 4 oracle. Never acceptable.
  rules.push_back({"shadow_mismatch_rate", "ucr_shadow_mismatch_total",
                   Signal::kCounterRate, /*degraded_at=*/-1.0,
                   /*failing_at=*/0.0, /*window=*/30,
                   "Fast-path decisions diverging from the classic oracle "
                   "(any is a correctness bug)"});
  rules.push_back({"audit_drop_rate", "ucr_audit_dropped_total",
                   Signal::kCounterRate, /*degraded_at=*/0.0,
                   /*failing_at=*/100.0, /*window=*/30,
                   "Audit events dropped by ring backpressure (the trail "
                   "has holes)"});
  rules.push_back({"reach_fallback_rate",
                   "ucr_reach_traversal_fallbacks_total",
                   Signal::kCounterRate, /*degraded_at=*/1.0,
                   /*failing_at=*/-1.0, /*window=*/30,
                   "Reachability-index misses served by full traversal "
                   "(index stale or overwhelmed)"});
  rules.push_back({"publish_wait_p99", "ucr_epoch_publish_wait_ns",
                   Signal::kHistogramP99, /*degraded_at=*/1e7,
                   /*failing_at=*/1e8, /*window=*/30,
                   "Epoch snapshot publication wait p99 (writers starving "
                   "behind readers)"});
  rules.push_back({"slow_query_rate", "ucr_slow_queries_total",
                   Signal::kCounterRate, /*degraded_at=*/0.0,
                   /*failing_at=*/100.0, /*window=*/30,
                   "Tracer-sampled queries over the slow-query latency "
                   "threshold"});
  return rules;
}

HealthEngine& HealthEngine::Global() {
  // Leaked on purpose, like Registry::Global.
  static HealthEngine* global = new HealthEngine();
  return *global;
}

void HealthEngine::SetRules(std::vector<HealthRule> rules) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_ = std::move(rules);
  rules_set_ = true;
}

std::vector<HealthRule> HealthEngine::rules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_set_ ? rules_ : DefaultHealthRules();
}

#if UCR_METRICS_ENABLED

namespace {

struct HealthMetrics {
  Counter& transitions;
  Gauge& status;
};

HealthMetrics& GetHealthMetrics() {
  static HealthMetrics* metrics = new HealthMetrics{
      Registry::Global().GetCounter(
          "ucr_health_transitions_total",
          "Health verdict changes (ok|degraded|failing)"),
      Registry::Global().GetGauge(
          "ucr_health_status",
          "Current health verdict (0 ok, 1 degraded, 2 failing)")};
  return *metrics;
}

/// Rates are per second of *covered* interval: `points` tier-0 points
/// at the sampler cadence, clamped so a single retained point still
/// divides by a full interval.
double CoveredSeconds(size_t points) {
  const uint64_t interval_ms =
      std::max<uint64_t>(1, TimeSeriesSampler::Global().options().interval_ms);
  return static_cast<double>(std::max<size_t>(1, points)) *
         (static_cast<double>(interval_ms) / 1000.0);
}

}  // namespace

HealthRuleResult HealthEngine::EvaluateRule(const HealthRule& rule) const {
  HealthRuleResult result;
  result.name = rule.name;
  const std::vector<TimeSeriesSampler::Point> points =
      TimeSeriesSampler::Global().Recent(rule.metric, rule.window);
  result.points = points.size();
  switch (rule.signal) {
    case HealthRule::Signal::kCounterRate: {
      uint64_t total = 0;
      for (const auto& p : points) total += p.delta;
      result.value = static_cast<double>(total) / CoveredSeconds(points.size());
      break;
    }
    case HealthRule::Signal::kGaugeValue:
      result.value =
          points.empty() ? 0.0 : static_cast<double>(points.back().value);
      break;
    case HealthRule::Signal::kHistogramP99: {
      uint64_t worst = 0;
      for (const auto& p : points) worst = std::max(worst, p.p99);
      result.value = static_cast<double>(worst);
      break;
    }
  }
  if (rule.failing_at >= 0.0 && result.value > rule.failing_at) {
    result.status = HealthStatus::kFailing;
  } else if (rule.degraded_at >= 0.0 && result.value > rule.degraded_at) {
    result.status = HealthStatus::kDegraded;
  }
  if (result.status != HealthStatus::kOk) {
    const double threshold = result.status == HealthStatus::kFailing
                                 ? rule.failing_at
                                 : rule.degraded_at;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s: %s = %.6g > %.6g over %zu points",
                  rule.name.c_str(), rule.metric.c_str(), result.value,
                  threshold, result.points);
    result.reason = buf;
  }
  return result;
}

HealthVerdict HealthEngine::Evaluate() {
  const std::vector<HealthRule> active = rules();
  HealthVerdict verdict;
  verdict.sampler_tick = TimeSeriesSampler::Global().ticks_total();
  verdict.rules.reserve(active.size());
  for (const HealthRule& rule : active) {
    HealthRuleResult result = EvaluateRule(rule);
    verdict.status = std::max(verdict.status, result.status);
    verdict.rules.push_back(std::move(result));
  }

  HealthStatus previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = verdict_.status;
    verdict_ = verdict;
  }
  GetHealthMetrics().status.Set(static_cast<int64_t>(verdict.status));
  if (previous != verdict.status) {
    transitions_.fetch_add(1, std::memory_order_relaxed);
    GetHealthMetrics().transitions.Inc();
    if (AuditLog::Enabled()) {
      AuditEvent event;
      event.type = AuditEventType::kHealthTransition;
      // Name the worst offender so the audit line alone explains the
      // flap; recovery transitions carry just the status change.
      const HealthRuleResult* worst = nullptr;
      for (const HealthRuleResult& r : verdict.rules) {
        if (r.status == verdict.status && r.status != HealthStatus::kOk) {
          worst = &r;
          break;
        }
      }
      std::snprintf(event.detail, sizeof(event.detail), "%s -> %s%s%s",
                    std::string(HealthStatusName(previous)).c_str(),
                    std::string(HealthStatusName(verdict.status)).c_str(),
                    worst != nullptr ? ": " : "",
                    worst != nullptr ? worst->reason.c_str() : "");
      AuditLog::Global().Emit(event);
    }
  }
  return verdict;
}

#else  // !UCR_METRICS_ENABLED

HealthRuleResult HealthEngine::EvaluateRule(const HealthRule& rule) const {
  HealthRuleResult result;
  result.name = rule.name;
  return result;
}

HealthVerdict HealthEngine::Evaluate() { return HealthVerdict{}; }

#endif  // UCR_METRICS_ENABLED

HealthVerdict HealthEngine::last_verdict() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verdict_;
}

std::string HealthEngine::RenderJson() const {
  const HealthVerdict verdict = last_verdict();
  std::ostringstream out;
  out << "{\"status\":\"" << HealthStatusName(verdict.status)
      << "\",\"sampler_tick\":" << verdict.sampler_tick
      << ",\"transitions\":" << transitions_total() << ",\"rules\":[";
  bool first = true;
  for (const HealthRuleResult& r : verdict.rules) {
    out << (first ? "" : ",") << "{\"name\":\"" << r.name << "\",\"status\":\""
        << HealthStatusName(r.status) << "\",\"value\":" << r.value
        << ",\"points\":" << r.points;
    first = false;
    if (!r.reason.empty()) {
      out << ",\"reason\":\"";
      for (const char c : r.reason) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
      }
      out << "\"";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

void HealthEngine::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  rules_set_ = false;
  verdict_ = HealthVerdict{};
  transitions_.store(0, std::memory_order_relaxed);
}

}  // namespace ucr::obs
