// Tests for the declarative health engine (src/obs/health.h,
// DESIGN.md §13): rule evaluation over the telemetry timeline,
// ok|degraded|failing verdicts with per-rule reasons, transition audit
// events, and the end-to-end acceptance path — a perturbed shadow
// oracle drives real mismatches through the sampler and flips
// /healthz to 503 naming the failing rule.

#include "obs/health.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/resolve.h"
#include "core/strategy.h"
#include "obs/audit_log.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/shadow.h"
#include "obs/timeseries.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

TEST(ObsHealthTest, DisabledBuildStaysOkWithoutAVerdict) {
  TimeSeriesSampler::Global().TickOnceForTesting();
  EXPECT_EQ(HealthEngine::Global().Evaluate().status, HealthStatus::kOk);
  EXPECT_TRUE(HealthEngine::Global().last_verdict().rules.empty());
}

#else

/// Captures audit events into a vector (same idiom as
/// obs_audit_log_test).
class VectorSink : public AuditSink {
 public:
  explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
  void Write(std::string_view line) override { out_->emplace_back(line); }

 private:
  std::vector<std::string>* out_;
};

class ObsHealthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TimeSeriesSampler::Global().ResetForTesting();
    HealthEngine::Global().ResetForTesting();
  }
  void TearDown() override {
    HealthEngine::Global().ResetForTesting();
    TimeSeriesSampler::Global().ResetForTesting();
  }
};

TEST_F(ObsHealthTest, DefaultRulesReportOkOnQuietSeries) {
  TimeSeriesSampler::Global().TickOnceForTesting();  // Prime.
  TimeSeriesSampler::Global().TickOnceForTesting();
  const HealthVerdict verdict = HealthEngine::Global().Evaluate();
  EXPECT_EQ(verdict.status, HealthStatus::kOk);
  EXPECT_EQ(verdict.rules.size(), DefaultHealthRules().size());
  for (const HealthRuleResult& rule : verdict.rules) {
    EXPECT_EQ(rule.status, HealthStatus::kOk) << rule.reason;
  }
  EXPECT_EQ(std::string(HealthStatusName(verdict.status)), "ok");
}

TEST_F(ObsHealthTest, ShadowMismatchCounterFlipsVerdictToFailing) {
  Counter& mismatches = Registry::Global().GetCounter(
      "ucr_shadow_mismatch_total", "");
  TimeSeriesSampler::Global().TickOnceForTesting();  // Prime.
  mismatches.Inc();
  TimeSeriesSampler::Global().TickOnceForTesting();

  const HealthVerdict verdict = HealthEngine::Global().Evaluate();
  EXPECT_EQ(verdict.status, HealthStatus::kFailing);
  bool named = false;
  for (const HealthRuleResult& rule : verdict.rules) {
    if (rule.name != "shadow_mismatch_rate") continue;
    EXPECT_EQ(rule.status, HealthStatus::kFailing);
    EXPECT_NE(rule.reason.find("shadow_mismatch_rate"), std::string::npos);
    EXPECT_NE(rule.reason.find("ucr_shadow_mismatch_total"),
              std::string::npos);
    named = true;
  }
  EXPECT_TRUE(named);
  const std::string json = HealthEngine::Global().RenderJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"status\":\"failing\""), std::string::npos);
}

TEST_F(ObsHealthTest, DegradedThresholdSitsBelowFailing) {
  Counter& drops = Registry::Global().GetCounter(
      "ucr_test_health_drops_total", "health threshold test");
  HealthRule rule;
  rule.name = "test_drop_rate";
  rule.metric = "ucr_test_health_drops_total";
  rule.signal = HealthRule::Signal::kCounterRate;
  rule.degraded_at = 0;    // Any drop degrades...
  rule.failing_at = 1000;  // ...but only a flood fails.
  HealthEngine::Global().SetRules({rule});

  TimeSeriesSampler::Global().TickOnceForTesting();  // Prime.
  drops.Inc(3);
  TimeSeriesSampler::Global().TickOnceForTesting();
  EXPECT_EQ(HealthEngine::Global().Evaluate().status,
            HealthStatus::kDegraded);

  drops.Inc(100'000'000);  // Overwhelms the rate over the window.
  TimeSeriesSampler::Global().TickOnceForTesting();
  EXPECT_EQ(HealthEngine::Global().Evaluate().status,
            HealthStatus::kFailing);
}

TEST_F(ObsHealthTest, TransitionsEmitAuditEventsAndRecover) {
  Counter& mismatches = Registry::Global().GetCounter(
      "ucr_shadow_mismatch_total", "");
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  const uint64_t before = HealthEngine::Global().transitions_total();
  TimeSeriesSampler::Global().TickOnceForTesting();  // Prime.
  TimeSeriesSampler::Global().TickOnceForTesting();
  HealthEngine::Global().Evaluate();  // ok — no transition yet.

  mismatches.Inc();
  TimeSeriesSampler::Global().TickOnceForTesting();
  EXPECT_EQ(HealthEngine::Global().Evaluate().status,
            HealthStatus::kFailing);

  // The mismatch ages out of the per-interval deltas: recovery.
  const size_t window = DefaultHealthRules()[0].window;
  for (size_t i = 0; i <= window; ++i) {
    TimeSeriesSampler::Global().TickOnceForTesting();
  }
  EXPECT_EQ(HealthEngine::Global().Evaluate().status, HealthStatus::kOk);
  EXPECT_EQ(HealthEngine::Global().transitions_total(), before + 2);

  AuditLog::Global().Flush();
  AuditLog::Global().Stop();
  size_t transitions_logged = 0;
  bool failing_named_rule = false;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"health_transition\"") == std::string::npos) {
      continue;
    }
    ++transitions_logged;
    if (line.find("-> failing") != std::string::npos &&
        line.find("shadow_mismatch_rate") != std::string::npos) {
      failing_named_rule = true;
    }
  }
  EXPECT_EQ(transitions_logged, 2u);  // ok -> failing -> ok.
  EXPECT_TRUE(failing_named_rule);
}

// The global sampler evaluates health at the end of every tick, so the
// verdict is always the one for the newest points, and a rule that
// crosses its threshold on a tick emits exactly one transition event.
TEST_F(ObsHealthTest, SamplerTickEvaluatesHealth) {
  Counter& mismatches = Registry::Global().GetCounter(
      "ucr_shadow_mismatch_total", "");
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  TimeSeriesSampler& sampler = TimeSeriesSampler::Global();
  sampler.TickOnceForTesting();  // Prime.
  sampler.TickOnceForTesting();
  HealthVerdict verdict = HealthEngine::Global().last_verdict();
  EXPECT_EQ(verdict.sampler_tick, sampler.ticks_total());
  EXPECT_EQ(verdict.status, HealthStatus::kOk);
  EXPECT_EQ(verdict.rules.size(), DefaultHealthRules().size());

  mismatches.Inc();
  sampler.TickOnceForTesting();
  verdict = HealthEngine::Global().last_verdict();
  EXPECT_EQ(verdict.sampler_tick, sampler.ticks_total());
  EXPECT_EQ(verdict.status, HealthStatus::kFailing);

  AuditLog::Global().Flush();
  AuditLog::Global().Stop();
  size_t transitions_logged = 0;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"health_transition\"") == std::string::npos) {
      continue;
    }
    ++transitions_logged;
    EXPECT_NE(line.find("ok -> failing: shadow_mismatch_rate"),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(transitions_logged, 1u);
}

// Acceptance: a perturbed shadow oracle produces genuine divergences on
// the fast-path serving route; the sampler turns them into a rate; the
// health engine fails the shadow_mismatch_rate rule; /healthz answers
// 503 and names the rule in the body.
TEST_F(ObsHealthTest, PerturbedOracleDrivesHealthzTo503) {
  core::PaperExample ex = core::MakePaperExample();

  TimeSeriesSampler::Global().TickOnceForTesting();  // Prime.

  ShadowVerifier& shadow = ShadowVerifier::Global();
  shadow.SetPerturbOracleForTesting(true);
  shadow.SetInterval(1);  // Verify every query.
  const uint64_t before = Registry::Global()
                              .GetCounter("ucr_shadow_mismatch_total", "")
                              .Value();
  core::ResolveAccessOptions options;
  options.use_fast_path = true;
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(core::ResolveAccess(ex.dag, ex.eacm, ex.user, ex.obj,
                                    ex.read, strategy.Canonical(), options)
                    .ok());
  }
  shadow.SetInterval(0);
  shadow.SetPerturbOracleForTesting(false);
  ASSERT_GT(Registry::Global()
                .GetCounter("ucr_shadow_mismatch_total", "")
                .Value(),
            before)
      << "perturbed oracle produced no divergence";

  TimeSeriesSampler::Global().TickOnceForTesting();
  const HealthVerdict verdict = HealthEngine::Global().Evaluate();
  ASSERT_EQ(verdict.status, HealthStatus::kFailing);

  std::string body;
  std::string content_type;
  int http_status = 0;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/healthz", &body, &content_type,
                                           &http_status));
  EXPECT_EQ(http_status, 503);
  EXPECT_EQ(content_type, "application/json");
  EXPECT_TRUE(JsonLooksValid(body)) << body;
  EXPECT_NE(body.find("\"status\":\"failing\""), std::string::npos) << body;
  EXPECT_NE(body.find("shadow_mismatch_rate"), std::string::npos) << body;

  // Other endpoints keep answering 200 while health is failing.
  int metrics_status = 0;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/metrics", &body, &content_type,
                                           &metrics_status));
  EXPECT_EQ(metrics_status, 200);
}

TEST_F(ObsHealthTest, HealthzStaysLegacyOkBeforeFirstEvaluation) {
  // Until a sampler tick (or a direct evaluation) produces a verdict,
  // /healthz keeps its plain-text liveness contract.
  std::string body;
  std::string content_type;
  int http_status = 0;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/healthz", &body, &content_type,
                                           &http_status));
  EXPECT_EQ(body, "ok\n");
  EXPECT_EQ(http_status, 200);
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
