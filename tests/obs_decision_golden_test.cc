// Golden rendering of sampled and shadowed decisions (DESIGN.md §8,
// §9): the exact audit JSON lines of an access_decision, a slow_query
// (with its phase suffix) and a shadow_mismatch, and the /tracez body
// that retains them. Every renderer of the Fig. 4 derivation, on
// whichever thread it runs, must keep these bytes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/resolve.h"
#include "core/strategy.h"
#include "obs/audit_log.h"
#include "obs/http_exporter.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "obs/trace.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if UCR_METRICS_ENABLED

class VectorSink : public AuditSink {
 public:
  explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
  void Write(std::string_view line) override { out_->emplace_back(line); }

 private:
  std::vector<std::string>* out_;
};

/// Drops the per-run `"seq":N,"ts_unix_ns":N,` stamps of an audit line.
std::string WithoutStamps(const std::string& line) {
  const size_t type = line.find("\"type\"");
  return type == std::string::npos ? line : "{" + line.substr(type);
}

TEST(ObsDecisionGoldenTest, AuditLinesAndTracezAreByteStable) {
  QueryTracer& tracer = QueryTracer::Global();
  ShadowVerifier& shadow = ShadowVerifier::Global();
  tracer.Clear();
  shadow.Clear();
  const uint64_t interval = tracer.sample_interval();
  tracer.SetSampleInterval(0);  // Only the hand-built record is traced.

  // Built before the log starts: its edits would log epoch bumps.
  core::PaperExample ex = core::MakePaperExample();
  std::vector<std::string> lines;
  AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(options)));

  // A 2.5 ms (slow) fast-path query that Fig. 4 settled on line 9 with
  // tied majority counters and a conflicting Auth set.
  QueryTraceRecord record;
  record.subject = 7;
  record.object = 3;
  record.right = 1;
  record.strategy_index = 21;
  record.fast_path = true;
  record.extract_ns = 1200;
  record.propagate_ns = 800;
  record.resolve_ns = 2'498'000;
  record.total_ns = 2'500'000;
  record.phases.ns[static_cast<size_t>(Phase::kExtract)] = 1200;
  record.phases.ns[static_cast<size_t>(Phase::kPropagate)] = 800;
  record.phases.ns[static_cast<size_t>(Phase::kResolve)] = 2'498'000;
  record.has_majority = true;
  record.c1 = 2;
  record.c2 = 2;
  record.auth_computed = true;
  record.auth_has_positive = true;
  record.auth_has_negative = true;
  record.returned_line = 9;
  record.granted = false;
  tracer.Record(record);

  // A genuine fast/oracle divergence on the paper's Fig. 1 query.
  shadow.SetPerturbOracleForTesting(true);
  shadow.SetInterval(1);
  core::ResolveAccessOptions resolve_options;
  resolve_options.use_fast_path = true;
  const auto mode = core::ResolveAccess(
      ex.dag, ex.eacm, ex.user, ex.obj, ex.read,
      core::ParseStrategy("D+LP-").value().Canonical(), resolve_options);
  shadow.SetInterval(0);
  shadow.SetPerturbOracleForTesting(false);
  ASSERT_TRUE(mode.ok());

  AuditLog::Global().Flush();
  AuditLog::Global().Stop();
  tracer.SetSampleInterval(interval);

  std::vector<std::string> stable;
  for (const std::string& line : lines) stable.push_back(WithoutStamps(line));
  const std::vector<std::string> expected = {
      "{\"type\":\"access_decision\",\"subject\":7,\"object\":3,"
      "\"right\":1,\"granted\":false,\"strategy_index\":21,"
      "\"latency_ns\":2500000}",
      "{\"type\":\"slow_query\",\"subject\":7,\"object\":3,\"right\":1,"
      "\"granted\":false,\"strategy_index\":21,\"latency_ns\":2500000,"
      "\"detail\":\"c1=2 c2=2 auth={+,-} line=9 -> '-' extract=1200ns "
      "propagate=800ns resolve=2498000ns\"}",
      "{\"type\":\"shadow_mismatch\",\"subject\":8,\"object\":0,"
      "\"right\":0,\"granted\":false,\"strategy_index\":21,"
      "\"detail\":\"fast=- oracle=+ | fast: c1=n/a c2=n/a auth={+,-} "
      "line=9 -> '-' | oracle: c1=n/a c2=n/a auth={+,-} line=9 -> '+'\"}",
  };
  EXPECT_EQ(stable, expected);

  std::string body;
  std::string content_type;
  int http_status = 0;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/tracez", &body, &content_type,
                                           &http_status));
  EXPECT_EQ(http_status, 200);
  EXPECT_EQ(
      body,
      "{\"traces\":[{\"sequence\":0,\"subject\":7,\"object\":3,"
      "\"right\":1,\"strategy_index\":21,\"fast_path\":true,"
      "\"resolution_cache_hit\":false,\"extract_ns\":1200,"
      "\"propagate_ns\":800,\"resolve_ns\":2498000,\"total_ns\":2500000,"
      "\"phases\":{\"cache_probe_ns\":0,\"extract_ns\":1200,"
      "\"propagate_ns\":800,\"compose_ns\":0,\"resolve_ns\":2498000,"
      "\"batch_assemble_ns\":0},\"fig4\":{\"c1\":2,\"c2\":2,"
      "\"auth\":\"+,-\",\"returned_line\":9,\"granted\":false}}],"
      "\"shadow_mismatches\":[{\"sequence\":0,\"subject\":8,"
      "\"object\":0,\"right\":0,\"strategy_index\":21,"
      "\"fast_granted\":false,\"oracle_granted\":true}]}");

  tracer.Clear();
  shadow.Clear();
}

#endif  // UCR_METRICS_ENABLED

// Every Auth state (n/a, {}, {-}, {+}, {+,-}) through the Table 3
// cells, the /tracez JSON cell and the Fig. 4 derivation text.
TEST(ObsDecisionGoldenTest, EveryAuthCellRendersTheSame) {
  struct Case {
    bool computed, positive, negative;
    int line;
    std::string table3, json_fig4, fig4;
  };
  const std::vector<Case> cases = {
      {false, false, false, 6, "n/a",
       "\"fig4\":{\"c1\":3,\"c2\":1,\"auth\":\"n/a\",\"returned_line\":6,"
       "\"granted\":true}}",
       "Resolve() derivation (paper Fig. 4):\n"
       "  lines 4-5: majority counters c1 = 3 ('+'), c2 = 1 ('-')\n"
       "  line 6:    strict majority decides -> '+'\n"},
      {true, false, false, 9, "{}",
       "\"fig4\":{\"c1\":3,\"c2\":1,\"auth\":\"{}\",\"returned_line\":9,"
       "\"granted\":true}}",
       "Resolve() derivation (paper Fig. 4):\n"
       "  lines 4-5: majority counters c1 = 3 ('+'), c2 = 1 ('-')\n"
       "  line 7:    Auth = {}\n"
       "  line 9:    preference rule settles the empty set -> '+'\n"},
      {true, false, true, 8, "-",
       "\"fig4\":{\"c1\":3,\"c2\":1,\"auth\":\"-\",\"returned_line\":8,"
       "\"granted\":true}}",
       "Resolve() derivation (paper Fig. 4):\n"
       "  lines 4-5: majority counters c1 = 3 ('+'), c2 = 1 ('-')\n"
       "  line 7:    Auth = {-}\n"
       "  line 8:    a single mode survives -> '+'\n"},
      {true, true, false, 8, "+",
       "\"fig4\":{\"c1\":3,\"c2\":1,\"auth\":\"+\",\"returned_line\":8,"
       "\"granted\":true}}",
       "Resolve() derivation (paper Fig. 4):\n"
       "  lines 4-5: majority counters c1 = 3 ('+'), c2 = 1 ('-')\n"
       "  line 7:    Auth = {+}\n"
       "  line 8:    a single mode survives -> '+'\n"},
      {true, true, true, 9, "+,-",
       "\"fig4\":{\"c1\":3,\"c2\":1,\"auth\":\"+,-\",\"returned_line\":9,"
       "\"granted\":true}}",
       "Resolve() derivation (paper Fig. 4):\n"
       "  lines 4-5: majority counters c1 = 3 ('+'), c2 = 1 ('-')\n"
       "  line 7:    Auth = {+,-}\n"
       "  line 9:    preference rule settles the conflict -> '+'\n"},
  };
  for (const Case& c : cases) {
    core::ResolveTrace trace;
    trace.auth_computed = c.computed;
    trace.auth_has_positive = c.positive;
    trace.auth_has_negative = c.negative;
    EXPECT_EQ(trace.AuthToString(), c.table3);
    EXPECT_EQ(trace.C1ToString(), "n/a");
    trace.c1 = 3;
    EXPECT_EQ(trace.C1ToString(), "3");

    QueryTraceRecord record;
    record.has_majority = true;
    record.c1 = 3;
    record.c2 = 1;
    record.auth_computed = c.computed;
    record.auth_has_positive = c.positive;
    record.auth_has_negative = c.negative;
    record.returned_line = c.line;
    record.granted = true;
    const std::string json = ToJson(record);
    EXPECT_EQ(json.substr(json.find("\"fig4\"")), c.json_fig4);
    EXPECT_EQ(ToFig4String(record), c.fig4);
  }
}

}  // namespace
}  // namespace ucr::obs
