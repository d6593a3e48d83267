// Tests for the sampling query tracer (src/obs/trace.h, DESIGN.md §8):
// sampling cadence, ring-buffer retention, and — the audit-grade
// property — that a sampled trace of the paper's worked example
// reproduces the Fig. 4 derivation exactly, for every canonical
// strategy.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/resolve.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED
TEST(ObsTraceTest, DisabledBuildNeverSamples) {
  QueryTracer& tracer = QueryTracer::Global();
  tracer.SetSampleInterval(1);
  EXPECT_FALSE(tracer.ShouldSample());
}
#else

// ShouldSample keeps per-thread countdown state; one call at interval
// 1 always samples and resets the countdown, making what follows
// deterministic regardless of earlier tests on this thread.
void ResetSamplingState(QueryTracer& tracer) {
  tracer.SetSampleInterval(1);
  ASSERT_TRUE(tracer.ShouldSample());
}

TEST(ObsTraceTest, SamplesEveryNthQueryPerThread) {
  QueryTracer& tracer = QueryTracer::Global();
  ResetSamplingState(tracer);

  tracer.SetSampleInterval(3);
  const std::vector<bool> expected = {false, false, true,
                                      false, false, true};
  for (const bool want : expected) {
    EXPECT_EQ(tracer.ShouldSample(), want);
  }
  tracer.SetSampleInterval(QueryTracer::kDefaultInterval);
}

TEST(ObsTraceTest, IntervalZeroDisablesSampling) {
  QueryTracer& tracer = QueryTracer::Global();
  ResetSamplingState(tracer);
  tracer.SetSampleInterval(0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(tracer.ShouldSample());
  tracer.SetSampleInterval(QueryTracer::kDefaultInterval);
}

TEST(ObsTraceTest, RingRetainsNewestRecordsOldestFirst) {
  QueryTracer& tracer = QueryTracer::Global();
  tracer.Clear();
  const uint64_t total = QueryTracer::kRingCapacity + 44;
  for (uint64_t i = 0; i < total; ++i) {
    QueryTraceRecord record;
    record.subject = static_cast<uint32_t>(i);
    tracer.Record(record);
  }
  EXPECT_EQ(tracer.recorded_total(), total);

  const std::vector<QueryTraceRecord> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), QueryTracer::kRingCapacity);
  // The 44 oldest records were overwritten; the rest arrive in order.
  EXPECT_EQ(snap.front().subject, 44u);
  EXPECT_EQ(snap.back().subject, total - 1);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].subject, snap[i - 1].subject + 1);
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.recorded_total(), 0u);
}

// The acceptance property of the tracer: for the paper's own example
// (User querying read on obj), the sampled record carries the same
// Fig. 4 derivation — majority counters, Auth set, returning line,
// decision — that a direct traced resolution produces. Checked for
// all 48 canonical strategies so every Fig. 4 branch is covered.
TEST(ObsTraceTest, SampledTraceReproducesFig4OnPaperExample) {
  core::PaperExample ex = core::MakePaperExample();
  QueryTracer& tracer = QueryTracer::Global();
  ResetSamplingState(tracer);
  tracer.SetSampleInterval(1);

  for (const core::Strategy& strategy : core::AllStrategies()) {
    core::ResolveTrace want;
    const auto direct = core::ResolveAccess(ex.dag, ex.eacm, ex.user, ex.obj,
                                            ex.read, strategy, {}, &want);
    ASSERT_TRUE(direct.ok());

    tracer.Clear();
    const auto mode = core::ResolveAccess(ex.dag, ex.eacm, ex.user, ex.obj,
                                          ex.read, strategy);
    ASSERT_TRUE(mode.ok());
    EXPECT_EQ(*mode, *direct);

    const std::vector<QueryTraceRecord> snap = tracer.Snapshot();
    ASSERT_EQ(snap.size(), 1u) << strategy.ToMnemonic();
    const QueryTraceRecord& got = snap.back();

    EXPECT_EQ(got.subject, ex.user);
    EXPECT_EQ(got.object, ex.obj);
    EXPECT_EQ(got.right, ex.read);
    EXPECT_EQ(got.strategy_index, strategy.Canonical().CanonicalIndex());
    EXPECT_EQ(got.has_majority, want.c1.has_value()) << strategy.ToMnemonic();
    EXPECT_EQ(got.c1, want.c1.value_or(0)) << strategy.ToMnemonic();
    EXPECT_EQ(got.c2, want.c2.value_or(0)) << strategy.ToMnemonic();
    EXPECT_EQ(got.auth_computed, want.auth_computed);
    EXPECT_EQ(got.auth_has_positive, want.auth_has_positive);
    EXPECT_EQ(got.auth_has_negative, want.auth_has_negative);
    EXPECT_EQ(got.returned_line, want.returned_line) << strategy.ToMnemonic();
    EXPECT_EQ(got.granted, want.result == acm::Mode::kPositive);
    EXPECT_GT(got.total_ns, 0u);
  }
  tracer.SetSampleInterval(QueryTracer::kDefaultInterval);
  tracer.Clear();
}

// The serving front door (CheckAccessSnapshot) records the same
// derivation, plus the decision-table interaction: a repeat query is a
// table hit with no Fig. 4 payload of its own.
TEST(ObsTraceTest, SnapshotQueriesRecordTableInteractions) {
  // The miss runs over the snapshot's reachability index, then over an
  // index-less snapshot (scratch extraction): either way each query
  // takes one sampler tick and leaves one trace record and one
  // `ucr_snapshot_query_latency_ns` observation, and none under the
  // direct-call `ucr_resolve_latency_ns`.
  Histogram& snapshot_latency =
      Registry::Global().GetHistogram("ucr_snapshot_query_latency_ns", "");
  Histogram& resolve_latency =
      Registry::Global().GetHistogram("ucr_resolve_latency_ns", "");
  for (const bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "indexed" : "index-less");
    core::PaperExample ex = core::MakePaperExample();
    core::SystemOptions options;
    options.use_reachability_index = use_index;
    core::AccessControlSystem system(std::move(ex.dag), options);
    ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
    ASSERT_TRUE(system.Grant("S4", "obj", "read").ok());
    ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
    system.SetStrategy(core::ParseStrategy("D+LP-").value());
    system.EnableSnapshotReads();
    ASSERT_EQ(system.snapshots()->Pin()->reach_index != nullptr, use_index);

    QueryTracer& tracer = QueryTracer::Global();
    ResetSamplingState(tracer);
    tracer.SetSampleInterval(1);
    tracer.Clear();
    const uint64_t snapshot_before = snapshot_latency.Snap().count;
    const uint64_t resolve_before = resolve_latency.Snap().count;

    for (uint64_t repeat = 0; repeat < 2; ++repeat) {
      const auto mode = system.CheckAccessSnapshotByName("User", "obj", "read");
      ASSERT_TRUE(mode.ok());
      // Paper Table 2, strategy D+LP-: the preference rule settles the
      // {+,-} conflict in favour of '-'.
      EXPECT_EQ(*mode, acm::Mode::kNegative);
      EXPECT_EQ(snapshot_latency.Snap().count, snapshot_before + repeat + 1);
    }
    EXPECT_EQ(resolve_latency.Snap().count, resolve_before);

    const std::vector<QueryTraceRecord> snap = tracer.Snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_FALSE(snap[0].resolution_cache_hit);
    EXPECT_TRUE(snap[0].fast_path);
    EXPECT_TRUE(snap[0].auth_computed);
    EXPECT_TRUE(snap[0].auth_has_positive);
    EXPECT_TRUE(snap[0].auth_has_negative);
    EXPECT_EQ(snap[0].returned_line, 9);
    EXPECT_TRUE(snap[1].resolution_cache_hit);
    EXPECT_FALSE(snap[1].auth_computed);  // Hits re-serve, not re-derive.
    EXPECT_EQ(snap[0].granted, snap[1].granted);

    tracer.SetSampleInterval(QueryTracer::kDefaultInterval);
    tracer.Clear();
  }
}

TEST(ObsTraceTest, RenderersEmitTheDerivation) {
  QueryTraceRecord record;
  record.strategy_index = 21;
  record.auth_computed = true;
  record.auth_has_positive = true;
  record.auth_has_negative = true;
  record.returned_line = 9;
  record.granted = false;

  const std::string fig4 = ToFig4String(record);
  EXPECT_NE(fig4.find("Auth = {+,-}"), std::string::npos) << fig4;
  EXPECT_NE(fig4.find("line 9"), std::string::npos) << fig4;

  const std::string json = ToJson(record);
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"returned_line\":9"), std::string::npos);
  EXPECT_NE(json.find("\"strategy_index\":21"), std::string::npos);

  // A majority outcome renders its counters.
  record.has_majority = true;
  record.c1 = 2;
  record.c2 = 1;
  record.returned_line = 6;
  record.granted = true;
  const std::string majority = ToFig4String(record);
  EXPECT_NE(majority.find("line 6"), std::string::npos) << majority;
  EXPECT_NE(majority.find("c1 = 2"), std::string::npos) << majority;
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
