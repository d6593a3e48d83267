// Tests for the retained telemetry timeline (src/obs/timeseries.h,
// DESIGN.md §13): per-interval counter deltas, gauge values, and
// histogram bucket-delta quantiles across both retention tiers; ring
// wrap; lock-free read consistency; JSON rendering; and the
// histogram-exemplar → /tracez linkage that connects a tail-latency
// bucket to its full Fig. 4 derivation.

#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/strategy.h"
#include "core/system.h"
#include "obs/http_exporter.h"
#include "obs/trace.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

TEST(ObsTimeseriesTest, DisabledBuildRefusesToStart) {
  TimeSeriesSampler sampler;
  std::string error;
  EXPECT_FALSE(sampler.Start(TimeSeriesSampler::Options{}, &error));
  EXPECT_NE(error.find("UCR_METRICS=OFF"), std::string::npos) << error;
  EXPECT_TRUE(sampler.Recent("anything", 10).empty());
  EXPECT_EQ(sampler.SeriesKind("anything"), -1);
}

#else

TEST(ObsTimeseriesTest, BucketDeltaQuantileNearestRank) {
  std::array<uint64_t, Histogram::kBuckets> deltas{};
  EXPECT_EQ(BucketDeltaQuantile(deltas, 0.99), 0u);  // Empty interval.

  // 90 observations in bucket 4 (le 15), 10 in bucket 10 (le 1023):
  // p50 lands in the low bucket, p99 in the tail bucket.
  deltas[4] = 90;
  deltas[10] = 10;
  EXPECT_EQ(BucketDeltaQuantile(deltas, 0.50), Histogram::BucketUpperBound(4));
  EXPECT_EQ(BucketDeltaQuantile(deltas, 0.99),
            Histogram::BucketUpperBound(10));

  // +Inf-bucket observations report the largest finite bound.
  std::array<uint64_t, Histogram::kBuckets> inf{};
  inf[Histogram::kBuckets - 1] = 5;
  EXPECT_EQ(BucketDeltaQuantile(inf, 0.99),
            Histogram::BucketUpperBound(Histogram::kBuckets - 2));
}

TEST(ObsTimeseriesTest, CountersBecomeIntervalDeltas) {
  Counter& counter = Registry::Global().GetCounter(
      "ucr_test_ts_counter_total", "timeseries test counter");
  TimeSeriesSampler sampler;
  counter.Inc(100);
  sampler.TickOnceForTesting();  // Primes the baseline, emits nothing.
  EXPECT_TRUE(sampler.Recent("ucr_test_ts_counter_total", 10).empty());

  counter.Inc(5);
  sampler.TickOnceForTesting();
  counter.Inc(3);
  sampler.TickOnceForTesting();
  const auto points = sampler.Recent("ucr_test_ts_counter_total", 10);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].delta, 5u);  // Oldest first.
  EXPECT_EQ(points[1].delta, 3u);
  EXPECT_LT(points[0].tick, points[1].tick);
  EXPECT_EQ(sampler.SeriesKind("ucr_test_ts_counter_total"), 0);
  EXPECT_EQ(sampler.SeriesKind("no_such_series"), -1);
}

TEST(ObsTimeseriesTest, GaugesKeepInstantaneousValue) {
  Gauge& gauge =
      Registry::Global().GetGauge("ucr_test_ts_gauge", "timeseries test");
  TimeSeriesSampler sampler;
  gauge.Set(7);
  sampler.TickOnceForTesting();  // Gauges emit from the first tick.
  gauge.Set(-3);
  sampler.TickOnceForTesting();
  const auto points = sampler.Recent("ucr_test_ts_gauge", 10);
  ASSERT_GE(points.size(), 2u);
  EXPECT_EQ(points[points.size() - 2].value, 7);
  EXPECT_EQ(points.back().value, -3);
}

TEST(ObsTimeseriesTest, HistogramsGetBucketDeltaQuantiles) {
  Histogram& hist = Registry::Global().GetHistogram(
      "ucr_test_ts_hist_ns", "timeseries test histogram");
  TimeSeriesSampler sampler;
  // Skew the pre-existing distribution: everything slow.
  for (int i = 0; i < 50; ++i) hist.Observe(1'000'000);
  sampler.TickOnceForTesting();  // Baseline swallows the slow history.

  // This interval is fast except two stragglers; interval quantiles
  // must reflect only the delta, not the slow history.
  for (int i = 0; i < 98; ++i) hist.Observe(100);
  hist.Observe(500'000);
  hist.Observe(500'000);
  sampler.TickOnceForTesting();
  const auto points = sampler.Recent("ucr_test_ts_hist_ns", 10);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].count_delta, 100u);
  EXPECT_LT(points[0].p50, 256u);      // 100 → bucket le 127.
  EXPECT_GT(points[0].p99, 100'000u);  // The straggler owns the tail.
}

TEST(ObsTimeseriesTest, Tier1FoldsStrideTicksIntoOnePoint) {
  Counter& counter = Registry::Global().GetCounter(
      "ucr_test_ts_tier1_total", "timeseries tier1 test");
  TimeSeriesSampler::Options options;
  options.tier1_stride = 2;
  TimeSeriesSampler sampler;
  sampler.ConfigureForTesting(options);

  counter.Inc(1);
  sampler.TickOnceForTesting();  // Tick 1: primes.
  counter.Inc(10);
  sampler.TickOnceForTesting();  // Tick 2: tier0 Δ10, tier1 Δ10 (2|2).
  counter.Inc(20);
  sampler.TickOnceForTesting();  // Tick 3: tier0 Δ20.
  counter.Inc(30);
  sampler.TickOnceForTesting();  // Tick 4: tier0 Δ30, tier1 Δ50.

  const auto tier0 = sampler.Recent("ucr_test_ts_tier1_total", 10);
  ASSERT_EQ(tier0.size(), 3u);
  EXPECT_EQ(tier0[0].delta, 10u);
  EXPECT_EQ(tier0[1].delta, 20u);
  EXPECT_EQ(tier0[2].delta, 30u);

  const auto tier1 = sampler.RecentTier1("ucr_test_ts_tier1_total", 10);
  ASSERT_EQ(tier1.size(), 2u);
  EXPECT_EQ(tier1[0].delta, 10u);
  EXPECT_EQ(tier1[1].delta, 50u);  // Ticks 3+4 folded.
}

TEST(ObsTimeseriesTest, RingWrapRetainsTheNewestPoints) {
  Counter& counter = Registry::Global().GetCounter(
      "ucr_test_ts_wrap_total", "timeseries wrap test");
  TimeSeriesSampler::Options options;
  options.tier0_capacity = 4;
  TimeSeriesSampler sampler;
  sampler.ConfigureForTesting(options);

  sampler.TickOnceForTesting();  // Primes.
  for (uint64_t i = 1; i <= 10; ++i) {
    counter.Inc(i);
    sampler.TickOnceForTesting();
  }
  const auto points = sampler.Recent("ucr_test_ts_wrap_total", 100);
  ASSERT_EQ(points.size(), 4u);  // Capacity bounds retention.
  EXPECT_EQ(points[0].delta, 7u);
  EXPECT_EQ(points[3].delta, 10u);

  // A smaller ask returns the newest slice.
  const auto two = sampler.Recent("ucr_test_ts_wrap_total", 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].delta, 9u);
  EXPECT_EQ(two[1].delta, 10u);
}

TEST(ObsTimeseriesTest, RenderJsonIsValidAndCarriesSeries) {
  Counter& counter = Registry::Global().GetCounter(
      "ucr_test_ts_json_total", "timeseries json test");
  TimeSeriesSampler sampler;
  sampler.TickOnceForTesting();
  counter.Inc(4);
  sampler.TickOnceForTesting();
  const std::string json = sampler.RenderJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"ucr_test_ts_json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"delta\":4"), std::string::npos);
  EXPECT_NE(json.find("\"rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"tiers\":[{\"stride\":1"), std::string::npos);
}

TEST(ObsTimeseriesTest, BackgroundThreadTicksAndStops) {
  TimeSeriesSampler sampler;
  TimeSeriesSampler::Options options;
  options.interval_ms = 5;
  std::string error;
  ASSERT_TRUE(sampler.Start(options, &error)) << error;
  EXPECT_FALSE(sampler.Start(options, &error));  // Already running.
  const uint64_t deadline_ms = 2000;
  for (uint64_t waited = 0;
       sampler.ticks_total() < 3 && waited < deadline_ms; waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(sampler.ticks_total(), 3u);
  sampler.Stop();
  sampler.Stop();  // Idempotent.
  EXPECT_FALSE(sampler.running());
}

// Acceptance: a histogram exemplar recorded on the query path resolves
// to a complete Fig. 4 derivation via the tracer (/tracez carries the
// same record by sequence number).
TEST(ObsTimeseriesTest, ExemplarResolvesToFullFig4Trace) {
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());

  const uint64_t previous = QueryTracer::Global().sample_interval();
  QueryTracer::Global().SetSampleInterval(1);  // Sample everything.
  SetExemplarThreshold(0);                     // Capture everything.
  auto mode = system.CheckAccessByName("S2", "obj", "read");
  QueryTracer::Global().SetSampleInterval(previous);
  ASSERT_TRUE(mode.ok());

  // The facade resolves through ResolveAccess, whose latency histogram
  // must now hold >= 1 exemplar whose trace id resolves to a retained
  // tracer record.
  Histogram& latency = Registry::Global().GetHistogram(
      "ucr_resolve_latency_ns", "");
  bool linked = false;
  for (const Histogram::Exemplar& e : latency.SnapExemplars()) {
    if (!e.valid) continue;
    for (const QueryTraceRecord& r : QueryTracer::Global().Snapshot()) {
      if (r.sequence != e.trace_sequence) continue;
      EXPECT_EQ(r.subject, e.subject);
      EXPECT_EQ(r.object, e.object);
      EXPECT_EQ(r.right, e.right);
      // The record carries the full derivation: Fig. 4 renders with a
      // concrete returning line and decision.
      const std::string fig4 = ToFig4String(r);
      EXPECT_NE(fig4.find("line"), std::string::npos) << fig4;
      EXPECT_NE(fig4.find(r.granted ? "'+'" : "'-'"), std::string::npos);
      // /tracez serves the same record by sequence; /metrics JSON
      // carries the exemplar with that sequence.
      std::string body;
      std::string type;
      ASSERT_TRUE(HttpExporter::RenderEndpoint("/tracez", &body, &type));
      EXPECT_NE(
          body.find("\"sequence\":" + std::to_string(e.trace_sequence)),
          std::string::npos);
      EXPECT_NE(Registry::Global().RenderJson().find(
                    "\"trace_sequence\":" + std::to_string(e.trace_sequence)),
                std::string::npos);
      linked = true;
    }
  }
  EXPECT_TRUE(linked)
      << "no histogram exemplar resolved to a retained tracer record";
}

TEST(ObsTimeseriesTest, ExemplarThresholdFiltersSmallValues) {
  Histogram& hist = Registry::Global().GetHistogram(
      "ucr_test_ts_exemplar_ns", "exemplar threshold test");
  SetExemplarThreshold(1000);
  hist.RecordExemplar(999, 1, 2, 3, 4);  // Below threshold: dropped.
  bool any = false;
  for (const auto& e : hist.SnapExemplars()) any |= e.valid;
  EXPECT_FALSE(any);

  hist.RecordExemplar(1000, 7, 2, 3, 4);  // At threshold: kept.
  bool kept = false;
  for (const auto& e : hist.SnapExemplars()) {
    if (e.valid) {
      EXPECT_EQ(e.value, 1000u);
      EXPECT_EQ(e.trace_sequence, 7u);
      kept = true;
    }
  }
  EXPECT_TRUE(kept);
  SetExemplarThreshold(0);
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
