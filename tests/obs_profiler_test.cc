// Tests for the continuous-profiling layer (src/obs/profiler.h,
// DESIGN.md §14): phase-collection ownership and nesting, scoped
// timer attribution, per-phase histogram population from sampled
// queries, the SIGPROF wall-clock sampler (lifecycle, folded-stack
// rendering, restart semantics), a signal storm racing mutation churn
// (a data-race proof under the TSan preset), and the EINTR audit —
// /metrics and /profilez scrapes plus the audit writer staying intact
// while every thread is being signalled at ~1 kHz.

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "obs/audit_log.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

// The UCR_METRICS=OFF gating satellite: every profiler entry point
// must compile to an inert inline body (the nometrics CI preset builds
// this branch), and none of them may pretend to be live.
TEST(ObsProfilerTest, DisabledBuildCompilesToNoops) {
  WallProfiler& profiler = WallProfiler::Global();
  EXPECT_FALSE(profiler.Start());
  EXPECT_FALSE(profiler.Start(WallProfiler::Options{}));
  EXPECT_FALSE(profiler.running());
  profiler.Stop();
  profiler.TickOnceForTesting();
  EXPECT_TRUE(profiler.RenderFolded().empty());
  EXPECT_EQ(profiler.GetStats().samples_total, 0u);

  EXPECT_FALSE(PhaseCollectionActive());
  ScopedPhaseCollection collection(true);
  EXPECT_FALSE(collection.owner());
  EXPECT_FALSE(PhaseCollectionActive());
  AddPhaseNs(Phase::kExtract, 100);
  { ScopedPhaseTimer timer(Phase::kResolve); }
  { ScopedPhaseSuspend suspend; }
  EXPECT_EQ(collection.Snapshot().TotalNs(), 0u);
}

#else

/// One blocking HTTP exchange against 127.0.0.1:`port` (same helper as
/// obs_http_exporter_test); returns the raw response.
std::string HttpRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return HttpRequest(port,
                     "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

/// Parses one folded-stack blob: every line must be
/// `frame[;frame...] <count>` with a positive integer count. Returns
/// the number of samples (sum of counts); -1 on any malformed line.
int64_t ParseFolded(const std::string& folded, std::string* error) {
  int64_t total = 0;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      *error = "no count separator: " + line;
      return -1;
    }
    const std::string stack = line.substr(0, space);
    if (stack.empty() || stack.front() == ';' || stack.back() == ';') {
      *error = "malformed stack: " + line;
      return -1;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + space + 1, &end, 10);
    if (errno != 0 || end == line.c_str() + space + 1 || *end != '\0' ||
        count == 0) {
      *error = "bad count: " + line;
      return -1;
    }
    total += static_cast<int64_t>(count);
  }
  return total;
}

/// Count of one `ucr_phase_*_ns` histogram (pre-interned by the
/// profiler, so the help string here is never the registered one).
uint64_t PhaseHistogramCount(Phase phase) {
  return Registry::Global()
      .GetHistogram(PhaseMetricName(phase), "(test read)")
      .Snap()
      .count;
}

TEST(ObsProfilerTest, PhaseNamesAndMetricNamesAreStable) {
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const std::string name = PhaseName(phase);
    const std::string metric = PhaseMetricName(phase);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(metric, "ucr_phase_" + name + "_ns");
  }
  EXPECT_STREQ(PhaseName(Phase::kCacheProbe), "cache_probe");
  EXPECT_STREQ(PhaseName(Phase::kBatchAssemble), "batch_assemble");
}

TEST(ObsProfilerTest, CollectionOwnershipGatesAttribution) {
  ASSERT_FALSE(PhaseCollectionActive());

  {
    ScopedPhaseCollection unsampled(false);
    EXPECT_FALSE(unsampled.owner());
    EXPECT_FALSE(PhaseCollectionActive());
    AddPhaseNs(Phase::kExtract, 100);  // Dropped: no active scope.
    EXPECT_EQ(unsampled.Snapshot().TotalNs(), 0u);
  }

  const uint64_t extract_before = PhaseHistogramCount(Phase::kExtract);
  {
    ScopedPhaseCollection sampled(true);
    EXPECT_TRUE(sampled.owner());
    EXPECT_TRUE(PhaseCollectionActive());
    AddPhaseNs(Phase::kExtract, 100);
    AddPhaseNs(Phase::kResolve, 7);

    // A nested scope (ResolveAccess under CheckAccess) must not steal
    // ownership or flush early.
    {
      ScopedPhaseCollection nested(true);
      EXPECT_FALSE(nested.owner());
      AddPhaseNs(Phase::kExtract, 23);
    }
    EXPECT_TRUE(PhaseCollectionActive());

    // Suspension (the shadow oracle's re-resolution) drops attribution
    // without ending the scope.
    {
      ScopedPhaseSuspend suspend;
      EXPECT_FALSE(PhaseCollectionActive());
      AddPhaseNs(Phase::kExtract, 1'000'000);  // Dropped.
    }
    EXPECT_TRUE(PhaseCollectionActive());

    const PhaseBreakdown snapshot = sampled.Snapshot();
    EXPECT_EQ(snapshot.of(Phase::kExtract), 123u);
    EXPECT_EQ(snapshot.of(Phase::kResolve), 7u);
    EXPECT_EQ(snapshot.TotalNs(), 130u);
  }
  EXPECT_FALSE(PhaseCollectionActive());
  // The owner's destructor flushed into the phase histograms.
  EXPECT_EQ(PhaseHistogramCount(Phase::kExtract), extract_before + 1);
}

TEST(ObsProfilerTest, ScopedTimerMeasuresOnlyInsideACollection) {
  // Outside any collection scope the timer must not arm (the unsampled
  // hot path is one TLS load + branch, no clock read).
  {
    ScopedPhaseTimer timer(Phase::kPropagate);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ScopedPhaseCollection sampled(true);
  ASSERT_TRUE(sampled.owner());
  {
    ScopedPhaseTimer timer(Phase::kPropagate);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const PhaseBreakdown snapshot = sampled.Snapshot();
  EXPECT_GE(snapshot.of(Phase::kPropagate), 1'000'000u)
      << "a 2 ms timed region attributed less than 1 ms";
  EXPECT_EQ(snapshot.of(Phase::kExtract), 0u)
      << "the pre-collection timer leaked into the scope";
}

TEST(ObsProfilerTest, SampledQueriesPopulatePhaseHistograms) {
  Random rng(97);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 8;
  shape.skip_edge_probability = 0.2;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId object = eacm.InternObject("o").value();
  const acm::RightId right = eacm.InternRight("r").value();
  ASSERT_TRUE(eacm.Set(0, object, right, acm::Mode::kPositive).ok());

  QueryTracer& tracer = QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);

  const uint64_t extract_before = PhaseHistogramCount(Phase::kExtract);
  const uint64_t propagate_before = PhaseHistogramCount(Phase::kPropagate);
  const uint64_t resolve_before = PhaseHistogramCount(Phase::kResolve);

  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    ASSERT_TRUE(
        core::ResolveAccess(*dag, eacm, v, object, right, strategy).ok());
  }
  tracer.SetSampleInterval(previous_interval);

  EXPECT_GT(PhaseHistogramCount(Phase::kExtract), extract_before);
  EXPECT_GT(PhaseHistogramCount(Phase::kPropagate), propagate_before);
  EXPECT_GT(PhaseHistogramCount(Phase::kResolve), resolve_before);

  // The sampled trace records carry the same breakdown.
  const std::vector<QueryTraceRecord> records = tracer.Snapshot();
  ASSERT_FALSE(records.empty());
  bool any_phases = false;
  for (const QueryTraceRecord& record : records) {
    any_phases = any_phases || record.phases.TotalNs() > 0;
  }
  EXPECT_TRUE(any_phases)
      << "no sampled record carried a non-zero phase breakdown";
}

TEST(ObsProfilerTest, WallProfilerCapturesAndRendersFoldedStacks) {
  WallProfiler& profiler = WallProfiler::Global();
  ASSERT_FALSE(profiler.running());
  WallProfiler::Options options;
  options.hz = 197;
  ASSERT_TRUE(profiler.Start(options));
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start()) << "double Start must be refused";

  // Deterministic sample counts: synchronous signal+drain passes
  // instead of waiting out the ticker interval.
  for (int i = 0; i < 8; ++i) profiler.TickOnceForTesting();

  const WallProfiler::Stats stats = profiler.GetStats();
  EXPECT_TRUE(stats.running);
  EXPECT_GE(stats.signals_sent, 8u);
  EXPECT_GE(stats.samples_total, 1u);
  EXPECT_GE(stats.threads_seen, 1u);
  EXPECT_LE(stats.samples_total, stats.signals_sent + stats.dropped_total);

  const std::string folded = profiler.RenderFolded();
  ASSERT_FALSE(folded.empty());
  std::string error;
  const int64_t rendered = ParseFolded(folded, &error);
  ASSERT_GE(rendered, 1) << error;
  EXPECT_LE(static_cast<uint64_t>(rendered), stats.samples_total + 8);

  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  profiler.Stop();  // Idempotent.
  // The aggregated profile stays readable after Stop...
  EXPECT_FALSE(profiler.RenderFolded().empty());

  // ...and a restart resets the aggregation.
  ASSERT_TRUE(profiler.Start(options));
  EXPECT_EQ(profiler.GetStats().samples_total, 0u);
  profiler.Stop();
}

TEST(ObsProfilerTest, RingWrapUnderSignalBurstsKeepsTotalsCoherent) {
  WallProfiler& profiler = WallProfiler::Global();
  WallProfiler::Options options;
  options.hz = 997;  // ~1 kHz: rings wrap when a drain falls behind.
  ASSERT_TRUE(profiler.Start(options));

  // Busy threads give the handler distinct stacks to capture while the
  // free-running ticker signals at ~1 kHz.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> busy;
  for (int t = 0; t < 3; ++t) {
    busy.emplace_back([&] {
      uint64_t x = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 2862933555777941757ull + 3037000493ull;
        sink.fetch_add(x, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (int i = 0; i < 64; ++i) profiler.TickOnceForTesting();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : busy) thread.join();
  profiler.Stop();

  const WallProfiler::Stats stats = profiler.GetStats();
  EXPECT_GE(stats.samples_total, 32u);
  EXPECT_GE(stats.threads_seen, 4u);  // Main + busy workers.
  // Overflow may or may not have happened on this host; whatever was
  // kept must still render as well-formed folded stacks.
  std::string error;
  EXPECT_GE(ParseFolded(profiler.RenderFolded(), &error), 1) << error;
}

// The TSan target: a ~1 kHz signal storm interrupting threads that are
// mutating the hierarchy (epoch churn, cache sweeps) and resolving
// sampled queries (phase TLS traffic) concurrently. The handler writes
// rings that the ticker drains; any ordering bug between them is a
// torn sample this test makes TSan watch for.
TEST(ObsProfilerTest, SignalStormSurvivesMutationChurn) {
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  // Readers ride the epoch-snapshot path: it is the one read API
  // specified to race ApplyMutations, and its resolve runs the same
  // phase collection as the mutable-path entry points.
  system.EnableSnapshotReads();

  QueryTracer& tracer = QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);  // Every query runs a phase collection.

  WallProfiler& profiler = WallProfiler::Global();
  WallProfiler::Options options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options));

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    using MutationOp = core::AccessControlSystem::MutationOp;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<MutationOp> grow = {
          MutationOp::Grant("S6", "obj", "read"),
          MutationOp::AddMember("S1", "S6"),
      };
      const std::vector<MutationOp> shrink = {
          MutationOp::RemoveMember("S1", "S6"),
          MutationOp::Revoke("S6", "obj", "read"),
      };
      core::AccessControlSystem::MutationBatchStats stats;
      ASSERT_TRUE(system.ApplyMutations(grow, &stats).ok());
      ASSERT_TRUE(system.ApplyMutations(shrink, &stats).ok());
    }
  });

  constexpr int kReaders = 3;
  constexpr int kQueriesEach = 400;
  std::atomic<int> readers_active{kReaders};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kQueriesEach; ++i) {
        ASSERT_TRUE(
            system.CheckAccessSnapshotByName("User", "obj", "read").ok());
      }
      readers_active.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  // Drive the storm synchronously while the readers and the churn
  // thread are live: each tick signals EVERY thread, so the queries
  // above really are interrupted mid-resolve.
  while (readers_active.load(std::memory_order_relaxed) > 0) {
    profiler.TickOnceForTesting();
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();

  profiler.Stop();
  tracer.SetSampleInterval(previous_interval);

  const WallProfiler::Stats stats = profiler.GetStats();
  EXPECT_GE(stats.signals_sent, 1u);
  std::string error;
  EXPECT_GE(ParseFolded(profiler.RenderFolded(), &error), 0) << error;
}

// The §14 EINTR audit, as a test: with every thread being signalled at
// ~1 kHz, (a) /metrics and /profilez scrapes over real sockets must
// come back complete — a recv/send loop that treats EINTR as EOF
// truncates mid-body — and (b) the audit writer's fwrite loop must
// keep emitting whole JSON lines to its file sink.
TEST(ObsProfilerTest, ScrapesAndAuditWriterSurviveOneKhzProfiling) {
  const std::string audit_path =
      ::testing::TempDir() + "/profiler_eintr_audit.jsonl";
  std::remove(audit_path.c_str());

  QueryTracer& tracer = QueryTracer::Global();
  const uint64_t previous_interval = tracer.sample_interval();
  tracer.SetSampleInterval(1);
  AuditLogOptions audit_options;
  audit_options.sinks.push_back(
      std::make_unique<RotatingFileSink>(audit_path));
  ASSERT_TRUE(AuditLog::Global().Start(std::move(audit_options)));

  WallProfiler& profiler = WallProfiler::Global();
  WallProfiler::Options options;
  options.hz = 997;
  ASSERT_TRUE(profiler.Start(options));

  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &error)) << error;

  // Sampled queries keep audit events flowing while we scrape.
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(system.CheckAccessByName("User", "obj", "read").ok());
    const std::string metrics = Get(exporter.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    const std::string text = BodyOf(metrics);
    EXPECT_NE(text.find("# HELP"), std::string::npos)
        << "truncated /metrics body under signal load (EINTR mishandled?)";
    EXPECT_NE(text.find("ucr_phase_extract_ns"), std::string::npos);

    const std::string profilez = Get(exporter.port(), "/profilez");
    EXPECT_NE(profilez.find("HTTP/1.1 200 OK"), std::string::npos);
    std::string parse_error;
    EXPECT_GE(ParseFolded(BodyOf(profilez), &parse_error), 0) << parse_error;
  }

  exporter.Stop();
  profiler.Stop();
  AuditLog::Global().Stop();  // Flushes the writer.
  tracer.SetSampleInterval(previous_interval);

  // Every line the writer produced under signal pressure is a whole
  // JSON object: no short-write truncation.
  std::ifstream audit(audit_path);
  ASSERT_TRUE(audit.good()) << audit_path;
  std::string line;
  size_t lines = 0;
  while (std::getline(audit, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << "torn audit line: " << line;
  }
  EXPECT_GE(lines, 1u) << "the audit writer emitted nothing";
  std::remove(audit_path.c_str());
}

TEST(ObsProfilerTest, ProfilezEndpointRendersThroughTheExporter) {
  WallProfiler& profiler = WallProfiler::Global();
  ASSERT_TRUE(profiler.Start());
  for (int i = 0; i < 4; ++i) profiler.TickOnceForTesting();
  profiler.Stop();

  std::string body;
  std::string type;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/profilez", &body, &type));
  EXPECT_NE(type.find("text/plain"), std::string::npos);
  std::string error;
  EXPECT_GE(ParseFolded(body, &error), 1) << error;

  // The profiler surfaces live in /varz and /statz too.
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/varz", &body, &type));
  EXPECT_NE(body.find("\"profiler\""), std::string::npos);
  EXPECT_NE(body.find("\"samples_total\""), std::string::npos);
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/statz", &body, &type));
  EXPECT_NE(body.find("\"phases\""), std::string::npos);
  EXPECT_NE(body.find("\"cache_probe\""), std::string::npos);
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
