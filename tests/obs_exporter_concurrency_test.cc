// Exposition-under-churn test (DESIGN.md §13): N parallel scrapers
// hammer /metrics, /timeseries, /varz, and /statz over real sockets
// while ApplyMutations batches churn hierarchy epochs and the sampler
// ticks at a fast cadence. Every JSON body must be structurally valid
// (no torn reads from the lock-free rings) and a scrape must not touch
// the instrumented reader-lock family at all. Runs under the `obs`
// label, so the TSan preset exercises the same interleavings.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "paper/paper_example.h"

namespace ucr::obs {
namespace {

#if !UCR_METRICS_ENABLED

TEST(ObsExporterConcurrencyTest, DisabledBuildHasNothingToServe) {
  HttpExporter exporter;
  EXPECT_FALSE(exporter.Start(0));
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

/// Body after the header/body separator; empty when malformed.
std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

TEST(ObsExporterConcurrencyTest, ScrapesTakeNoReaderLocks) {
  // Warm the surfaces once (first render may intern new metrics).
  std::string body;
  std::string type;
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/metrics", &body, &type));
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/timeseries", &body, &type));
  ASSERT_TRUE(HttpExporter::RenderEndpoint("/statz", &body, &type));

  const uint64_t before = GetLockWaitMetrics().acquisitions.Value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(HttpExporter::RenderEndpoint("/metrics", &body, &type));
    ASSERT_TRUE(HttpExporter::RenderEndpoint("/timeseries", &body, &type));
    ASSERT_TRUE(HttpExporter::RenderEndpoint("/statz", &body, &type));
  }
  EXPECT_EQ(GetLockWaitMetrics().acquisitions.Value(), before)
      << "a scrape went through an instrumented reader-path lock";
}

TEST(ObsExporterConcurrencyTest, ParallelScrapersSurviveMutationChurn) {
  TimeSeriesSampler::Global().ResetForTesting();
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());

  TimeSeriesSampler::Options ts_options;
  ts_options.interval_ms = 2;  // Aggressive cadence: maximize overlap.
  ASSERT_TRUE(TimeSeriesSampler::Global().Start(ts_options, nullptr));
  // The sampler registers its own metrics on the first tick; wait for
  // it so /metrics deterministically carries ucr_timeseries_*.
  for (int waited = 0;
       TimeSeriesSampler::Global().ticks_total() == 0 && waited < 2000;
       waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(TimeSeriesSampler::Global().ticks_total(), 1u);

  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &error)) << error;
  const uint16_t port = exporter.port();

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 25;
  std::atomic<bool> stop_churn{false};
  std::atomic<uint64_t> bodies_checked{0};

  // Churn thread: epoch-bumping mutation batches interleaved with
  // queries, so scrapes race live hierarchy edits and cache sweeps.
  std::thread churn([&] {
    using MutationOp = core::AccessControlSystem::MutationOp;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      const std::vector<MutationOp> grow = {
          MutationOp::Grant("S6", "obj", "read"),
          MutationOp::Deny("S1", "obj", "read"),
          MutationOp::AddMember("S1", "S6"),
      };
      const std::vector<MutationOp> shrink = {
          MutationOp::RemoveMember("S1", "S6"),
          MutationOp::Revoke("S6", "obj", "read"),
          MutationOp::Revoke("S1", "obj", "read"),
      };
      core::AccessControlSystem::MutationBatchStats stats;
      ASSERT_TRUE(system.ApplyMutations(grow, &stats).ok());
      ASSERT_TRUE(system.CheckAccessByName("User", "obj", "read").ok());
      ASSERT_TRUE(system.ApplyMutations(shrink, &stats).ok());
    }
  });

  const char* kJsonPaths[] = {"/timeseries", "/varz", "/statz", "/tracez"};
  std::vector<std::thread> scrapers;
  scrapers.reserve(kScrapers);
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < kScrapesEach; ++i) {
        if ((i + t) % 2 == 0) {
          const std::string response = Get(port, "/metrics");
          EXPECT_NE(response.find("200 OK"), std::string::npos);
          const std::string text = BodyOf(response);
          EXPECT_NE(text.find("# HELP"), std::string::npos);
          EXPECT_NE(text.find("ucr_timeseries_ticks_total"),
                    std::string::npos);
        } else {
          const std::string path = kJsonPaths[(i + t) % 4];
          const std::string response = Get(port, path);
          EXPECT_NE(response.find("200 OK"), std::string::npos) << path;
          const std::string json = BodyOf(response);
          EXPECT_TRUE(JsonLooksValid(json))
              << path << " returned torn JSON:\n"
              << json;
        }
        bodies_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::thread& s : scrapers) s.join();
  stop_churn.store(true, std::memory_order_relaxed);
  churn.join();
  exporter.Stop();
  TimeSeriesSampler::Global().Stop();

  EXPECT_EQ(bodies_checked.load(), kScrapers * kScrapesEach);
  EXPECT_GE(exporter.requests_total(),
            static_cast<uint64_t>(kScrapers * kScrapesEach));
  // The sampler really was live during the exchange.
  EXPECT_GE(TimeSeriesSampler::Global().ticks_total(), 1u);
  TimeSeriesSampler::Global().ResetForTesting();
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::obs
