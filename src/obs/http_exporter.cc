#include "obs/http_exporter.h"

#include <algorithm>
#include <sstream>

#include "obs/audit_log.h"
#include "obs/health.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

#if UCR_METRICS_ENABLED
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace ucr::obs {

namespace {

#if UCR_METRICS_ENABLED
/// The wall profiler's status object (shared by /varz and /statz).
std::string RenderProfilerStats() {
  const WallProfiler::Stats stats = WallProfiler::Global().GetStats();
  std::ostringstream out;
  out << "{\"running\":" << (stats.running ? "true" : "false")
      << ",\"samples_total\":" << stats.samples_total
      << ",\"dropped_total\":" << stats.dropped_total
      << ",\"signals_sent\":" << stats.signals_sent
      << ",\"threads_seen\":" << stats.threads_seen
      << ",\"samples_per_sec\":" << stats.samples_per_sec << "}";
  return out.str();
}

/// /varz: one JSON object joining the metric registry snapshot with
/// the status of the other observability subsystems.
std::string RenderVarz() {
  const QueryTracer& tracer = QueryTracer::Global();
  const ShadowVerifier& shadow = ShadowVerifier::Global();
  const AuditLog& audit = AuditLog::Global();
  // Epoch/snapshot status (DESIGN.md §11), surfaced as its own object
  // so `ucr_admin serve` dashboards can watch snapshot lag without
  // digging through the flat metric map. Reads the gauges and counters
  // core/snapshot.cc interns — the registry hands back the same
  // objects by name, so the values are live even though obs/ cannot
  // link against core/.
  Registry& reg = Registry::Global();
  std::ostringstream out;
  out << "{\"metrics\":" << reg.RenderJson()
      << ",\"epoch\":{\"current\":"
      << reg.GetGauge("ucr_epoch_current",
                      "Epoch of the currently published snapshot")
             .Value()
      << ",\"readers\":"
      << reg.GetGauge("ucr_epoch_readers",
                      "Reader pins currently held across all epochs")
             .Value()
      << ",\"lag\":"
      << reg.GetGauge("ucr_epoch_lag",
                      "Master-state mutations applied but not yet visible "
                      "in the published snapshot")
             .Value()
      << ",\"published_total\":"
      << reg.GetCounter("ucr_epoch_published_total", "Snapshots published")
             .Value()
      << ",\"retired_total\":"
      << reg.GetCounter("ucr_epoch_retired_total",
                        "Snapshots destroyed after their readers drained")
             .Value()
      << "}"
      << ",\"tracer\":{\"sample_interval\":" << tracer.sample_interval()
      << ",\"recorded_total\":" << tracer.recorded_total() << "}"
      << ",\"audit\":{\"enabled\":" << (AuditLog::Enabled() ? "true" : "false")
      << ",\"emitted_total\":" << audit.emitted_total()
      << ",\"dropped_total\":" << audit.dropped_total()
      << ",\"written_total\":" << audit.written_total() << "}"
      << ",\"shadow\":{\"interval\":" << shadow.interval()
      << ",\"checks_total\":" << shadow.checks_total()
      << ",\"mismatch_total\":" << shadow.mismatch_total() << "}"
      // Promoted to top level so dashboards and alert probes can
      // anchor on them without walking the nested objects: the two
      // "is the observability layer lying to me" signals.
      << ",\"audit_ring_dropped_total\":" << audit.dropped_total()
      << ",\"shadow_divergences_total\":" << shadow.mismatch_total()
      << ",\"timeseries\":{\"running\":"
      << (TimeSeriesSampler::Global().running() ? "true" : "false")
      << ",\"ticks\":" << TimeSeriesSampler::Global().ticks_total() << "}"
      << ",\"profiler\":" << RenderProfilerStats()
      << ",\"health\":" << HealthEngine::Global().RenderJson() << "}";
  return out.str();
}

/// Reduction helpers over the sampler's newest tier-0 points — the
/// short window (10 points ≈ 10 s at the default cadence) /statz uses
/// so its numbers mean "now", not "since process start".
constexpr size_t kStatzWindow = 10;

double RecentRate(std::string_view metric) {
  TimeSeriesSampler& ts = TimeSeriesSampler::Global();
  const auto points = ts.Recent(metric, kStatzWindow);
  if (points.empty()) return 0.0;
  uint64_t total = 0;
  for (const auto& p : points) total += p.delta;
  const double seconds =
      static_cast<double>(points.size()) *
      (static_cast<double>(std::max<uint64_t>(1, ts.options().interval_ms)) /
       1000.0);
  return static_cast<double>(total) / seconds;
}

uint64_t RecentP99(std::string_view metric) {
  uint64_t worst = 0;
  for (const auto& p :
       TimeSeriesSampler::Global().Recent(metric, kStatzWindow)) {
    worst = std::max(worst, p.p99);
  }
  return worst;
}

/// Nanoseconds a histogram accumulated over the /statz window (the
/// sum-of-observations delta the sampler records per tick).
uint64_t RecentSumDelta(std::string_view metric) {
  uint64_t total = 0;
  for (const auto& p :
       TimeSeriesSampler::Global().Recent(metric, kStatzWindow)) {
    total += p.sum_delta;
  }
  return total;
}

/// The live "% time per phase" panel (DESIGN.md §14): each phase's
/// share of the sampled-query nanoseconds attributed over the /statz
/// window. All zeros until phase collection has flushed something.
std::string RenderPhasePanel() {
  uint64_t ns[kPhaseCount];
  uint64_t total = 0;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    ns[i] = RecentSumDelta(PhaseMetricName(static_cast<Phase>(i)));
    total += ns[i];
  }
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (i != 0) out << ",";
    const double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(ns[i]) /
                         static_cast<double>(total);
    out << "\"" << PhaseName(static_cast<Phase>(i)) << "\":{\"ns\":" << ns[i]
        << ",\"pct\":" << pct << "}";
  }
  out << ",\"window_total_ns\":" << total << "}";
  return out.str();
}

double HitRate(std::string_view hits_name, std::string_view misses_name) {
  Registry& reg = Registry::Global();
  const uint64_t hits = reg.GetCounter(hits_name, "").Value();
  const uint64_t misses = reg.GetCounter(misses_name, "").Value();
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

/// /statz: the one-page operator summary `ucr_admin top` refreshes.
/// Rates come from the time-series rings (empty sampler → zeros);
/// ratios come straight from the cumulative counters.
std::string RenderStatz() {
  TimeSeriesSampler& ts = TimeSeriesSampler::Global();
  Registry& reg = Registry::Global();
  const double qps = RecentRate("ucr_system_queries_total") +
                     RecentRate("ucr_snapshot_queries_total");
  std::ostringstream out;
  out << "{\"qps\":" << qps
      << ",\"resolve_p99_ns\":" << RecentP99("ucr_resolve_latency_ns")
      << ",\"snapshot_p99_ns\":" << RecentP99("ucr_snapshot_query_latency_ns")
      << ",\"snapshot_cache_hit_rate\":"
      << HitRate("ucr_snapshot_resolution_hits_total",
                 "ucr_snapshot_resolution_misses_total")
      << ",\"epoch_publish_rate\":" << RecentRate("ucr_epoch_published_total")
      << ",\"epoch_lag\":"
      << reg.GetGauge("ucr_epoch_lag", "").Value()
      << ",\"audit_drop_rate\":" << RecentRate("ucr_audit_dropped_total")
      << ",\"shadow_mismatch_rate\":"
      << RecentRate("ucr_shadow_mismatch_total")
      << ",\"slow_query_rate\":" << RecentRate("ucr_slow_queries_total")
      << ",\"phases\":" << RenderPhasePanel()
      << ",\"profiler\":" << RenderProfilerStats()
      << ",\"sampler\":{\"running\":" << (ts.running() ? "true" : "false")
      << ",\"interval_ms\":" << ts.options().interval_ms
      << ",\"ticks\":" << ts.ticks_total() << "}"
      << ",\"health\":" << HealthEngine::Global().RenderJson() << "}";
  return out.str();
}

/// /healthz: JSON verdict once the health engine has evaluated (503 on
/// failing so probes and load balancers eject the instance); the
/// legacy bare "ok" liveness reply before that, preserving existing
/// scrapers on processes that never run the sampler.
std::string RenderHealthz(std::string* content_type, int* http_status) {
  const HealthEngine& engine = HealthEngine::Global();
  const HealthVerdict verdict = engine.last_verdict();
  if (verdict.rules.empty()) {
    *content_type = "text/plain; charset=utf-8";
    return "ok\n";
  }
  *content_type = "application/json";
  if (http_status != nullptr && verdict.status == HealthStatus::kFailing) {
    *http_status = 503;
  }
  return engine.RenderJson();
}

/// /tracez: recent sampled traces plus the shadow mismatch dump — the
/// live debugging surface.
std::string RenderTracez() {
  std::ostringstream out;
  out << "{\"traces\":[";
  bool first = true;
  for (const QueryTraceRecord& record : QueryTracer::Global().Snapshot()) {
    out << (first ? "" : ",") << ToJson(record);
    first = false;
  }
  out << "],\"shadow_mismatches\":[";
  first = true;
  for (const ShadowVerifier::Mismatch& m :
       ShadowVerifier::Global().RecentMismatches()) {
    out << (first ? "" : ",") << "{\"sequence\":" << m.sequence
        << ",\"subject\":" << m.subject << ",\"object\":" << m.object
        << ",\"right\":" << m.right
        << ",\"strategy_index\":" << static_cast<int>(m.strategy_index)
        << ",\"fast_granted\":" << (m.fast.granted ? "true" : "false")
        << ",\"oracle_granted\":" << (m.oracle.granted ? "true" : "false")
        << "}";
    first = false;
  }
  out << "]}";
  return out.str();
}
#endif  // UCR_METRICS_ENABLED

}  // namespace

bool HttpExporter::RenderEndpoint(const std::string& path, std::string* body,
                                  std::string* content_type,
                                  int* http_status) {
  if (http_status != nullptr) *http_status = 200;
#if UCR_METRICS_ENABLED
  if (path == "/metrics") {
    *body = Registry::Global().RenderPrometheus();
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/healthz") {
    *body = RenderHealthz(content_type, http_status);
    return true;
  }
  if (path == "/varz") {
    *body = RenderVarz();
    *content_type = "application/json";
    return true;
  }
  if (path == "/tracez") {
    *body = RenderTracez();
    *content_type = "application/json";
    return true;
  }
  if (path == "/timeseries") {
    *body = TimeSeriesSampler::Global().RenderJson();
    *content_type = "application/json";
    return true;
  }
  if (path == "/statz") {
    *body = RenderStatz();
    *content_type = "application/json";
    return true;
  }
  if (path == "/profilez") {
    // Folded stacks (flamegraph.pl / speedscope input). Empty until
    // the wall profiler has been started and captured samples.
    *body = WallProfiler::Global().RenderFolded();
    *content_type = "text/plain; charset=utf-8";
    return true;
  }
#else
  (void)path;
  (void)body;
  (void)content_type;
#endif
  return false;
}

#if UCR_METRICS_ENABLED

HttpExporter::~HttpExporter() { Stop(); }

bool HttpExporter::Start(uint16_t port, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (running_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "exporter already running";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(listen_fd_, 16) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_relaxed);
  server_ = std::thread([this] { ServeLoop(); });
  return true;
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // shutdown() unblocks the accept() in the serving thread.
  ::shutdown(listen_fd_, SHUT_RDWR);
  server_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void HttpExporter::ServeLoop() {
  static Counter& requests_metric = Registry::Global().GetCounter(
      "ucr_http_requests_total", "Requests served by the exposition server");
  static Counter& timeouts_metric = Registry::Global().GetCounter(
      "ucr_http_client_timeouts_total",
      "Connections dropped because the client stalled past the socket "
      "timeout");
  while (running_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // shutdown() during Stop lands here.
      if (!running_.load(std::memory_order_relaxed)) return;
      continue;
    }
    // The accept loop is single-threaded, so one client that connects
    // and never sends (or never reads the response) must not block it
    // forever: bound every socket operation with the configured
    // timeout and drop the connection when it fires.
    if (client_timeout_ms_ > 0) {
      timeval tv{};
      tv.tv_sec = client_timeout_ms_ / 1000;
      tv.tv_usec = static_cast<long>(client_timeout_ms_ % 1000) * 1000;
      ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    // One short request per connection; read until the header break or
    // the buffer fills (request bodies are ignored — all endpoints are
    // GET).
    char buffer[2048];
    size_t total = 0;
    bool stalled = false;
    while (total < sizeof(buffer) - 1) {
      const ssize_t n =
          ::recv(client, buffer + total, sizeof(buffer) - 1 - total, 0);
      // The wall profiler's SIGPROF lands on this thread too (§14
      // EINTR audit): an interrupted read is retried, not treated as a
      // disconnect or a stall.
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        stalled = true;
        break;
      }
      if (n <= 0) break;
      total += static_cast<size_t>(n);
      buffer[total] = '\0';
      if (std::strstr(buffer, "\r\n\r\n") != nullptr ||
          std::strstr(buffer, "\n\n") != nullptr) {
        break;
      }
    }
    buffer[total] = '\0';
    if (stalled) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      timeouts_metric.Inc();
      ::close(client);
      continue;
    }

    // Parse "<METHOD> <path> ..." from the request line.
    std::string method;
    std::string path;
    {
      const char* p = buffer;
      while (*p != '\0' && *p != ' ' && *p != '\r' && *p != '\n') {
        method += *p++;
      }
      while (*p == ' ') ++p;
      while (*p != '\0' && *p != ' ' && *p != '?' && *p != '\r' &&
             *p != '\n') {
        path += *p++;
      }
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric.Inc();

    std::string body;
    std::string content_type;
    std::string status_line;
    int http_status = 200;
    if (method != "GET") {
      status_line = "HTTP/1.1 405 Method Not Allowed";
      body = "method not allowed\n";
      content_type = "text/plain; charset=utf-8";
    } else if (RenderEndpoint(path, &body, &content_type, &http_status)) {
      status_line = http_status == 503
                        ? "HTTP/1.1 503 Service Unavailable"
                        : "HTTP/1.1 200 OK";
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "not found; try /metrics /healthz /varz /tracez /timeseries "
             "/statz /profilez\n";
      content_type = "text/plain; charset=utf-8";
    }

    std::ostringstream response;
    response << status_line << "\r\nContent-Type: " << content_type
             << "\r\nContent-Length: " << body.size()
             << "\r\nConnection: close\r\n\r\n"
             << body;
    const std::string out = response.str();
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(client, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;  // §14 EINTR audit.
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(client);
  }
}

#else  // !UCR_METRICS_ENABLED

HttpExporter::~HttpExporter() = default;

bool HttpExporter::Start(uint16_t port, std::string* error) {
  (void)port;
  if (error != nullptr) {
    *error = "instrumentation compiled out (UCR_METRICS=OFF)";
  }
  return false;
}

void HttpExporter::Stop() {}

void HttpExporter::ServeLoop() {}

#endif  // UCR_METRICS_ENABLED

}  // namespace ucr::obs
