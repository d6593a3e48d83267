#ifndef UCR_OBS_HTTP_EXPORTER_H_
#define UCR_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace ucr::obs {

/// \brief Dependency-free blocking HTTP/1.1 exposition server
/// (DESIGN.md §9, §13): one dedicated accept thread, one request per
/// connection (`Connection: close`), six read-only endpoints:
///
///   /metrics     Prometheus text (text/plain; version=0.0.4)
///   /healthz     health verdict; 503 + JSON reasons when the health
///                engine reports failing, legacy "ok" when no engine
///                has evaluated
///   /varz        JSON snapshot: metrics + tracer/audit/shadow/health
///                and time-series status
///   /tracez      JSON: recent sampled traces + last shadow mismatches
///   /timeseries  JSON: the sampler's retained two-tier history
///   /statz       JSON: one-page operator summary (qps, tail latency,
///                snapshot-table hit rate, epoch churn, health) — what
///                `ucr_admin top` polls
///
/// Binds 127.0.0.1 only — this is an operator/scrape port, not a
/// public API. Under `UCR_METRICS=OFF`, `Start` fails with an
/// explanatory error and everything else is a no-op.
class HttpExporter {
 public:
  HttpExporter() = default;
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds `port` (0 picks an ephemeral port) and starts the serving
  /// thread. Returns false on failure with a reason in `error`.
  bool Start(uint16_t port, std::string* error = nullptr);

  /// Unblocks the accept loop and joins the thread. Idempotent.
  void Stop();

  /// Per-connection socket timeout (SO_RCVTIMEO/SO_SNDTIMEO) applied
  /// to every accepted client. A client that connects and never sends
  /// a request — or stops reading the response — is dropped after this
  /// long instead of wedging the single-threaded accept loop forever.
  /// Set before Start; 0 restores fully blocking sockets.
  void set_client_timeout_ms(uint32_t ms) { client_timeout_ms_ = ms; }
  uint32_t client_timeout_ms() const { return client_timeout_ms_; }

  /// Connections dropped because the client stalled past the timeout.
  uint64_t timeouts_total() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// The bound port (useful after Start(0)); 0 when not running.
  uint16_t port() const { return port_; }

  uint64_t requests_total() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Builds the response body + content type for `path`. Exposed for
  /// tests; returns false for unknown paths (a 404). When
  /// `http_status` is non-null it receives the response code (200
  /// unless an endpoint overrides it — /healthz returns 503 while the
  /// health engine reports failing).
  static bool RenderEndpoint(const std::string& path, std::string* body,
                             std::string* content_type,
                             int* http_status = nullptr);

 private:
  void ServeLoop();

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint32_t client_timeout_ms_ = 5000;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::thread server_;
};

}  // namespace ucr::obs

#endif  // UCR_OBS_HTTP_EXPORTER_H_
