// ucr_admin: a small administration CLI over a persisted ucr system
// file (core/storage.h). Demonstrates the full operational loop the
// paper envisions: one installed system, policy edits and *strategy*
// changes applied as data, decisions and their explanations on tap.
//
// Usage:
//   ucr_admin demo <file>                      write the Fig. 1 system
//   ucr_admin info <file>
//   ucr_admin grant  <file> <subject> <object> <right>
//   ucr_admin deny   <file> <subject> <object> <right>
//   ucr_admin revoke <file> <subject> <object> <right>
//   ucr_admin add-member    <file> <group> <member>
//   ucr_admin remove-member <file> <group> <member>
//   ucr_admin set-strategy <file> <mnemonic>
//   ucr_admin check   <file> <subject> <object> <right>
//   ucr_admin explain <file> <subject> <object> <right>
//   ucr_admin metrics <file> [prom|json]       sweep + metrics snapshot
//   ucr_admin trace   <file> <subject> <object> <right>
//   ucr_admin serve   <file> [port]            live exposition server
//   ucr_admin top <host:port> [--once]         terminal dashboard over
//                                              a running serve instance
//
// Durable-store verbs (core/persistent_system.h; <dir> holds a binary
// snapshot plus a MutationOp WAL):
//   ucr_admin import  <file> <dir>             seed a store from a
//                                              text system file
//   ucr_admin recover <dir>                    replay the WAL, repair
//                                              any torn tail, report
//   ucr_admin compact <dir>                    fold the WAL into a
//                                              fresh snapshot
//
// Exit codes: 0 success, 1 operation failed, 2 bad usage, 3 the system
// file could not be loaded.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/explain.h"
#include "core/persistent_system.h"
#include "core/storage.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/audit_log.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "paper/paper_example.h"

#ifndef UCR_ADMIN_VERSION
#define UCR_ADMIN_VERSION "dev"
#endif

namespace {

using namespace ucr;  // NOLINT(build/namespaces): example brevity.

constexpr int kExitOperationFailed = 1;
constexpr int kExitBadUsage = 2;
constexpr int kExitLoadFailed = 3;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return kExitOperationFailed;
}

int Demo(const std::string& path) {
  core::PaperExample ex = core::MakePaperExample();
  core::AccessControlSystem system(std::move(ex.dag));
  for (const auto& [subject, mode] :
       {std::pair{"S2", '+'}, {"S4", '+'}, {"S5", '-'}}) {
    const Status status = mode == '+'
                              ? system.Grant(subject, "obj", "read")
                              : system.DenyAccess(subject, "obj", "read");
    if (!status.ok()) return Fail(status);
  }
  system.SetStrategy(core::ParseStrategy("D+LP-").value());
  const Status saved = core::SaveSystemToFile(system, path);
  if (!saved.ok()) return Fail(saved);
  std::cout << "wrote the paper's Fig. 1 system (strategy D+LP-) to "
            << path << "\n";
  return 0;
}

void PrintStoreSummary(const core::PersistentSystem& store) {
  const core::AccessControlSystem& system = store.system();
  std::cout << "subjects:       " << system.dag().node_count() << "\n"
            << "memberships:    " << system.dag().edge_count() << "\n"
            << "authorizations: " << system.eacm().size() << "\n"
            << "strategy:       " << system.strategy().ToMnemonic() << "\n"
            << "last lsn:       " << store.last_lsn() << "\n";
}

// Seeds a durable store directory from a text system file: one binary
// snapshot at LSN 0 plus an empty WAL. Refuses to clobber an existing
// store.
int Import(const std::string& file, const std::string& dir) {
  auto system = core::LoadSystemFromFile(file);
  if (!system.ok()) {
    std::cerr << "error: cannot load '" << file
              << "': " << system.status().ToString() << "\n";
    return kExitLoadFailed;
  }
  const Status status = core::PersistentSystem::Initialize(dir, *system);
  if (!status.ok()) return Fail(status);
  std::cout << "imported " << file << " into store " << dir << "\n";
  return 0;
}

// Opening IS recovery (snapshot + WAL replay + torn-tail repair); the
// verb makes it explicit and reports what recovery found.
int Recover(const std::string& dir) {
  core::PersistentSystem::OpenStats stats;
  auto store = core::PersistentSystem::Open(dir, {}, &stats);
  if (!store.ok()) {
    std::cerr << "error: cannot recover '" << dir
              << "': " << store.status().ToString() << "\n";
    return kExitLoadFailed;
  }
  std::cout << "recovered " << dir << "\n"
            << "snapshot:       "
            << (stats.loaded_snapshot
                    ? "loaded (lsn " + std::to_string(stats.snapshot_lsn) + ")"
                    : "none")
            << "\n"
            << "wal batches:    " << stats.replayed_batches << " replayed ("
            << stats.replayed_ops << " ops)\n"
            << "uncommitted:    " << stats.discarded_ops << " ops discarded\n"
            << "torn tail:      " << stats.torn_bytes << " bytes truncated\n";
  PrintStoreSummary(*store);
  return 0;
}

int CompactStore(const std::string& dir) {
  core::PersistentSystem::OpenStats stats;
  auto store = core::PersistentSystem::Open(dir, {}, &stats);
  if (!store.ok()) {
    std::cerr << "error: cannot open '" << dir
              << "': " << store.status().ToString() << "\n";
    return kExitLoadFailed;
  }
  const Status status = store->Compact();
  if (!status.ok()) return Fail(status);
  std::cout << "compacted " << dir << " (" << stats.replayed_batches
            << " wal batches folded into the snapshot at lsn "
            << store->last_lsn() << ")\n";
  return 0;
}

int WithSystem(const std::string& path,
               const std::function<int(core::AccessControlSystem&)>& body,
               bool save_back) {
  auto system = core::LoadSystemFromFile(path);
  if (!system.ok()) {
    std::cerr << "error: cannot load '" << path
              << "': " << system.status().ToString() << "\n";
    return kExitLoadFailed;
  }
  const int rc = body(*system);
  if (rc == 0 && save_back) {
    const Status saved = core::SaveSystemToFile(*system, path);
    if (!saved.ok()) return Fail(saved);
  }
  return rc;
}

// Runs every ⟨subject, object, right⟩ query in the system once so the
// metrics snapshot reflects a full decision sweep, then renders the
// registry. `format` is "prom", "json", or "" (both).
int Metrics(const std::string& path, const std::string& format) {
  return WithSystem(path, [&](core::AccessControlSystem& system) {
    const size_t subjects = system.dag().node_count();
    const size_t objects = system.eacm().object_count();
    const size_t rights = system.eacm().right_count();
    // Latency histograms only record sampled queries (the hot path
    // skips the clock for the rest); sweep at interval 1 so every
    // decision lands in the histograms, then restore.
    const uint64_t previous = obs::QueryTracer::Global().sample_interval();
    obs::QueryTracer::Global().SetSampleInterval(1);
    for (size_t s = 0; s < subjects; ++s) {
      for (size_t o = 0; o < objects; ++o) {
        for (size_t r = 0; r < rights; ++r) {
          auto mode = system.CheckAccess(
              static_cast<graph::NodeId>(s), static_cast<acm::ObjectId>(o),
              static_cast<acm::RightId>(r), system.strategy());
          if (!mode.ok()) return Fail(mode.status());
        }
      }
    }
    obs::QueryTracer::Global().SetSampleInterval(previous);
    if (format.empty() || format == "prom") {
      std::cout << obs::Registry::Global().RenderPrometheus();
    }
    if (format.empty() || format == "json") {
      const std::string json = obs::Registry::Global().RenderJson();
      if (!obs::JsonLooksValid(json)) {
        return Fail(
            Status::FailedPrecondition("metrics JSON failed validation"));
      }
      std::cout << json << "\n";
    }
    return 0;
  }, /*save_back=*/false);
}

// Forces the tracer to sample the next query, runs it, and prints the
// audit-grade record: the Fig. 4 derivation plus the full span JSON.
int Trace(const std::string& path, const std::string& subject,
          const std::string& object, const std::string& right) {
  return WithSystem(path, [&](core::AccessControlSystem& system) {
    const uint64_t previous = obs::QueryTracer::Global().sample_interval();
    obs::QueryTracer::Global().SetSampleInterval(1);
    auto mode = system.CheckAccessByName(subject, object, right);
    obs::QueryTracer::Global().SetSampleInterval(previous);
    if (!mode.ok()) return Fail(mode.status());
    const std::vector<obs::QueryTraceRecord> records =
        obs::QueryTracer::Global().Snapshot();
    if (records.empty()) {
      return Fail(Status::FailedPrecondition(
          "no trace captured (built with UCR_METRICS=OFF?)"));
    }
    const obs::QueryTraceRecord& record = records.back();
    const core::Strategy& strategy =
        core::AllStrategies()[record.strategy_index];
    std::cout << subject << (mode.value() == acm::Mode::kPositive
                                 ? " MAY "
                                 : " may NOT ")
              << right << " " << object << " (strategy "
              << strategy.ToMnemonic() << ")\n"
              << obs::ToFig4String(record) << "\n"
              << obs::ToJson(record) << "\n";
    return 0;
  }, /*save_back=*/false);
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

// ---------------------------------------------------------------------------
// top: a dependency-free refreshing dashboard over a serve instance.
// Plain sockets + anchored field extraction from /statz — both ends of
// the protocol live in this repo, so a JSON library would be dead
// weight in an example binary.

/// One short HTTP/1.1 GET against host:port. Returns false on any
/// socket failure; fills the response body and status code otherwise.
bool HttpGetBody(const std::string& host, uint16_t port,
                 const std::string& path, std::string* body,
                 int* status_code) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host +
      "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  if (status_code != nullptr) {
    *status_code = std::atoi(response.c_str() + response.find(' ') + 1);
  }
  *body = response.substr(header_end + 4);
  return true;
}

/// The numeric value following `"key":` (first occurrence; /statz keys
/// are unique at the level we read). 0 when absent.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string anchor = "\"" + key + "\":";
  const size_t pos = json.find(anchor);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + anchor.size(), nullptr);
}

/// The string value following `anchor` (which must end just before the
/// opening quote). Empty when absent.
std::string JsonStringAfter(const std::string& json,
                            const std::string& anchor) {
  const size_t pos = json.find(anchor);
  if (pos == std::string::npos) return "";
  const size_t start = pos + anchor.size();
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

/// Every `"reason":"..."` in the health object, for the verdict lines.
std::vector<std::string> JsonReasons(const std::string& json) {
  std::vector<std::string> reasons;
  size_t pos = 0;
  const std::string anchor = "\"reason\":\"";
  while ((pos = json.find(anchor, pos)) != std::string::npos) {
    const size_t start = pos + anchor.size();
    const size_t end = json.find('"', start);
    if (end == std::string::npos) break;
    reasons.push_back(json.substr(start, end - start));
    pos = end;
  }
  return reasons;
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns <= 0) {
    return "-";
  } else if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

int Top(const std::string& target, bool once) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    std::cerr << "error: top expects <host:port>, got '" << target << "'\n";
    return kExitBadUsage;
  }
  const std::string host = target.substr(0, colon);
  const long port = std::strtol(target.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::cerr << "error: bad port in '" << target << "'\n";
    return kExitBadUsage;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::string body;
    int status = 0;
    if (!HttpGetBody(host, static_cast<uint16_t>(port), "/statz", &body,
                     &status)) {
      std::cerr << "error: cannot reach http://" << target << "/statz\n";
      return kExitOperationFailed;
    }
    std::ostringstream screen;
    const std::string health =
        JsonStringAfter(body, "\"health\":{\"status\":\"");
    screen << "ucr " << target << "  —  "
           << (once ? "single shot" : "refreshing 1s, Ctrl-C quits") << "\n\n"
           << "  qps          " << JsonNumber(body, "qps") << "\n"
           << "  p99          resolve " << FormatNs(JsonNumber(body, "resolve_p99_ns"))
           << "   snapshot " << FormatNs(JsonNumber(body, "snapshot_p99_ns"))
           << "\n"
           << "  table hits   snapshot "
           << JsonNumber(body, "snapshot_cache_hit_rate") * 100.0 << "%\n"
           << "  epoch        publish " << JsonNumber(body, "epoch_publish_rate")
           << "/s   lag " << JsonNumber(body, "epoch_lag") << "\n"
           << "  rates        slow " << JsonNumber(body, "slow_query_rate")
           << "/s   audit drop " << JsonNumber(body, "audit_drop_rate")
           << "/s   shadow mismatch "
           << JsonNumber(body, "shadow_mismatch_rate") << "/s\n"
           << "  sampler      ticks " << JsonNumber(body, "ticks") << "\n"
           << "  health       " << (health.empty() ? "(no engine)" : health)
           << "\n";
    for (const std::string& reason : JsonReasons(body)) {
      screen << "    ! " << reason << "\n";
    }
    if (!once) {
      // Clear + home keeps the dashboard in place between refreshes.
      std::cout << "\033[2J\033[H";
    }
    std::cout << screen.str() << std::flush;
    if (once) return 0;
    for (int i = 0; i < 10 && g_stop_requested == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}

// profile: pull the wall profiler's folded stacks off a running serve
// instance. Default is a windowed profile — fetch /profilez, wait
// `seconds`, fetch again, and print the per-stack count difference so
// the output covers exactly the window (serve keeps its profiler
// running for the life of the process). --once prints the cumulative
// profile from a single fetch instead. Both outputs are flamegraph.pl
// / speedscope "folded stacks" input.
int Profile(const std::string& target, int seconds, bool once) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    std::cerr << "error: profile expects <host:port>, got '" << target
              << "'\n";
    return kExitBadUsage;
  }
  const std::string host = target.substr(0, colon);
  const long port = std::strtol(target.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::cerr << "error: bad port in '" << target << "'\n";
    return kExitBadUsage;
  }
  const auto fetch_folded = [&](std::map<std::string, uint64_t>* out) {
    std::string body;
    int status = 0;
    if (!HttpGetBody(host, static_cast<uint16_t>(port), "/profilez", &body,
                     &status) ||
        status != 200) {
      std::cerr << "error: cannot reach http://" << target << "/profilez\n";
      return false;
    }
    size_t pos = 0;
    while (pos < body.size()) {
      size_t eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size();
      const std::string line = body.substr(pos, eol - pos);
      pos = eol + 1;
      const size_t space = line.rfind(' ');
      if (space == std::string::npos || space == 0) continue;
      const uint64_t count =
          std::strtoull(line.c_str() + space + 1, nullptr, 10);
      if (count > 0) (*out)[line.substr(0, space)] += count;
    }
    return true;
  };
  std::map<std::string, uint64_t> before;
  if (!once) {
    if (!fetch_folded(&before)) return kExitOperationFailed;
    std::cerr << "profiling " << target << " for " << seconds << "s...\n";
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
  }
  std::map<std::string, uint64_t> after;
  if (!fetch_folded(&after)) return kExitOperationFailed;
  uint64_t total = 0;
  for (const auto& [stack, count] : after) {
    const auto it = before.find(stack);
    const uint64_t prior = it == before.end() ? 0 : it->second;
    if (count > prior) {
      std::cout << stack << " " << (count - prior) << "\n";
      total += count - prior;
    }
  }
  if (total == 0) {
    std::cerr << "no samples captured (is the profiler running? serve "
                 "starts it automatically)\n";
    return kExitOperationFailed;
  }
  std::cerr << total << " samples\n";
  return 0;
}

// Long-running operational mode (DESIGN.md §9, §11): loads the system,
// enables epoch-pinned snapshot reads, starts the audit log (rotating
// file next to the system file), turns on 1-in-64 shadow verification,
// and serves /metrics /healthz /varz /tracez until SIGINT or SIGTERM.
// The demo traffic loop alternates classic and snapshot sweeps so the
// epoch gauges in /varz show live numbers.
int Serve(const std::string& path, uint16_t port) {
  return WithSystem(path, [&](core::AccessControlSystem& system) {
    system.EnableSnapshotReads();
    obs::AuditLogOptions audit_options;
    const std::string audit_path = path + ".audit.jsonl";
    auto file_sink = std::make_unique<obs::RotatingFileSink>(audit_path);
    if constexpr (obs::kEnabled) {
      if (!file_sink->ok()) {
        return Fail(Status::Internal("cannot open audit log " + audit_path));
      }
    }
    audit_options.sinks.push_back(std::move(file_sink));
    obs::AuditLog::Global().Start(std::move(audit_options));
    obs::ShadowVerifier::Global().SetInterval(64);
    // Telemetry timeline + live health verdict (DESIGN.md §13): the
    // sampler retains two tiers of history for /timeseries and /statz,
    // and each tick re-evaluates the /healthz rules. Start failures are
    // non-fatal (already running, or metrics compiled out — in which
    // case the exporter refuses to start below anyway).
    obs::TimeSeriesSampler::Global().Start();
    // Continuous wall-clock profiling (DESIGN.md §14): 97 Hz SIGPROF
    // sampling for the life of the serve process, read back through
    // /profilez or `ucr_admin profile`.
    obs::WallProfiler::Global().Start();
    const auto stop_telemetry = [] {
      obs::WallProfiler::Global().Stop();
      obs::TimeSeriesSampler::Global().Stop();
    };

    obs::HttpExporter exporter;
    std::string error;
    if (!exporter.Start(port, &error)) {
      stop_telemetry();
      obs::AuditLog::Global().Stop();
      return Fail(Status::Internal("cannot start exporter: " + error));
    }
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    // First line, flushed before the banner and before any traffic:
    // "listening <host>:<port>". With port 0 the kernel picks the
    // port, so scripts (and tests/serve_endpoint_test.py) parse this
    // line instead of racing a fixed port or scraping the banner.
    std::cout << "listening 127.0.0.1:" << exporter.port() << std::endl;
    std::cout << "serving http://127.0.0.1:" << exporter.port()
              << "/{metrics,healthz,varz,tracez,timeseries,statz,profilez}\n"
              << "audit log: " << audit_path << "\n"
              << "shadow verification: 1-in-64\n"
              << "telemetry: 1s sampler, health rules evaluated every "
                 "tick (try `ucr_admin top 127.0.0.1:"
              << exporter.port() << "`)\n"
              << "profiler: 97 Hz wall-clock sampler (try `ucr_admin "
                 "profile 127.0.0.1:"
              << exporter.port() << " 5`)\n"
              << "snapshot reads: enabled (epoch "
              << system.snapshots()->current_epoch() << ")\n"
              << "press Ctrl-C to stop" << std::endl;

    // Background decision traffic: sweep every triple under the
    // session strategy so the exported counters, histograms, traces
    // and shadow checks reflect a live system rather than zeros.
    // Even sweeps use the classic facade path, odd sweeps the
    // epoch-pinned snapshot path, so both metric families move.
    const size_t subjects = system.dag().node_count();
    const size_t objects = system.eacm().object_count();
    const size_t rights = system.eacm().right_count();
    uint64_t sweep = 0;
    while (g_stop_requested == 0) {
      const bool use_snapshot = (sweep++ % 2) == 1;
      for (size_t s = 0; s < subjects && g_stop_requested == 0; ++s) {
        for (size_t o = 0; o < objects; ++o) {
          for (size_t r = 0; r < rights; ++r) {
            const auto subject = static_cast<graph::NodeId>(s);
            const auto object = static_cast<acm::ObjectId>(o);
            const auto right = static_cast<acm::RightId>(r);
            auto mode =
                use_snapshot
                    ? system.CheckAccessSnapshot(subject, object, right)
                    : system.CheckAccess(subject, object, right,
                                         system.strategy());
            if (!mode.ok()) {
              exporter.Stop();
              stop_telemetry();
              obs::AuditLog::Global().Stop();
              return Fail(mode.status());
            }
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::cout << "\nstopping (" << exporter.requests_total()
              << " requests served)\n";
    exporter.Stop();
    stop_telemetry();
    obs::ShadowVerifier::Global().SetInterval(0);
    obs::AuditLog::Global().Stop();
    return 0;
  }, /*save_back=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: ucr_admin <command> <file> [args...]\n"
      "\n"
      "commands:\n"
      "  demo <file>                          write the Fig. 1 system\n"
      "  info <file>                          summarize the system\n"
      "  grant  <file> <subject> <object> <right>\n"
      "  deny   <file> <subject> <object> <right>\n"
      "  revoke <file> <subject> <object> <right>\n"
      "  add-member    <file> <group> <member>\n"
      "  remove-member <file> <group> <member>\n"
      "  set-strategy <file> <mnemonic>       e.g. D+LP-\n"
      "  check   <file> <subject> <object> <right>\n"
      "  explain <file> <subject> <object> <right>\n"
      "  metrics <file> [prom|json]           sweep + metrics snapshot\n"
      "  trace   <file> <subject> <object> <right>\n"
      "  serve   <file> [port]                live exposition server\n"
      "                                       (default port 9464) with\n"
      "                                       audit log, shadow checks,\n"
      "                                       health on each sampler tick\n"
      "  top <host:port> [--once]             refreshing dashboard over\n"
      "                                       a running serve instance\n"
      "                                       (--once prints one frame)\n"
      "  profile <host:port> [seconds] [--once]\n"
      "                                       folded wall-clock stacks\n"
      "                                       from a running serve\n"
      "                                       instance (default 10s\n"
      "                                       window; --once dumps the\n"
      "                                       cumulative profile)\n"
      "\n"
      "durable store (a <dir> holds a binary snapshot + MutationOp WAL):\n"
      "  import  <file> <dir>                 seed a store from a text\n"
      "                                       system file\n"
      "  recover <dir>                        replay the WAL, repair a\n"
      "                                       torn tail, report state\n"
      "  compact <dir>                        fold the WAL into a fresh\n"
      "                                       snapshot (atomic rename)\n"
      "\n"
      "flags: --help, --version\n"
      "exit codes: 0 ok, 1 operation failed, 2 bad usage, 3 load failed\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    }
    if (arg == "--version") {
      std::cout << "ucr_admin " << UCR_ADMIN_VERSION << "\n";
      return 0;
    }
  }
  if (argc < 3) {
    std::cerr << usage;
    return kExitBadUsage;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];

  if (command == "demo") return Demo(path);

  if (command == "recover" || command == "compact") {
    if (argc != 3) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    return command == "recover" ? Recover(path) : CompactStore(path);
  }

  if (command == "import") {
    if (argc != 4) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    return Import(path, argv[3]);
  }

  if (command == "profile") {
    int seconds = 10;
    bool once = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--once") {
        once = true;
      } else {
        char* end = nullptr;
        const long parsed = std::strtol(arg.c_str(), &end, 10);
        if (end == arg.c_str() || *end != '\0' || parsed < 1 ||
            parsed > 3600) {
          std::cerr << "profile: seconds must be 1..3600\n";
          return kExitBadUsage;
        }
        seconds = static_cast<int>(parsed);
      }
    }
    return Profile(path, seconds, once);
  }

  if (command == "top") {
    if (argc != 3 && !(argc == 4 && std::string(argv[3]) == "--once")) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    return Top(path, /*once=*/argc == 4);
  }

  if (command == "serve") {
    if (argc != 3 && argc != 4) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    uint16_t port = 9464;
    if (argc == 4) {
      char* end = nullptr;
      const long parsed = std::strtol(argv[3], &end, 10);
      if (end == argv[3] || *end != '\0' || parsed < 0 || parsed > 65535) {
        std::cerr << "serve: port must be 0..65535 (0 = ephemeral)\n";
        return kExitBadUsage;
      }
      port = static_cast<uint16_t>(parsed);
    }
    return Serve(path, port);
  }

  if (command == "info") {
    return WithSystem(path, [](core::AccessControlSystem& system) {
      std::cout << "subjects:       " << system.dag().node_count() << " ("
                << system.dag().Sinks().size() << " sinks)\n"
                << "memberships:    " << system.dag().edge_count() << "\n"
                << "authorizations: " << system.eacm().size() << "\n"
                << "strategy:       " << system.strategy().ToMnemonic()
                << "\n";
      return 0;
    }, /*save_back=*/false);
  }

  if (command == "set-strategy") {
    if (argc != 4) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    auto strategy = core::ParseStrategy(argv[3]);
    if (!strategy.ok()) return Fail(strategy.status());
    return WithSystem(path, [&](core::AccessControlSystem& system) {
      system.SetStrategy(*strategy);
      std::cout << "strategy is now " << strategy->ToMnemonic() << "\n";
      return 0;
    }, /*save_back=*/true);
  }

  if (command == "add-member" || command == "remove-member") {
    if (argc != 5) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    const std::string group = argv[3];
    const std::string member = argv[4];
    return WithSystem(path, [&](core::AccessControlSystem& system) {
      const Status status = command == "add-member"
                                ? system.AddMembership(group, member)
                                : system.RemoveMembership(group, member);
      if (!status.ok()) return Fail(status);
      std::cout << member << (command == "add-member" ? " joined "
                                                      : " left ")
                << group << "\n";
      return 0;
    }, /*save_back=*/true);
  }

  if (command == "metrics") {
    if (argc != 3 && argc != 4) {
      std::cerr << usage;
      return kExitBadUsage;
    }
    const std::string format = argc == 4 ? argv[3] : "";
    if (!format.empty() && format != "prom" && format != "json") {
      std::cerr << "metrics format must be 'prom' or 'json'\n";
      return kExitBadUsage;
    }
    return Metrics(path, format);
  }

  if (argc != 6) {
    std::cerr << usage;
    return kExitBadUsage;
  }
  const std::string subject = argv[3];
  const std::string object = argv[4];
  const std::string right = argv[5];

  if (command == "grant" || command == "deny" || command == "revoke") {
    return WithSystem(path, [&](core::AccessControlSystem& system) {
      const Status status =
          command == "grant"  ? system.Grant(subject, object, right)
          : command == "deny" ? system.DenyAccess(subject, object, right)
                              : system.Revoke(subject, object, right);
      if (!status.ok()) return Fail(status);
      std::cout << command << " applied\n";
      return 0;
    }, /*save_back=*/true);
  }

  if (command == "trace") return Trace(path, subject, object, right);

  if (command == "check" || command == "explain") {
    return WithSystem(path, [&](core::AccessControlSystem& system) {
      auto mode = system.CheckAccessByName(subject, object, right);
      if (!mode.ok()) return Fail(mode.status());
      std::cout << subject << (mode.value() == acm::Mode::kPositive
                                   ? " MAY "
                                   : " may NOT ")
                << right << " " << object << " (strategy "
                << system.strategy().ToMnemonic() << ")\n";
      if (command == "explain") {
        const graph::NodeId s = system.dag().FindNode(subject);
        auto o = system.eacm().FindObject(object);
        auto r = system.eacm().FindRight(right);
        if (o.ok() && r.ok()) {
          auto explanation = core::ExplainAccess(
              system.dag(), system.eacm(), s, *o, *r, system.strategy());
          if (!explanation.ok()) return Fail(explanation.status());
          std::cout << explanation->ToString(system.dag());
        }
      }
      return 0;
    }, /*save_back=*/false);
  }

  std::cerr << usage;
  return kExitBadUsage;
}
