#include "obs/audit_log.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace ucr::obs {

std::string_view AuditEventTypeName(AuditEventType type) {
  switch (type) {
    case AuditEventType::kGrant: return "grant";
    case AuditEventType::kDeny: return "deny";
    case AuditEventType::kRevoke: return "revoke";
    case AuditEventType::kAddMember: return "add_member";
    case AuditEventType::kRemoveMember: return "remove_member";
    case AuditEventType::kStrategyChange: return "strategy_change";
    case AuditEventType::kEpochBump: return "epoch_bump";
    case AuditEventType::kAccessDecision: return "access_decision";
    case AuditEventType::kSlowQuery: return "slow_query";
    case AuditEventType::kShadowMismatch: return "shadow_mismatch";
    case AuditEventType::kHealthTransition: return "health_transition";
    case AuditEventType::kWalCommit: return "wal_commit";
  }
  return "unknown";
}

namespace {

/// JSON string escaping for the free-form detail field (quotes,
/// backslashes, control characters).
void AppendEscaped(std::ostringstream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

/// The detail of a slow-query or shadow-mismatch event, rendered from
/// its record: the compact Fig. 4 derivation plus the nonzero phases
/// for a slow query (the phase that made it slow, DESIGN.md §14), both
/// derivations for a shadow mismatch.
std::string DecisionDetail(const AuditEvent& e) {
  const QueryTraceRecord& r = e.record;
  if (e.type == AuditEventType::kShadowMismatch) {
    return std::string("fast=") + (r.granted ? "+" : "-") +
           " oracle=" + (e.oracle.granted ? "+" : "-") +
           " | fast: " + FormatFig4Compact(r) +
           " | oracle: " + FormatFig4Compact(e.oracle);
  }
  std::string detail = FormatFig4Compact(r);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (r.phases.ns[i] == 0) continue;
    detail += ' ';
    detail += PhaseName(static_cast<Phase>(i));
    detail += '=' + std::to_string(r.phases.ns[i]) + "ns";
  }
  return detail;
}

}  // namespace

std::string AuditEventToJson(const AuditEvent& e) {
  std::ostringstream out;
  out << "{\"seq\":" << e.sequence << ",\"ts_unix_ns\":" << e.wall_ns
      << ",\"type\":\"" << AuditEventTypeName(e.type) << "\"";
  const bool derived_detail = e.type == AuditEventType::kSlowQuery ||
                              e.type == AuditEventType::kShadowMismatch;
  if (derived_detail || e.type == AuditEventType::kAccessDecision) {
    const QueryTraceRecord& r = e.record;
    out << ",\"subject\":" << r.subject << ",\"object\":" << r.object
        << ",\"right\":" << r.right
        << ",\"granted\":" << (r.granted ? "true" : "false")
        << ",\"strategy_index\":" << static_cast<int>(r.strategy_index);
    if (r.total_ns != 0) out << ",\"latency_ns\":" << r.total_ns;
  } else if (e.has_ids) {
    out << ",\"subject\":" << e.subject << ",\"object\":" << e.object
        << ",\"right\":" << e.right;
  }
  if (e.value != 0) out << ",\"value\":" << e.value;
  const std::string detail =
      derived_detail ? DecisionDetail(e) : std::string(e.detail);
  if (!detail.empty()) {
    out << ",\"detail\":\"";
    AppendEscaped(out, detail);
    out << "\"";
  }
  out << "}";
  return out.str();
}

#if UCR_METRICS_ENABLED

namespace {

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

struct AuditMetrics {
  Counter& events = Registry::Global().GetCounter(
      "ucr_audit_events_total", "Audit events accepted into the ring");
  Counter& dropped = Registry::Global().GetCounter(
      "ucr_audit_dropped_total",
      "Audit events dropped because the ring was full");
  Counter& written = Registry::Global().GetCounter(
      "ucr_audit_written_total", "Audit events rendered to sinks");
  Counter& sink_errors = Registry::Global().GetCounter(
      "ucr_audit_sink_errors_total",
      "Audit sink I/O failures (open, write, rotation rename)");
};

AuditMetrics& GetAuditMetrics() {
  static AuditMetrics* metrics = new AuditMetrics();
  return *metrics;
}

}  // namespace

AuditSink::~AuditSink() = default;

RotatingFileSink::RotatingFileSink(std::string path, size_t max_bytes,
                                   int max_backups, bool fsync_on_flush)
    : path_(std::move(path)),
      max_bytes_(max_bytes),
      max_backups_(max_backups < 1 ? 1 : max_backups),
      fsync_on_flush_(fsync_on_flush) {
  OpenFile();
}

RotatingFileSink::~RotatingFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void RotatingFileSink::NoteError(const char* what) {
  ++errors_;
  GetAuditMetrics().sink_errors.Inc();
  if (!reported_failed_) {
    reported_failed_ = true;
    std::fprintf(stderr,
                 "ucr: audit sink %s failed for '%s' (%s); diverting audit "
                 "lines to stderr\n",
                 what, path_.c_str(), std::strerror(errno));
  }
}

void RotatingFileSink::OpenFile() {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    NoteError("open");
    return;
  }
  const long pos = std::ftell(file_);
  bytes_ = pos > 0 ? static_cast<size_t>(pos) : 0;
  reported_failed_ = false;
}

void RotatingFileSink::Rotate() {
  std::fclose(file_);
  file_ = nullptr;
  // path.N-1 -> path.N, ..., path -> path.1; the oldest falls off.
  // The remove of the retiring backup may legitimately find nothing;
  // every rename of an *existing* file that fails is a real error
  // (ENOENT for a gap in the backup chain is expected and skipped).
  std::remove((path_ + "." + std::to_string(max_backups_)).c_str());
  for (int i = max_backups_ - 1; i >= 1; --i) {
    if (std::rename((path_ + "." + std::to_string(i)).c_str(),
                    (path_ + "." + std::to_string(i + 1)).c_str()) != 0 &&
        errno != ENOENT) {
      NoteError("rename");
    }
  }
  if (std::rename(path_.c_str(), (path_ + ".1").c_str()) != 0) {
    // The active file definitely existed; a failed rename here means
    // the rotation did not happen. Reopen and keep appending to the
    // oversized file — losing the size bound beats losing the trail.
    NoteError("rename");
  }
  OpenFile();
  ++rotations_;
}

void RotatingFileSink::Write(std::string_view line) {
  if (file_ == nullptr) {
    // Retry the open each line: the sink self-heals once the path is
    // writable (disk freed, directory recreated). Until then the
    // event still reaches an operator via stderr instead of vanishing.
    OpenFile();
    if (file_ == nullptr) {
      fallback_.Write(line);
      return;
    }
  }
  if (bytes_ > 0 && bytes_ + line.size() + 1 > max_bytes_) Rotate();
  if (file_ == nullptr) {
    fallback_.Write(line);
    return;
  }
  // §14 EINTR audit: the wall profiler's SIGPROF lands on the writer
  // thread too. A signal mid-write can leave fwrite short with the
  // stream's error flag set; retry the remainder instead of silently
  // truncating the event line.
  size_t off = 0;
  bool failed = false;
  while (off < line.size()) {
    const size_t n =
        std::fwrite(line.data() + off, 1, line.size() - off, file_);
    off += n;
    if (n == 0 || std::ferror(file_)) {
      if (errno == EINTR) {
        std::clearerr(file_);
        continue;
      }
      failed = true;
      break;
    }
  }
  if (!failed && std::fputc('\n', file_) == EOF) failed = true;
  if (failed) {
    // Count it, close the broken stream, and divert this line; the
    // next Write retries the open.
    NoteError("write");
    std::fclose(file_);
    file_ = nullptr;
    fallback_.Write(line);
    return;
  }
  bytes_ += line.size() + 1;
}

void RotatingFileSink::Flush() {
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) {
    NoteError("flush");
    return;
  }
  if (fsync_on_flush_) {
    const int fd = ::fileno(file_);
    if (fd >= 0) {
      int rc;
      do {
        rc = ::fsync(fd);
      } while (rc != 0 && errno == EINTR);
      if (rc != 0) NoteError("fsync");
    }
  }
}

void StderrSink::Write(std::string_view line) {
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

void StderrSink::Flush() { std::fflush(stderr); }

AuditLog& AuditLog::Global() {
  // Leaked on purpose: producers may still emit during static
  // destruction of other translation units.
  static AuditLog* global = new AuditLog();
  return *global;
}

AuditLog::AuditLog() {
  for (size_t i = 0; i < kRingCapacity; ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool AuditLog::Start(AuditLogOptions options) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_relaxed)) return false;
  sinks_ = std::move(options.sinks);
  running_.store(true, std::memory_order_relaxed);
  writer_ = std::thread([this] { WriterLoop(); });
  g_enabled.store(true, std::memory_order_release);
  return true;
}

void AuditLog::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_relaxed)) return;
  // Close the front door first so the final drain converges.
  g_enabled.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> wake(wake_mu_);
    running_.store(false, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  writer_.join();
  DrainOnce();  // Writer is gone; drain the tail inline.
  for (auto& sink : sinks_) sink->Flush();
  sinks_.clear();
}

bool AuditLog::Emit(const AuditEvent& event) {
  if (!Enabled()) return false;
  uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = ring_[pos & (kRingCapacity - 1)];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.event = event;
        slot.event.sequence = pos;
        if (slot.event.wall_ns == 0) slot.event.wall_ns = WallNs();
        slot.seq.store(pos + 1, std::memory_order_release);
        emitted_.fetch_add(1, std::memory_order_relaxed);
        GetAuditMetrics().events.Inc();
        return true;
      }
    } else if (dif < 0) {
      // Ring full: the consumer is behind by a whole lap. Backpressure
      // policy is drop-and-count — auditing must never block serving.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      GetAuditMetrics().dropped.Inc();
      return false;
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

size_t AuditLog::DrainOnce() {
  // All the heap traffic of rendering happens on this thread, inside
  // an exclusion scope: deliberate observability work, off the
  // hot-path allocation budget.
  ScopedAllocExclusion off_budget;
  size_t drained = 0;
  for (;;) {
    Slot& slot = ring_[tail_ & (kRingCapacity - 1)];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<int64_t>(seq) - static_cast<int64_t>(tail_ + 1) < 0) {
      break;  // Not yet published.
    }
    const AuditEvent event = slot.event;
    slot.seq.store(tail_ + kRingCapacity, std::memory_order_release);
    ++tail_;
    ++drained;
    const std::string line = AuditEventToJson(event);
    for (auto& sink : sinks_) sink->Write(line);
    written_.fetch_add(1, std::memory_order_relaxed);
    GetAuditMetrics().written.Inc();
  }
  return drained;
}

void AuditLog::WriterLoop() {
  while (true) {
    const size_t drained = DrainOnce();
    std::unique_lock<std::mutex> wake(wake_mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    if (drained == 0) {
      wake_cv_.wait_for(wake, std::chrono::milliseconds(5));
    }
  }
}

void AuditLog::Flush() {
  if (!running_.load(std::memory_order_relaxed)) return;
  const uint64_t target = head_.load(std::memory_order_relaxed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Dropped events never claim a ring position, so the writer's
  // written count alone converges on the claim cursor.
  while (written_.load(std::memory_order_relaxed) < target) {
    wake_cv_.notify_all();
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  for (auto& sink : sinks_) sink->Flush();
}

#else  // !UCR_METRICS_ENABLED

AuditLog& AuditLog::Global() {
  static AuditLog* global = new AuditLog();
  return *global;
}

#endif  // UCR_METRICS_ENABLED

}  // namespace ucr::obs
