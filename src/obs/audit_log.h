#ifndef UCR_OBS_AUDIT_LOG_H_
#define UCR_OBS_AUDIT_LOG_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ucr::obs {

/// What happened. State-changing operations are logged unconditionally
/// while the audit log runs; access decisions and slow queries are
/// sampled (DESIGN.md §9).
enum class AuditEventType : uint8_t {
  kGrant = 0,          ///< Explicit '+' authorization added.
  kDeny,               ///< Explicit '-' authorization added.
  kRevoke,             ///< Explicit authorization removed.
  kAddMember,          ///< SDAG membership edge added.
  kRemoveMember,       ///< SDAG membership edge removed.
  kStrategyChange,     ///< Session strategy reconfigured.
  kEpochBump,          ///< An ACM column epoch advanced (matrix edit).
  kAccessDecision,     ///< Sampled query decision.
  kSlowQuery,          ///< Sampled query over the latency threshold.
  kShadowMismatch,     ///< Fast path diverged from the classic oracle.
  kHealthTransition,   ///< Health verdict changed (ok|degraded|failing).
  kWalCommit,          ///< Durable batch committed; value = WAL LSN.
};

/// The exposition name of an event type ("grant", "slow_query", ...).
std::string_view AuditEventTypeName(AuditEventType type);

/// \brief One audit event. Plain data with fixed-size fields, so
/// producers copy it into the ring without touching the heap — the hot
/// path can emit a sampled decision allocation-free.
struct AuditEvent {
  AuditEventType type = AuditEventType::kAccessDecision;

  /// Mutation events: subject/object/right are meaningful (the JSON
  /// renderer emits only what is set).
  bool has_ids = false;
  uint32_t subject = 0;
  uint16_t object = 0;
  uint16_t right = 0;

  uint64_t sequence = 0;  ///< Assigned at enqueue (ring position).
  uint64_t wall_ns = 0;   ///< Unix epoch ns; stamped by Emit if 0.
  uint64_t value = 0;     ///< Type-specific count (epoch, evictions).

  /// Decision events (access_decision, slow_query, shadow_mismatch):
  /// the decision's record, ids, strategy, latency and Fig. 4
  /// derivation, rendered by `AuditEventToJson` on the writer thread.
  /// A shadow mismatch stores the fast path's derivation here and the
  /// classic oracle's in `oracle`.
  QueryTraceRecord record;
  Fig4Derivation oracle;

  /// Free-form context, rendered as is for every type but slow_query
  /// and shadow_mismatch (whose detail derives from `record`): names
  /// for mutations, the verdict change of a health transition. Always
  /// NUL-terminated; silently truncated.
  char detail[448] = {};

  void SetDetail(std::string_view text) {
    const size_t n = text.size() < sizeof(detail) - 1 ? text.size()
                                                      : sizeof(detail) - 1;
    std::memcpy(detail, text.data(), n);
    detail[n] = '\0';
  }
};

static_assert(std::is_trivially_copyable_v<AuditEvent>,
              "events are copied in and out of a lock-free ring");

/// Renders one event as a single JSON-lines object (no trailing
/// newline). Cold path; allocates.
std::string AuditEventToJson(const AuditEvent& event);

#if UCR_METRICS_ENABLED

/// Where rendered JSON lines go. `Write` receives one line without the
/// trailing newline and is only ever called from the writer thread, so
/// implementations need no locking of their own.
class AuditSink {
 public:
  virtual ~AuditSink();
  virtual void Write(std::string_view line) = 0;
  virtual void Flush() {}
};

/// One line per event to stderr (operator tail-mode).
class StderrSink : public AuditSink {
 public:
  void Write(std::string_view line) override;
  void Flush() override;
};

/// Appends to `path`, renaming `path` -> `path.1` -> ... -> `path.N`
/// when the active file would exceed `max_bytes` (the oldest backup
/// falls off). Sized rotation keeps an always-on audit trail bounded.
///
/// I/O failures are never silent: every failed open, write, or rotation
/// rename is counted (`ucr_audit_sink_errors_total` and `errors()`),
/// and while the file is unwritable lines divert to stderr so the
/// trail degrades to un-rotated rather than to nothing. Each `Write`
/// retries the open once, so the sink self-heals when the path becomes
/// writable again.
class RotatingFileSink : public AuditSink {
 public:
  /// `fsync_on_flush` upgrades `Flush` from "handed to the kernel"
  /// (fflush) to "on disk" (fsync) — for deployments treating the
  /// audit trail as a system of record.
  explicit RotatingFileSink(std::string path, size_t max_bytes = 64u << 20,
                            int max_backups = 3, bool fsync_on_flush = false);
  ~RotatingFileSink() override;

  void Write(std::string_view line) override;
  void Flush() override;

  /// False when the file is currently unwritable (lines divert to
  /// stderr until an open retry succeeds).
  bool ok() const { return file_ != nullptr; }
  uint64_t rotations() const { return rotations_; }
  /// I/O failures observed (open, write, rename) since construction.
  uint64_t errors() const { return errors_; }

 private:
  void Rotate();
  /// Opens `path_` for append, counting a failure. Sets `file_`.
  void OpenFile();
  /// Counts one failure and emits a one-line stderr notice the first
  /// time the sink enters the failed state.
  void NoteError(const char* what);

  std::string path_;
  size_t max_bytes_;
  int max_backups_;
  bool fsync_on_flush_;
  std::FILE* file_ = nullptr;
  size_t bytes_ = 0;
  uint64_t rotations_ = 0;
  uint64_t errors_ = 0;
  bool reported_failed_ = false;  ///< Stderr notice already printed.
  StderrSink fallback_;
};

/// Swallows lines, counting them — the bench/test sink.
class DiscardSink : public AuditSink {
 public:
  void Write(std::string_view) override { ++lines_; }
  uint64_t lines() const { return lines_; }

 private:
  uint64_t lines_ = 0;
};

struct AuditLogOptions {
  std::vector<std::unique_ptr<AuditSink>> sinks;
};

/// \brief Append-only structured audit log (DESIGN.md §9).
///
/// Producers — mutation paths, the sampled query tracer, the shadow
/// verifier — enqueue fixed-size events into a bounded MPSC ring
/// (Vyukov-style: one CAS claim plus a per-slot release store; no
/// locks, no allocation). A background writer drains the ring, renders
/// JSON lines (decision details included), and hands them to the
/// configured sinks. When the ring
/// is full the producer drops the event and counts it
/// (`ucr_audit_dropped_total`): audit pressure must never stall the
/// serving path.
///
/// With `UCR_METRICS=OFF` the class collapses to inert inline stubs
/// and `Enabled()` is a compile-time `false`, so instrumented call
/// sites are dead code.
class AuditLog {
 public:
  static constexpr size_t kRingCapacity = 1024;  // Power of two.

  /// The process-wide log (leaked, like `Registry::Global`).
  static AuditLog& Global();

  AuditLog();
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// True once `Start` has run and `Stop` has not. One relaxed load of
  /// a constant-initialized atomic — cheap enough to guard every
  /// mutation-path call site.
  static bool Enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }

  /// Takes ownership of the sinks and starts the writer thread.
  /// Returns false (and changes nothing) if already running.
  bool Start(AuditLogOptions options);

  /// Drains outstanding events, flushes sinks, stops the writer, and
  /// releases the sinks. Idempotent.
  void Stop();

  /// Enqueues `event` (stamping wall time and sequence). Returns false
  /// when the log is disabled or the ring is full (event dropped).
  bool Emit(const AuditEvent& event);

  /// Blocks until every event enqueued before the call has been
  /// written and the sinks flushed (bounded by a few seconds; tests).
  void Flush();

  uint64_t emitted_total() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t written_total() const {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq;
    AuditEvent event;
  };

  void WriterLoop();
  size_t DrainOnce();

  /// Constant-initialized so `Enabled()` is readable from any thread
  /// without a singleton guard.
  static inline std::atomic<bool> g_enabled{false};

  std::array<Slot, kRingCapacity> ring_;
  std::atomic<uint64_t> head_{0};  ///< Producer claim cursor.
  uint64_t tail_ = 0;              ///< Consumer cursor (writer only).

  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> written_{0};

  std::mutex lifecycle_mu_;  ///< Serializes Start/Stop.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> running_{false};
  std::thread writer_;
  std::vector<std::unique_ptr<AuditSink>> sinks_;
};

#else  // !UCR_METRICS_ENABLED

// Inert stubs: same API shape, empty bodies, so call sites and the
// admin CLI compile unchanged under UCR_METRICS=OFF.
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  virtual void Write(std::string_view) = 0;
  virtual void Flush() {}
};

class StderrSink : public AuditSink {
 public:
  void Write(std::string_view) override {}
};

class RotatingFileSink : public AuditSink {
 public:
  explicit RotatingFileSink(std::string, size_t = 64u << 20, int = 3,
                            bool = false) {}
  void Write(std::string_view) override {}
  bool ok() const { return false; }
  uint64_t rotations() const { return 0; }
  uint64_t errors() const { return 0; }
};

class DiscardSink : public AuditSink {
 public:
  void Write(std::string_view) override {}
  uint64_t lines() const { return 0; }
};

struct AuditLogOptions {
  std::vector<std::unique_ptr<AuditSink>> sinks;
};

class AuditLog {
 public:
  static constexpr size_t kRingCapacity = 1024;
  static AuditLog& Global();
  static constexpr bool Enabled() { return false; }
  bool Start(AuditLogOptions) { return false; }
  void Stop() {}
  bool Emit(const AuditEvent&) { return false; }
  void Flush() {}
  uint64_t emitted_total() const { return 0; }
  uint64_t dropped_total() const { return 0; }
  uint64_t written_total() const { return 0; }
};

#endif  // UCR_METRICS_ENABLED

}  // namespace ucr::obs

#endif  // UCR_OBS_AUDIT_LOG_H_
