#ifndef UCR_OBS_TRACE_H_
#define UCR_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace ucr::obs {

/// \brief The Fig. 4 derivation of one decision (paper Table 3 row):
/// majority counters, Auth set, returning line, decision. The one
/// representation of "why this decision?" that the tracer ring, the
/// shadow mismatch dump and the audit log's decision events share;
/// `EncodeFig4Cells` renders it.
struct Fig4Derivation {
  bool has_majority = false;  ///< mRule ran (c1/c2 meaningful).
  uint64_t c1 = 0;            ///< '+' count.
  uint64_t c2 = 0;            ///< '-' count.
  bool auth_computed = false;
  bool auth_has_positive = false;
  bool auth_has_negative = false;
  int returned_line = 0;  ///< 6 (majority), 8 (single mode), 9 (preference).
  bool granted = false;   ///< Effective mode == '+'.

  /// Equal when every Table 3 cell and the decision match.
  bool operator==(const Fig4Derivation&) const = default;
};

/// \brief One sampled query's execution record: the span timings of
/// the resolution pipeline (Step 1 sub-graph extraction → Steps 2–3
/// propagation → Step 4 resolve), the decision-table interaction, and
/// the Fig. 4 derivation that decided the query.
///
/// Plain data with no owning members, so recording one is a fixed-size
/// copy — the tracer's ring buffer and the audit ring stay
/// allocation-free.
struct QueryTraceRecord : Fig4Derivation {
  uint64_t sequence = 0;  ///< Monotonic sample number (assigned by Record).

  // Query identity.
  uint32_t subject = 0;
  uint16_t object = 0;
  uint16_t right = 0;
  uint8_t strategy_index = 0;  ///< Canonical strategy index (< 48).
  bool fast_path = false;      ///< DESIGN.md §7 engine vs classic.

  // Served from a snapshot's decision table (snapshot reads only).
  bool resolution_cache_hit = false;

  // Span durations in ns. A stage skipped by a cache hit reports 0.
  uint64_t extract_ns = 0;
  uint64_t propagate_ns = 0;
  uint64_t resolve_ns = 0;
  uint64_t total_ns = 0;

  // Per-phase attribution (DESIGN.md §14), collected by the scoped
  // phase timers while this query's collection scope was active. All
  // zero when phase collection was off (e.g. UCR_METRICS=OFF).
  PhaseBreakdown phases;
};

/// The Table 3 cells of a derivation, spelled by one encoder for every
/// renderer (Table 3 rows, /tracez, the Fig. 4 text, audit details).
struct Fig4Cells {
  char c1[24];  ///< Decimal count, or "n/a" when mRule = skip.
  char c2[24];
  std::string_view auth;      ///< Table 3 cell: n/a, {}, +, -, +,-.
  std::string_view auth_set;  ///< Set notation: n/a, {}, {+}, {-}, {+,-}.
};
Fig4Cells EncodeFig4Cells(const Fig4Derivation& derivation);

/// True when the calling thread's `since_last` countdown reaches
/// `every_n` (0 disables), consuming one tick. The sampling decision
/// of the tracer and the shadow verifier: one relaxed load, one TLS
/// increment and a compare. Constant `false` under `UCR_METRICS=OFF`.
inline bool CountdownElapsed(const std::atomic<uint64_t>& every_n,
                             uint64_t& since_last) {
#if UCR_METRICS_ENABLED
  const uint64_t interval = every_n.load(std::memory_order_relaxed);
  if (interval == 0) return false;
  if (++since_last < interval) return false;
  since_last = 0;
  return true;
#else
  (void)every_n;
  (void)since_last;
  return false;
#endif
}

/// \brief Fixed-capacity ring retaining the newest `N` items (newest
/// overwrites oldest), stamping each with its push ordinal in
/// `T::sequence`. Pushing copies under a mutex and never allocates.
template <typename T, size_t N>
class RetainedRing {
 public:
  /// Stores `item`; returns the sequence it was stamped with.
  uint64_t Push(const T& item) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t sequence = pushed_.fetch_add(1, std::memory_order_relaxed);
    T& slot = items_[sequence % N];
    slot = item;
    slot.sequence = sequence;
    return sequence;
  }

  /// Copy of the retained items, oldest first. Cold path; allocates.
  std::vector<T> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t pushed = pushed_.load(std::memory_order_relaxed);
    const uint64_t first = pushed < N ? 0 : pushed - N;
    std::vector<T> out;
    out.reserve(static_cast<size_t>(pushed - first));
    for (uint64_t i = first; i < pushed; ++i) out.push_back(items_[i % N]);
    return out;
  }

  /// Items ever pushed (>= retained).
  uint64_t pushed_total() const {
    return pushed_.load(std::memory_order_relaxed);
  }

  /// Drops retained items and resets the push count.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    pushed_.store(0, std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::atomic<uint64_t> pushed_{0};
  std::array<T, N> items_{};
};

/// \brief Process-wide sampling query tracer.
///
/// Sampling is 1-in-N with a per-thread countdown: `ShouldSample` is a
/// thread-local decrement and compare — no atomics, no locks, no
/// allocation — so the unsampled hot path pays a couple of
/// instructions. A sampled query is timed stage-by-stage by its call
/// site and `Record`ed into a fixed-capacity ring buffer (newest
/// overwrites oldest) under a mutex; at the default interval the lock
/// is touched once per 1024 queries.
///
/// With instrumentation compiled out (`UCR_METRICS=OFF`),
/// `ShouldSample` is a constant `false` and the sampled branches of
/// every call site are dead code.
class QueryTracer {
 public:
  static constexpr size_t kRingCapacity = 256;
  static constexpr uint64_t kDefaultInterval = 1024;

  /// The process-wide tracer (leaked, like `Registry::Global`).
  static QueryTracer& Global();

  QueryTracer() = default;
  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Sample every `every_n`-th query per thread; 0 disables sampling.
  void SetSampleInterval(uint64_t every_n) {
    g_interval.store(every_n, std::memory_order_relaxed);
  }
  uint64_t sample_interval() const {
    return g_interval.load(std::memory_order_relaxed);
  }

  /// True when the calling thread's countdown elapses. Consumes one
  /// tick per call. Static on purpose: the interval and the per-thread
  /// countdown are constant-initialized, so the unsampled path is one
  /// relaxed load, one TLS increment, and a compare — no singleton
  /// guard, no function call, no TLS dynamic-init check.
  static bool ShouldSample() {
    thread_local uint64_t since_last = 0;
    return CountdownElapsed(g_interval, since_last);
  }

  /// Sampled queries at or above this latency count as slow: they
  /// increment `ucr_slow_queries_total` (the health engine's slow-query
  /// rate signal) and, while the audit log runs, emit a slow_query
  /// event.
  static constexpr uint64_t kSlowQueryNs = 1'000'000;  // 1 ms.

  /// Stores `record`, assigning and returning its sequence number (the
  /// id histogram exemplars carry so /tracez can resolve them back to
  /// this record's Fig. 4 derivation). Allocation-free; bounded by the
  /// ring capacity. Returns 0 with instrumentation compiled out.
  uint64_t Record(const QueryTraceRecord& record);

  /// Copy of the retained records, oldest first. Cold path; allocates.
  std::vector<QueryTraceRecord> Snapshot() const { return ring_.Snapshot(); }

  /// Total records ever taken (>= retained).
  uint64_t recorded_total() const { return ring_.pushed_total(); }

  /// Drops retained records and resets the total (tests).
  void Clear() { ring_.Clear(); }

 private:
  /// Constant-initialized (no static-init guard) so `ShouldSample` can
  /// read it without going through `Global()`.
  static inline std::atomic<uint64_t> g_interval{kDefaultInterval};
  RetainedRing<QueryTraceRecord, kRingCapacity> ring_;
};

/// Renders one record as a JSON object (strategy as canonical index;
/// callers with access to `core::AllStrategies()` can print the
/// mnemonic alongside).
std::string ToJson(const QueryTraceRecord& record);

/// Renders the derivation as the paper's Table 3 row: the counters,
/// the Auth set, and which line returned — the audit-grade explanation
/// of the decision. A record served from the resolution cache says so.
std::string ToFig4String(const QueryTraceRecord& record);

/// Single-line rendering of the same derivation (e.g. "c1=3 c2=1
/// auth=n/a line=6 -> '+'"): the detail of slow-query and
/// shadow-mismatch audit events, rendered on the audit writer thread.
std::string FormatFig4Compact(const Fig4Derivation& derivation);

}  // namespace ucr::obs

#endif  // UCR_OBS_TRACE_H_
