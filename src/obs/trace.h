#ifndef UCR_OBS_TRACE_H_
#define UCR_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace ucr::obs {

/// \brief One sampled query's execution record: the span timings of
/// the resolution pipeline (Step 1 sub-graph extraction → Steps 2–3
/// propagation → Step 4 resolve), the decision-table interaction, and the
/// Fig. 4 outcome that decided the query (mirroring
/// `core::ResolveTrace`, which is the paper's Table 3 row).
///
/// Plain data with no owning members, so recording one is a fixed-size
/// copy — the tracer's ring buffer stays allocation-free.
struct QueryTraceRecord {
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

  // Fig. 4 outcome (paper Table 3): majority counters, Auth set,
  // returning line, decision.
  bool has_majority = false;  ///< mRule ran (c1/c2 meaningful).
  uint64_t c1 = 0;            ///< '+' count.
  uint64_t c2 = 0;            ///< '-' count.
  bool auth_computed = false;
  bool auth_has_positive = false;
  bool auth_has_negative = false;
  int returned_line = 0;  ///< 6 (majority), 8 (single mode), 9 (preference).
  bool granted = false;   ///< Effective mode == '+'.
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
#if UCR_METRICS_ENABLED
    const uint64_t interval = g_interval.load(std::memory_order_relaxed);
    if (interval == 0) return false;
    thread_local uint64_t since_last = 0;
    if (++since_last < interval) return false;
    since_last = 0;
    return true;
#else
    return false;
#endif
  }

  /// Sampled queries at or above this latency increment
  /// `ucr_slow_queries_total` (the health engine's slow-query rate
  /// signal). Independent of the audit log's slow-query threshold so
  /// the health verdict works without an audit sink; 0 disables.
  void SetSlowThresholdNs(uint64_t ns) {
    g_slow_ns.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return g_slow_ns.load(std::memory_order_relaxed);
  }

  /// Stores `record`, assigning and returning its sequence number (the
  /// id histogram exemplars carry so /tracez can resolve them back to
  /// this record's Fig. 4 derivation). Allocation-free; bounded by the
  /// ring capacity. Returns 0 with instrumentation compiled out.
  uint64_t Record(const QueryTraceRecord& record);

  /// Copy of the retained records, oldest first. Cold path; allocates.
  std::vector<QueryTraceRecord> Snapshot() const;

  /// Total records ever taken (>= retained).
  uint64_t recorded_total() const {
    return recorded_total_.load(std::memory_order_relaxed);
  }

  /// Drops retained records and resets the total (tests).
  void Clear();

 private:
  /// Constant-initialized (no static-init guard) so `ShouldSample` can
  /// read it without going through `Global()`.
  static inline std::atomic<uint64_t> g_interval{kDefaultInterval};
  static inline std::atomic<uint64_t> g_slow_ns{1'000'000};  // 1 ms.
  std::atomic<uint64_t> recorded_total_{0};
  mutable std::mutex mu_;
  std::array<QueryTraceRecord, kRingCapacity> ring_;
  size_t ring_size_ = 0;
  size_t next_ = 0;  ///< Ring write position.
};

/// Renders one record as a JSON object (strategy as canonical index;
/// callers with access to `core::AllStrategies()` can print the
/// mnemonic alongside).
std::string ToJson(const QueryTraceRecord& record);

/// Renders the record's Fig. 4 derivation as the paper's Table 3 row:
/// the counters, the Auth set, and which line returned — the
/// audit-grade explanation of the decision.
std::string ToFig4String(const QueryTraceRecord& record);

/// Single-line, allocation-free rendering of the same derivation into
/// `buf` (e.g. "c1=3 c2=1 auth=n/a line=6 -> '+'"). Used by the audit
/// log's slow-query events, which are emitted on the query thread and
/// must not touch the heap. Returns the number of characters written
/// (excluding the NUL); output is truncated to `size`.
size_t FormatFig4Compact(const QueryTraceRecord& record, char* buf,
                         size_t size);

}  // namespace ucr::obs

#endif  // UCR_OBS_TRACE_H_
