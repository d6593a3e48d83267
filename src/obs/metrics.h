#ifndef UCR_OBS_METRICS_H_
#define UCR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// Compile-time kill switch (CMake option UCR_METRICS). With the
// option OFF every recording primitive below compiles to an empty
// inline body, so instrumented call sites cost literally nothing —
// no clock reads, no atomic traffic, no branches.
#ifndef UCR_METRICS_ENABLED
#define UCR_METRICS_ENABLED 1
#endif

namespace ucr::obs {

/// True when the instrumentation layer is compiled in. Call sites use
/// this to skip work that only feeds metrics (e.g. clock reads around
/// a region whose duration would be observed).
inline constexpr bool kEnabled = UCR_METRICS_ENABLED != 0;

namespace internal {

/// Number of cache-line-isolated slots every sharded metric spreads
/// its writers over. Threads are assigned round-robin; two threads
/// share a slot only beyond kSlots concurrent writers, and even then
/// the slot is a relaxed atomic, never a lock.
inline constexpr size_t kSlots = 16;

/// Assigns the calling thread a stable slot index (round-robin over a
/// process-wide counter).
size_t AssignThreadSlot();

inline size_t ThreadSlot() {
  // Zero-initialized TLS carries no dynamic-init guard; the +1 bias
  // reserves 0 as "unassigned" so the steady state is load + branch.
  thread_local size_t slot_plus_one = 0;
  if (slot_plus_one == 0) slot_plus_one = AssignThreadSlot() + 1;
  return slot_plus_one - 1;
}

struct alignas(64) PaddedCount {
  std::atomic<uint64_t> value{0};
};

/// Per-thread depth of `ScopedAllocExclusion` scopes. Kept behind an
/// out-of-line accessor (function-local zero-initialized TLS) rather
/// than an `extern thread_local`: cross-TU extern TLS goes through the
/// compiler's init wrapper, which GCC resolves to a null address for
/// trivially-initialized ints on non-main threads under UBSan.
int& AllocExclusionDepth();

}  // namespace internal

/// True while the calling thread is inside deliberate observability
/// work (audit writer formatting, shadow-oracle re-resolution) whose
/// heap traffic is excluded from the hot path's zero-allocation
/// budget. Honored by util/alloc_counter.cc in measuring binaries.
inline bool AllocCountingSuspended() {
  return internal::AllocExclusionDepth() > 0;
}

/// RAII scope marking the enclosed work as off-budget for the counting
/// allocator (see `AllocCountingSuspended`). Nestable; per-thread.
class ScopedAllocExclusion {
 public:
  ScopedAllocExclusion() { ++internal::AllocExclusionDepth(); }
  ~ScopedAllocExclusion() { --internal::AllocExclusionDepth(); }
  ScopedAllocExclusion(const ScopedAllocExclusion&) = delete;
  ScopedAllocExclusion& operator=(const ScopedAllocExclusion&) = delete;
};

/// Monotonic nanosecond clock for latency metrics. Returns 0 when the
/// instrumentation is compiled out, so disabled builds never pay for a
/// clock read.
inline uint64_t NowNs() {
#if UCR_METRICS_ENABLED
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#else
  return 0;
#endif
}

/// \brief Monotonic counter, per-thread sharded and merged on read.
///
/// `Inc` is one relaxed fetch_add on a cache-line-private slot:
/// lock-free, allocation-free, and contention-free up to
/// `internal::kSlots` concurrent threads — safe inside the
/// zero-allocation hot path (DESIGN.md §7). `Value` sums the slots;
/// it is exact once concurrent writers have quiesced and never under-
/// counts a finished increment.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
#if UCR_METRICS_ENABLED
    slots_[internal::ThreadSlot()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::PaddedCount, internal::kSlots> slots_;
};

/// \brief Instantaneous signed value (queue depth, active workers,
/// resident bytes). One padded atomic: gauges sit on control paths
/// (task submission, worker wake-up) that already serialize, so
/// sharding buys nothing and a single cell keeps `Set` trivially
/// correct alongside `Add`/`Sub`.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
#if UCR_METRICS_ENABLED
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(int64_t n = 1) {
#if UCR_METRICS_ENABLED
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Sub(int64_t n = 1) { Add(-n); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<int64_t> value_{0};
};

namespace internal {
/// Minimum observed value for exemplar capture (see
/// `Histogram::RecordExemplar`). Constant-initialized so the capture
/// path never goes through a singleton guard.
inline std::atomic<uint64_t> g_exemplar_threshold{0};
}  // namespace internal

/// Observations below this value are not captured as exemplars
/// (`Histogram::RecordExemplar` returns immediately). 0 — the default
/// — captures every observation the call site offers; call sites only
/// offer tracer-sampled queries, so even at 0 capture stays off the
/// unsampled hot path.
inline void SetExemplarThreshold(uint64_t min_value) {
  internal::g_exemplar_threshold.store(min_value, std::memory_order_relaxed);
}
inline uint64_t ExemplarThreshold() {
  return internal::g_exemplar_threshold.load(std::memory_order_relaxed);
}

/// \brief Fixed log-bucket histogram for latency-like values
/// (nanoseconds, node counts).
///
/// Bucket layout is power-of-two: bucket 0 holds exact zeros and
/// bucket i >= 1 holds values in [2^(i-1), 2^i - 1] — i.e. the bucket
/// index is `bit_width(value)`. The mapping is two instructions, needs
/// no configuration, and spans 1 ns to ~1.6 days (or 1 to ~7 * 10^13
/// for count-valued series: million-node extraction sizes and
/// reachability-label footprints must land in finite buckets, not
/// collapse into the +Inf tail) in 48 buckets.
/// `Observe` is per-thread sharded exactly like `Counter`.
class Histogram {
 public:
  static constexpr size_t kBuckets = 48;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value) {
#if UCR_METRICS_ENABLED
    Shard& shard = shards_[internal::ThreadSlot()];
    shard.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  /// Bucket index of `value`: 0 for 0, else bit_width clamped.
  static size_t BucketIndex(uint64_t value) {
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `i` (2^i - 1; the last bucket is
  /// unbounded and reported as +Inf).
  static uint64_t BucketUpperBound(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }

  struct Snapshot {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t count = 0;  ///< Total observations.
    uint64_t sum = 0;    ///< Sum of observed values.
  };

  /// Merged view over all shards (exact while writers are quiescent).
  Snapshot Snap() const {
    Snapshot snap;
    for (const Shard& shard : shards_) {
      for (size_t i = 0; i < kBuckets; ++i) {
        snap.counts[i] += shard.counts[i].load(std::memory_order_relaxed);
      }
      snap.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (const uint64_t c : snap.counts) snap.count += c;
    return snap;
  }

  /// \brief One captured latency outlier: the observed value plus the
  /// identity that produced it — the QueryTracer sequence number and
  /// the ⟨subject, object, right⟩ triple — so a histogram tail bucket
  /// links back to the full Fig. 4 derivation retained in /tracez.
  struct Exemplar {
    bool valid = false;
    uint64_t value = 0;
    uint64_t trace_sequence = 0;  ///< QueryTracer record sequence.
    uint32_t subject = 0;
    uint16_t object = 0;
    uint16_t right = 0;
  };

  /// Captures `value` + identity into the per-bucket exemplar slot
  /// (newest wins) when `value >= ExemplarThreshold()`. Lock-free and
  /// allocation-free: a CAS claim on the slot's sequence word plus
  /// relaxed field stores; a concurrent writer to the same bucket
  /// makes this a no-op (exemplars are best-effort). Call sites sit
  /// behind the tracer's sampling countdown, so the unsampled hot
  /// path never reaches here.
  void RecordExemplar(uint64_t value, uint64_t trace_sequence,
                      uint32_t subject, uint16_t object, uint16_t right) {
#if UCR_METRICS_ENABLED
    if (value < ExemplarThreshold()) return;
    ExemplarSlot& slot = exemplars_[BucketIndex(value)];
    uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    if (seq & 1) return;  // Another writer owns the slot; drop.
    if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      return;
    }
    slot.value.store(value, std::memory_order_relaxed);
    slot.trace_sequence.store(trace_sequence, std::memory_order_relaxed);
    slot.subject.store(subject, std::memory_order_relaxed);
    slot.object.store(object, std::memory_order_relaxed);
    slot.right.store(right, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
#else
    (void)value;
    (void)trace_sequence;
    (void)subject;
    (void)object;
    (void)right;
#endif
  }

  /// Per-bucket exemplars (entries with `valid == false` never
  /// captured, or were mid-write on both read attempts). Cold path.
  std::array<Exemplar, kBuckets> SnapExemplars() const {
    std::array<Exemplar, kBuckets> out{};
#if UCR_METRICS_ENABLED
    for (size_t i = 0; i < kBuckets; ++i) {
      const ExemplarSlot& slot = exemplars_[i];
      for (int attempt = 0; attempt < 4; ++attempt) {
        const uint32_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0) break;       // Never written.
        if (s1 & 1) continue;     // Mid-write; retry.
        Exemplar e;
        e.value = slot.value.load(std::memory_order_relaxed);
        e.trace_sequence =
            slot.trace_sequence.load(std::memory_order_relaxed);
        e.subject = slot.subject.load(std::memory_order_relaxed);
        e.object = slot.object.load(std::memory_order_relaxed);
        e.right = slot.right.load(std::memory_order_relaxed);
        if (slot.seq.load(std::memory_order_acquire) != s1) continue;
        e.valid = true;
        out[i] = e;
        break;
      }
    }
#endif
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> counts{};
    std::atomic<uint64_t> sum{0};
  };
  /// Seqlock-style slot built entirely from atomics (TSan-clean): an
  /// odd `seq` marks a write in flight; readers accept a snapshot only
  /// when `seq` is even and unchanged across the field reads.
  struct ExemplarSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> value{0};
    std::atomic<uint64_t> trace_sequence{0};
    std::atomic<uint32_t> subject{0};
    std::atomic<uint16_t> object{0};
    std::atomic<uint16_t> right{0};
  };
  std::array<Shard, internal::kSlots> shards_;
  std::array<ExemplarSlot, kBuckets> exemplars_;
};

/// \brief Handles for one instrumented-mutex family: how often the
/// lock was taken, how often it was contended, and the contended-wait
/// distribution. Obtain via `Registry` (e.g. `GetLockWaitMetrics()`)
/// and pass to `LockWithMetrics` at every acquisition site.
///
/// The `ucr_lock_*` family is the contention evidence this project's
/// perf claims rest on (the 1-CPU container can't show wall-clock
/// scaling): bench/read_churn asserts that the snapshot read path
/// leaves the reader-lock counters flat while the mutex baseline does
/// not.
struct LockWaitMetrics {
  Counter& acquisitions;
  Counter& contended;
  Histogram& wait_ns;
};

/// The reader-path lock family (`ucr_lock_*`), used by
/// every lock a concurrent *query* can take. Writer-only locks use
/// `GetWriteLockMetrics` so reader-path flatness is assertable.
LockWaitMetrics& GetLockWaitMetrics();

/// The write-path lock family (`ucr_write_lock_*`): the system write
/// mutex serializing mutators and snapshot publication.
LockWaitMetrics& GetWriteLockMetrics();

/// Locks `mu`, recording the acquisition in `metrics`: uncontended
/// acquisitions pay one counter increment and no clock read; contended
/// ones time the wait into the histogram. With instrumentation
/// compiled out this is exactly `mu.lock()`.
inline void LockWithMetrics(std::mutex& mu, LockWaitMetrics& metrics) {
#if UCR_METRICS_ENABLED
  metrics.acquisitions.Inc();
  if (mu.try_lock()) return;
  const uint64_t t0 = NowNs();
  mu.lock();
  metrics.contended.Inc();
  metrics.wait_ns.Observe(NowNs() - t0);
#else
  (void)metrics;
  mu.lock();
#endif
}

/// RAII companion of `LockWithMetrics` (an instrumented
/// `std::lock_guard`).
class ScopedMetricsLock {
 public:
  ScopedMetricsLock(std::mutex& mu, LockWaitMetrics& metrics) : mu_(mu) {
    LockWithMetrics(mu_, metrics);
  }
  ~ScopedMetricsLock() { mu_.unlock(); }
  ScopedMetricsLock(const ScopedMetricsLock&) = delete;
  ScopedMetricsLock& operator=(const ScopedMetricsLock&) = delete;

 private:
  std::mutex& mu_;
};

/// \brief Process-wide metric registry and exposition surface.
///
/// `Get*` interns a metric by name and returns a reference that stays
/// valid for the process lifetime; repeated calls with one name return
/// the same object, so instrumented translation units simply hold a
/// function-local `static Counter&`. Registration takes a mutex and
/// may allocate — it happens once per call site, never per operation.
///
/// Exposition renders every registered metric as Prometheus text
/// (counters, gauges, and cumulative histogram buckets) or as one JSON
/// snapshot object; both are cold-path, read-only, and safe to call
/// while writers are running (values are merge-on-read).
class Registry {
 public:
  /// The process-wide registry. Deliberately leaked so counters stay
  /// usable during static destruction (worker threads may still be
  /// draining).
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  Counter& GetCounter(std::string_view name, std::string_view help);
  Gauge& GetGauge(std::string_view name, std::string_view help);
  Histogram& GetHistogram(std::string_view name, std::string_view help);

  /// One metric's value at collection time. For histograms the entry
  /// also carries the (process-lifetime-stable) object pointer so
  /// collectors can read exemplars without re-interning by name.
  struct CollectedMetric {
    std::string name;
    int kind = 0;  ///< 0 counter, 1 gauge, 2 histogram.
    uint64_t counter = 0;
    int64_t gauge = 0;
    Histogram::Snapshot histogram;
    const Histogram* histogram_handle = nullptr;
  };

  /// Snapshot of every registered metric, sorted by name — the scrape
  /// surface the time-series sampler (obs/timeseries.h) consumes.
  /// Cold path; allocates; safe against concurrent writers.
  std::vector<CollectedMetric> Collect() const;

  /// Prometheus text exposition format (HELP/TYPE + samples,
  /// histograms as cumulative `_bucket{le=...}` series).
  std::string RenderPrometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"buckets":[...]}}}.
  /// Histogram buckets with zero count are omitted.
  std::string RenderJson() const;

  size_t metric_count() const;

 private:
  struct Entry;
  Entry* FindOrCreate(std::string_view name, std::string_view help, int kind);

  mutable std::mutex mu_;
  struct Impl;
  Impl* impl_ = nullptr;  ///< Lazily built; owned.
};

/// True when `name` is a legal Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Registration aborts on an illegal name
/// (a programming error that would corrupt the exposition output).
bool IsValidMetricName(std::string_view name);

/// \brief Minimal structural validity check for a JSON document:
/// non-empty, starts with '{', balanced braces/brackets outside string
/// literals, properly closed strings. Used by bench `--smoke` modes to
/// assert the metrics snapshot parses without dragging in a JSON
/// library.
bool JsonLooksValid(std::string_view json);

}  // namespace ucr::obs

#endif  // UCR_OBS_METRICS_H_
