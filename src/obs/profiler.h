#ifndef UCR_OBS_PROFILER_H_
#define UCR_OBS_PROFILER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

#if UCR_METRICS_ENABLED && (defined(__x86_64__) || defined(__i386__))
#include <x86intrin.h>
#endif

namespace ucr::obs {

/// \brief Phase taxonomy of one resolution query (DESIGN.md §14).
///
/// Every nanosecond a sampled query spends inside the resolve pipeline
/// is attributed to exactly one of these phases; the per-phase
/// histograms (`ucr_phase_*_ns`) are sampled distributions scraped by
/// the time-series sampler, so /statz can show a live "% time per
/// phase" panel and a latency regression names the phase that moved.
enum class Phase : uint8_t {
  kCacheProbe = 0,  ///< Snapshot decision-table lookups + stores.
  kExtract,         ///< Step 1: ancestor sub-graph extraction.
  kPropagate,       ///< Steps 2-3: label propagation to the sink.
  kCompose,         ///< Reachability-index sink-bag composition (§12).
  kResolve,         ///< Step 4: Fig. 4 resolution over the sink bag.
  kBatchAssemble,   ///< Batch validation + result assembly (serving path).
};
inline constexpr size_t kPhaseCount = 6;

/// Short phase label ("cache_probe", "extract", ...).
const char* PhaseName(Phase phase);

/// Registry name of the phase's histogram ("ucr_phase_extract_ns", ...).
const char* PhaseMetricName(Phase phase);

/// Per-phase nanoseconds of one sampled query, in `Phase` order. The
/// shape attached to tracer records and slow-query audit events.
struct PhaseBreakdown {
  std::array<uint64_t, kPhaseCount> ns{};

  uint64_t of(Phase phase) const { return ns[static_cast<size_t>(phase)]; }
  uint64_t TotalNs() const {
    uint64_t total = 0;
    for (const uint64_t v : ns) total += v;
    return total;
  }
};

namespace internal {

/// Per-thread phase accumulator. Plain zero-initialized POD TLS (no
/// dynamic-init guard): the inactive check every phase timer performs
/// on the unsampled hot path is one TLS load and a branch.
struct PhaseTls {
  uint64_t ns[kPhaseCount];
  bool active;
};

inline PhaseTls& GetPhaseTls() {
  thread_local PhaseTls tls;
  return tls;
}

/// Observes every accumulated phase into its histogram and resets the
/// accumulator. Cold: runs once per sampled query.
[[gnu::cold]] void FlushPhaseTls(PhaseTls& tls);

}  // namespace internal

/// True while the calling thread is inside a sampled query's phase
/// collection scope — the gate every `ScopedPhaseTimer` checks.
inline bool PhaseCollectionActive() {
#if UCR_METRICS_ENABLED
  return internal::GetPhaseTls().active;
#else
  return false;
#endif
}

/// Attributes `ns` to `phase` on the calling thread. No-op unless a
/// collection scope is active (i.e. the enclosing query is sampled).
inline void AddPhaseNs(Phase phase, uint64_t ns) {
#if UCR_METRICS_ENABLED
  internal::PhaseTls& tls = internal::GetPhaseTls();
  if (tls.active) tls.ns[static_cast<size_t>(phase)] += ns;
#else
  (void)phase;
  (void)ns;
#endif
}

/// \brief Cycle-accurate clock for the scoped phase timers: `rdtsc` on
/// x86 (a few cycles, no vDSO call), `NowNs` elsewhere. `ToNs` converts
/// a tick delta to nanoseconds using a once-calibrated ratio, so phase
/// values share the log2-nanosecond histogram buckets with every other
/// latency metric.
class CycleClock {
 public:
  static uint64_t Now() {
#if UCR_METRICS_ENABLED && (defined(__x86_64__) || defined(__i386__))
    return __rdtsc();
#else
    return NowNs();
#endif
  }

  /// Tick delta -> nanoseconds (identity when `Now` is `NowNs`).
  static uint64_t ToNs(uint64_t ticks);
};

/// \brief Owner scope of one sampled query's phase attribution.
///
/// The outermost sampled entry point (ResolveAccess,
/// SnapshotResolveAccess) constructs one with its sampling decision.
/// When `sampled` is true and no outer scope exists, the scope
/// activates the thread's accumulator; inner `ScopedPhaseTimer`s —
/// woven through extraction, propagation, composition, resolution, and
/// the table probes — then attribute into it regardless of which layer
/// they live in. The destructor flushes the accumulated phases into the
/// `ucr_phase_*_ns` histograms. A nested scope is a no-op: the outer
/// owner keeps the attribution.
class ScopedPhaseCollection {
 public:
  explicit ScopedPhaseCollection(bool sampled) {
#if !UCR_METRICS_ENABLED
    (void)sampled;
#else
    if (sampled) {
      internal::PhaseTls& tls = internal::GetPhaseTls();
      if (!tls.active) {
        tls.active = true;
        for (uint64_t& v : tls.ns) v = 0;
        owner_ = true;
      }
    }
#endif
  }

  ~ScopedPhaseCollection() {
#if UCR_METRICS_ENABLED
    if (owner_) internal::FlushPhaseTls(internal::GetPhaseTls());
#endif
  }

  ScopedPhaseCollection(const ScopedPhaseCollection&) = delete;
  ScopedPhaseCollection& operator=(const ScopedPhaseCollection&) = delete;

  bool owner() const { return owner_; }

  /// The phases accumulated so far (this thread, this scope). Valid
  /// while the scope is alive; used to attach the breakdown to tracer
  /// records and slow-query audit events before the flush.
  PhaseBreakdown Snapshot() const {
    PhaseBreakdown out;
#if UCR_METRICS_ENABLED
    const internal::PhaseTls& tls = internal::GetPhaseTls();
    if (tls.active) {
      for (size_t i = 0; i < kPhaseCount; ++i) out.ns[i] = tls.ns[i];
    }
#endif
    return out;
  }

 private:
  bool owner_ = false;
};

/// \brief Scoped timer attributing its lifetime to one phase.
///
/// Armed only while the enclosing query's collection scope is active,
/// so the unsampled hot path pays one TLS load and a branch per
/// instrumented region — no clock reads, preserving the ≤2% overhead
/// and 0-allocs-per-query invariants (tests/hotpath_alloc_test.cc).
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase) {
#if UCR_METRICS_ENABLED
    if (PhaseCollectionActive()) {
      phase_ = phase;
      start_ = CycleClock::Now();
      armed_ = true;
    }
#else
    (void)phase;
#endif
  }

  ~ScopedPhaseTimer() {
#if UCR_METRICS_ENABLED
    if (armed_) {
      AddPhaseNs(phase_, CycleClock::ToNs(CycleClock::Now() - start_));
    }
#endif
  }

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
#if UCR_METRICS_ENABLED
  Phase phase_ = Phase::kCacheProbe;
  uint64_t start_ = 0;
  bool armed_ = false;
#endif
};

/// \brief Suspends phase attribution for deliberate off-query work
/// running inside a sampled query's scope (the shadow oracle's
/// re-resolution would otherwise pollute the extract/propagate
/// phases with its own traversal).
class ScopedPhaseSuspend {
 public:
  ScopedPhaseSuspend() {
#if UCR_METRICS_ENABLED
    internal::PhaseTls& tls = internal::GetPhaseTls();
    was_active_ = tls.active;
    tls.active = false;
#endif
  }
  ~ScopedPhaseSuspend() {
#if UCR_METRICS_ENABLED
    internal::GetPhaseTls().active = was_active_;
#endif
  }
  ScopedPhaseSuspend(const ScopedPhaseSuspend&) = delete;
  ScopedPhaseSuspend& operator=(const ScopedPhaseSuspend&) = delete;

 private:
  bool was_active_ = false;
};

/// \brief Wall-clock sampling profiler (DESIGN.md §14).
///
/// A dependency-free SIGPROF sampler: a ticker thread enumerates
/// `/proc/self/task` and signals every thread at the configured rate;
/// the async-signal-safe handler walks the frame-pointer chain from
/// the interrupted context into a per-thread lock-free ring (no
/// allocation, no locks — a CAS-claimed slot from a static pool). The
/// ticker drains the rings into folded-stack counts under
/// `ScopedAllocExclusion`; `RenderFolded` symbolizes them via `dladdr`
/// with a `/proc/self/maps` module+offset fallback, in the format
/// `flamegraph.pl` / speedscope ingest directly:
///
///   frameRoot;frameMid;frameLeaf count\n
///
/// Because every thread is signalled — running or blocked — the
/// profile is wall-clock, not CPU: a thread parked in `recv` shows up
/// under its syscall frame. All blocking loops it can interrupt retry
/// EINTR (see the §14 audit).
///
/// With `UCR_METRICS=OFF` every method is an empty inline body.
class WallProfiler {
 public:
  struct Options {
    uint32_t hz = 97;  ///< Sampling rate (prime, to dodge lockstep).
  };

  struct Stats {
    bool running = false;
    uint64_t samples_total = 0;  ///< Stacks captured into rings.
    uint64_t dropped_total = 0;  ///< Lost to ring overflow / pool limit.
    uint64_t signals_sent = 0;
    uint32_t threads_seen = 0;   ///< Distinct ring slots ever claimed.
    double duration_s = 0;       ///< Profiled wall time since Start.
    double samples_per_sec = 0;
  };

  /// The process-wide profiler (leaked, like `Registry::Global`).
  static WallProfiler& Global();

#if UCR_METRICS_ENABLED
  /// Starts sampling. False if already running or the platform lacks
  /// the required primitives. Aggregation restarts from empty.
  bool Start(const Options& options);
  bool Start() { return Start(Options()); }

  /// Stops the ticker, disarms the handler, and drains the rings. The
  /// aggregated profile stays readable until the next Start.
  void Stop();

  bool running() const;

  /// The aggregated profile as folded stacks (cold; allocates under
  /// `ScopedAllocExclusion`). Lines are sorted for determinism.
  std::string RenderFolded();

  Stats GetStats() const;

  /// One synchronous signal+drain pass (tests: deterministic sample
  /// counts without waiting out the ticker interval).
  void TickOnceForTesting();
#else
  bool Start(const Options&) { return false; }
  bool Start() { return false; }
  void Stop() {}
  bool running() const { return false; }
  std::string RenderFolded() { return std::string(); }
  Stats GetStats() const { return Stats{}; }
  void TickOnceForTesting() {}
#endif

  WallProfiler(const WallProfiler&) = delete;
  WallProfiler& operator=(const WallProfiler&) = delete;

 private:
  WallProfiler() = default;
};

}  // namespace ucr::obs

#endif  // UCR_OBS_PROFILER_H_
