#ifndef UCR_OBS_SHADOW_H_
#define UCR_OBS_SHADOW_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ucr::obs {

/// \brief Online shadow verification (DESIGN.md §9): bookkeeping for
/// the production tripwire that re-resolves 1-in-N fast-path queries
/// with the classic engine and compares bit-for-bit.
///
/// This class owns only the sampling decision, the counters, and the
/// mismatch dump ring; the actual oracle re-resolution lives in
/// core/resolve.cc (the obs layer cannot depend on core).
/// Sampling is the tracer's `CountdownElapsed`: a per-thread countdown
/// against a constant-initialized interval, so the non-shadowed hot
/// path pays a relaxed load, a TLS increment, and a compare. Shadowing
/// is off by default (`interval() == 0`).
class ShadowVerifier {
 public:
  static constexpr size_t kMismatchRingCapacity = 16;

  /// The process-wide verifier (leaked, like `Registry::Global`).
  static ShadowVerifier& Global();

  ShadowVerifier() = default;
  ShadowVerifier(const ShadowVerifier&) = delete;
  ShadowVerifier& operator=(const ShadowVerifier&) = delete;

  /// Shadow every `every_n`-th fast-path query per thread; 0 disables.
  void SetInterval(uint64_t every_n) {
    g_interval.store(every_n, std::memory_order_relaxed);
  }
  uint64_t interval() const {
    return g_interval.load(std::memory_order_relaxed);
  }

  /// True when the calling thread's countdown elapses; consumes one
  /// tick per call. Constant `false` under `UCR_METRICS=OFF`.
  static bool ShouldShadow() {
    thread_local uint64_t since_last = 0;
    return CountdownElapsed(g_interval, since_last);
  }

  /// Test hook: the core-side oracle inverts its decision when set,
  /// simulating a fast-path/classic divergence end to end.
  void SetPerturbOracleForTesting(bool on) {
    g_perturb.store(on, std::memory_order_relaxed);
  }
  static bool perturb_oracle_for_testing() {
    return g_perturb.load(std::memory_order_relaxed);
  }

  /// One detected divergence, with both Fig. 4 derivations.
  struct Mismatch {
    uint64_t sequence = 0;  ///< Mismatch ordinal (assigned on record).
    uint32_t subject = 0;
    uint16_t object = 0;
    uint16_t right = 0;
    uint8_t strategy_index = 0;
    Fig4Derivation fast;
    Fig4Derivation oracle;
  };

  /// Counts one completed shadow comparison.
  void RecordCheck();

  /// Counts and retains a divergence; emits a kShadowMismatch audit
  /// event carrying both derivations. Allocation-free.
  void RecordMismatch(const Mismatch& mismatch);

  /// Retained mismatches, oldest first. Cold path; allocates.
  std::vector<Mismatch> RecentMismatches() const {
    return ring_.Snapshot();
  }

  uint64_t checks_total() const {
    return checks_.load(std::memory_order_relaxed);
  }
  uint64_t mismatch_total() const { return ring_.pushed_total(); }

  /// Drops retained mismatches and resets the totals (tests).
  void Clear();

 private:
  static inline std::atomic<uint64_t> g_interval{0};
  static inline std::atomic<bool> g_perturb{false};

  std::atomic<uint64_t> checks_{0};
  RetainedRing<Mismatch, kMismatchRingCapacity> ring_;
};

}  // namespace ucr::obs

#endif  // UCR_OBS_SHADOW_H_
