#ifndef UCR_OBS_TIMESERIES_H_
#define UCR_OBS_TIMESERIES_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "obs/metrics.h"

namespace ucr::obs {

/// \brief Retained telemetry history (DESIGN.md §13).
///
/// A background thread scrapes the metrics registry on a fixed cadence
/// (default 1 s) and folds every metric into two fixed-size retention
/// tiers of per-interval points:
///
///   tier 0: one point per tick        (default 1 s × 300 = 5 min)
///   tier 1: one point per N ticks     (default 10 s × 360 = 1 h)
///
/// Counters become interval deltas (rates), gauges keep their
/// instantaneous value, and histograms get bucket-delta p50/p99 — the
/// quantiles of what happened *during* the interval, not since process
/// start, which is what the health engine and the `/timeseries` +
/// `/statz` endpoints need to spot a live regression. Each tick of the
/// global sampler ends by evaluating `HealthEngine::Global()`.
///
/// The rings are lock-light by construction: every point field is a
/// relaxed atomic and the per-ring cursor is released after the point
/// is complete, so scrapers read without taking any lock (a torn
/// overwrite of the oldest point is detected via the point's tick word
/// and skipped). The series directory is append-only — a fixed slot
/// array published through an atomic count — so readers never observe
/// a half-registered series. The sampler thread runs its whole loop
/// under `ScopedAllocExclusion`: its scrape-side heap traffic is
/// deliberate observability work, off the hot path's 0-alloc budget.
class TimeSeriesSampler {
 public:
  /// Bounded directory: more distinct metric names than this are
  /// ignored (the registry is code-defined and holds ~100).
  static constexpr size_t kMaxSeries = 256;

  struct Options {
    uint64_t interval_ms = 1000;  ///< Base (tier-0) cadence.
    size_t tier0_capacity = 300;  ///< 5 min at the default cadence.
    size_t tier1_capacity = 360;  ///< 1 h at the default cadence.
    size_t tier1_stride = 10;     ///< Ticks folded into one tier-1 point.
  };

  /// One retained interval for one metric. Only the fields matching
  /// the series kind are meaningful.
  struct Point {
    uint64_t tick = 0;     ///< Sampler tick that closed the interval.
    uint64_t wall_ms = 0;  ///< Unix wall clock at capture (ms).
    uint64_t delta = 0;       ///< Counters: increments this interval.
    int64_t value = 0;        ///< Gauges: instantaneous value.
    uint64_t count_delta = 0;  ///< Histograms: observations this interval.
    uint64_t sum_delta = 0;    ///< Histograms: sum of those observations.
    uint64_t p50 = 0;  ///< Histograms: interval p50 (bucket upper bound).
    uint64_t p99 = 0;  ///< Histograms: interval p99 (bucket upper bound).
  };

  /// The process-wide sampler (leaked, like `Registry::Global`).
  static TimeSeriesSampler& Global();

  TimeSeriesSampler() = default;
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Starts the background scrape thread. Returns false (with a reason
  /// in `error`) when already running or when the instrumentation is
  /// compiled out.
  bool Start(Options options, std::string* error = nullptr);
  bool Start() { return Start(Options{}); }

  /// Stops and joins the scrape thread. Retained points survive (the
  /// next Start keeps appending). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Completed scrape ticks.
  uint64_t ticks_total() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

  /// Runs one synchronous scrape tick (health evaluation included) on
  /// the calling thread (tests and single-shot tools; do not mix with a
  /// running background thread).
  void TickOnceForTesting() { Tick(); }

  /// Applies `options` without starting the background thread, so
  /// manually-ticked tests control capacities and strides. No-op when
  /// the sampler is running.
  void ConfigureForTesting(const Options& options) {
    if (!running()) options_ = options;
  }

  /// The newest `n` tier-0 points of `metric`, oldest first. Lock-free
  /// (directory scan + ring reads); empty when the series is unknown.
  std::vector<Point> Recent(std::string_view metric, size_t n) const;

  /// Same for tier 1 (the 10 s × 1 h retention).
  std::vector<Point> RecentTier1(std::string_view metric, size_t n) const;

  /// Series kind by name: 0 counter, 1 gauge, 2 histogram, -1 unknown.
  int SeriesKind(std::string_view metric) const;

  /// Full JSON dump for the `/timeseries` endpoint:
  /// {"running":...,"interval_ms":...,"ticks":...,"tiers":[...],
  ///  "series":{name:{"kind":...,"tier0":[...],"tier1":[...]}}}.
  std::string RenderJson() const;

  /// Drops every retained series and resets the tick counter (tests).
  /// Must not run concurrently with a started sampler.
  void ResetForTesting();

 private:
  struct AtomicPoint {
    std::atomic<uint64_t> tick{0};  ///< 0 = empty / write in flight.
    std::atomic<uint64_t> wall_ms{0};
    std::atomic<uint64_t> delta{0};
    std::atomic<int64_t> value{0};
    std::atomic<uint64_t> count_delta{0};
    std::atomic<uint64_t> sum_delta{0};
    std::atomic<uint64_t> p50{0};
    std::atomic<uint64_t> p99{0};
  };

  struct TierRing {
    explicit TierRing(size_t capacity) : points(capacity) {}
    std::vector<AtomicPoint> points;  ///< Fixed size after construction.
    std::atomic<uint64_t> written{0};
  };

  struct Series {
    std::string name;
    int kind = 0;
    TierRing tier0;
    TierRing tier1;
    // Sampler-thread-private baselines (cumulative value at the last
    // push of each tier; histograms keep the full bucket snapshot so
    // interval quantiles come from bucket deltas).
    bool primed = false;
    uint64_t prev_counter[2] = {0, 0};
    Histogram::Snapshot prev_hist[2];

    Series(std::string series_name, int series_kind, size_t cap0,
           size_t cap1)
        : name(std::move(series_name)),
          kind(series_kind),
          tier0(cap0),
          tier1(cap1) {}
  };

  void Tick();
  void Loop();
  static void PushPoint(TierRing& ring, const Point& point);
  static std::vector<Point> ReadRing(const TierRing& ring, size_t n);
  const Series* FindSeries(std::string_view metric) const;

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> ticks_{0};
  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  /// Append-only series directory. `series_count_` is released after
  /// the slot pointer is stored, so lock-free readers only ever see
  /// fully constructed series. Reset (tests only) frees the slots — its
  /// contract excludes concurrent readers.
  std::array<std::atomic<Series*>, kMaxSeries> slots_{};
  std::atomic<size_t> series_count_{0};

  /// Sampler-thread-private index over the same Series objects.
  std::map<std::string, Series*, std::less<>> index_;
};

/// Interval quantile from log2 bucket deltas: the upper bound of the
/// bucket containing the `q`-quantile observation (0 when the interval
/// saw none). Exposed for tests and the health engine.
uint64_t BucketDeltaQuantile(
    const std::array<uint64_t, Histogram::kBuckets>& deltas, double q);

}  // namespace ucr::obs

#endif  // UCR_OBS_TIMESERIES_H_
