#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/health.h"

namespace ucr::obs {

TimeSeriesSampler& TimeSeriesSampler::Global() {
  // Leaked on purpose, like Registry::Global: tear-down order against
  // detached scrapers is unknowable.
  static TimeSeriesSampler* global = new TimeSeriesSampler();
  return *global;
}

TimeSeriesSampler::~TimeSeriesSampler() {
  // Only non-global instances (tests) ever get here; by then no
  // scraper can hold a Series pointer.
  Stop();
  for (auto& slot : slots_) {
    delete slot.exchange(nullptr, std::memory_order_relaxed);
  }
}

uint64_t BucketDeltaQuantile(
    const std::array<uint64_t, Histogram::kBuckets>& deltas, double q) {
  uint64_t total = 0;
  for (const uint64_t d : deltas) total += d;
  if (total == 0) return 0;
  // Rank of the q-quantile observation, 1-based, nearest-rank method.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    seen += deltas[i];
    if (seen >= rank) {
      // The +Inf bucket has no finite bound; report the largest finite
      // one (values that large saturate the scale anyway).
      if (i == Histogram::kBuckets - 1) {
        return Histogram::BucketUpperBound(Histogram::kBuckets - 2);
      }
      return Histogram::BucketUpperBound(i);
    }
  }
  return Histogram::BucketUpperBound(Histogram::kBuckets - 2);
}

#if UCR_METRICS_ENABLED

namespace {

uint64_t WallMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

struct SamplerMetrics {
  Counter& ticks;
  Histogram& scrape_ns;
  Gauge& series;
};

SamplerMetrics& GetSamplerMetrics() {
  static SamplerMetrics* metrics = new SamplerMetrics{
      Registry::Global().GetCounter("ucr_timeseries_ticks_total",
                                    "Completed time-series scrape ticks"),
      Registry::Global().GetHistogram(
          "ucr_timeseries_scrape_ns",
          "Wall time of one registry scrape tick (ns)"),
      Registry::Global().GetGauge("ucr_timeseries_series",
                                  "Metrics retained as time series")};
  return *metrics;
}

}  // namespace

bool TimeSeriesSampler::Start(Options options, std::string* error) {
  if (running_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "sampler already running";
    return false;
  }
  if (options.interval_ms == 0 || options.tier0_capacity == 0 ||
      options.tier1_capacity == 0 || options.tier1_stride == 0) {
    if (error != nullptr) *error = "sampler options must be non-zero";
    return false;
  }
  options_ = options;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void TimeSeriesSampler::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TimeSeriesSampler::Loop() {
  // The whole scrape loop is deliberate observability work: its heap
  // traffic (Collect, directory growth) must not count against the
  // query hot path's 0-alloc budget.
  ScopedAllocExclusion alloc_exclusion;
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (running_.load(std::memory_order_relaxed)) {
    lock.unlock();
    Tick();
    lock.lock();
    wake_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [this] {
                        return !running_.load(std::memory_order_relaxed);
                      });
  }
}

void TimeSeriesSampler::PushPoint(TierRing& ring, const Point& point) {
  const uint64_t w = ring.written.load(std::memory_order_relaxed);
  AtomicPoint& slot = ring.points[w % ring.points.size()];
  // Invalidate first so a concurrent reader of the oldest point sees a
  // zero tick (and retries/skips) instead of torn fields.
  slot.tick.store(0, std::memory_order_release);
  slot.wall_ms.store(point.wall_ms, std::memory_order_relaxed);
  slot.delta.store(point.delta, std::memory_order_relaxed);
  slot.value.store(point.value, std::memory_order_relaxed);
  slot.count_delta.store(point.count_delta, std::memory_order_relaxed);
  slot.sum_delta.store(point.sum_delta, std::memory_order_relaxed);
  slot.p50.store(point.p50, std::memory_order_relaxed);
  slot.p99.store(point.p99, std::memory_order_relaxed);
  slot.tick.store(point.tick, std::memory_order_release);
  ring.written.store(w + 1, std::memory_order_release);
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::ReadRing(
    const TierRing& ring, size_t n) {
  std::vector<Point> out;
  const uint64_t w = ring.written.load(std::memory_order_acquire);
  const size_t capacity = ring.points.size();
  const size_t available = static_cast<size_t>(
      std::min<uint64_t>(w, static_cast<uint64_t>(capacity)));
  const size_t take = std::min(n, available);
  out.reserve(take);
  for (uint64_t i = w - take; i < w; ++i) {
    const AtomicPoint& slot = ring.points[i % capacity];
    Point p;
    p.tick = slot.tick.load(std::memory_order_acquire);
    if (p.tick == 0) continue;  // Empty or mid-overwrite: skip.
    p.wall_ms = slot.wall_ms.load(std::memory_order_relaxed);
    p.delta = slot.delta.load(std::memory_order_relaxed);
    p.value = slot.value.load(std::memory_order_relaxed);
    p.count_delta = slot.count_delta.load(std::memory_order_relaxed);
    p.sum_delta = slot.sum_delta.load(std::memory_order_relaxed);
    p.p50 = slot.p50.load(std::memory_order_relaxed);
    p.p99 = slot.p99.load(std::memory_order_relaxed);
    // If the writer lapped us mid-read, the tick word changed (it goes
    // through 0 first); drop the torn point.
    if (slot.tick.load(std::memory_order_acquire) != p.tick) continue;
    out.push_back(p);
  }
  return out;
}

void TimeSeriesSampler::Tick() {
  // TickOnceForTesting runs on the caller's thread; exclude its scrape
  // allocations there too (no-op when already under the loop's scope).
  ScopedAllocExclusion alloc_exclusion;
  const uint64_t t0 = NowNs();
  const uint64_t tick = ticks_.load(std::memory_order_relaxed) + 1;
  const uint64_t wall_ms = WallMs();
  const std::vector<Registry::CollectedMetric> metrics =
      Registry::Global().Collect();
  for (const Registry::CollectedMetric& m : metrics) {
    Series* series = nullptr;
    auto it = index_.find(m.name);
    if (it != index_.end()) {
      series = it->second;
    } else {
      const size_t count = series_count_.load(std::memory_order_relaxed);
      if (count >= kMaxSeries) continue;  // Directory full: ignore.
      series = new Series(m.name, m.kind, options_.tier0_capacity,
                          options_.tier1_capacity);
      index_.emplace(series->name, series);
      slots_[count].store(series, std::memory_order_relaxed);
      // Publish after the slot pointer so lock-free readers only ever
      // see constructed series.
      series_count_.store(count + 1, std::memory_order_release);
    }
    const bool tier1_due = (tick % options_.tier1_stride) == 0;
    if (!series->primed) {
      // First sight: record the baseline, emit nothing — the first
      // interval has no defined delta and a cumulative-since-start
      // spike would poison every rate rule.
      series->primed = true;
      series->prev_counter[0] = series->prev_counter[1] = m.counter;
      series->prev_hist[0] = series->prev_hist[1] = m.histogram;
      if (series->kind == 1) {
        Point p;
        p.tick = tick;
        p.wall_ms = wall_ms;
        p.value = m.gauge;
        PushPoint(series->tier0, p);
        if (tier1_due) PushPoint(series->tier1, p);
      }
      continue;
    }
    for (int tier = 0; tier < 2; ++tier) {
      if (tier == 1 && !tier1_due) continue;
      Point p;
      p.tick = tick;
      p.wall_ms = wall_ms;
      switch (series->kind) {
        case 0:
          p.delta = m.counter - series->prev_counter[tier];
          series->prev_counter[tier] = m.counter;
          break;
        case 1:
          p.value = m.gauge;
          break;
        default: {
          const Histogram::Snapshot& prev = series->prev_hist[tier];
          std::array<uint64_t, Histogram::kBuckets> deltas{};
          for (size_t i = 0; i < Histogram::kBuckets; ++i) {
            deltas[i] = m.histogram.counts[i] - prev.counts[i];
          }
          p.count_delta = m.histogram.count - prev.count;
          p.sum_delta = m.histogram.sum - prev.sum;
          p.p50 = BucketDeltaQuantile(deltas, 0.50);
          p.p99 = BucketDeltaQuantile(deltas, 0.99);
          series->prev_hist[tier] = m.histogram;
          break;
        }
      }
      PushPoint(tier == 0 ? series->tier0 : series->tier1, p);
    }
  }
  ticks_.store(tick, std::memory_order_relaxed);
  SamplerMetrics& sm = GetSamplerMetrics();
  sm.ticks.Inc();
  sm.series.Set(
      static_cast<int64_t>(series_count_.load(std::memory_order_relaxed)));
  sm.scrape_ns.Observe(NowNs() - t0);
  // The rules read the points just published: evaluate health on this
  // tick. Only the global sampler feeds the global engine.
  if (this == &Global()) HealthEngine::Global().Evaluate();
}

const TimeSeriesSampler::Series* TimeSeriesSampler::FindSeries(
    std::string_view metric) const {
  const size_t count = series_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    const Series* series = slots_[i].load(std::memory_order_relaxed);
    if (series != nullptr && series->name == metric) return series;
  }
  return nullptr;
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::Recent(
    std::string_view metric, size_t n) const {
  const Series* series = FindSeries(metric);
  if (series == nullptr) return {};
  return ReadRing(series->tier0, n);
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::RecentTier1(
    std::string_view metric, size_t n) const {
  const Series* series = FindSeries(metric);
  if (series == nullptr) return {};
  return ReadRing(series->tier1, n);
}

int TimeSeriesSampler::SeriesKind(std::string_view metric) const {
  const Series* series = FindSeries(metric);
  return series == nullptr ? -1 : series->kind;
}

std::string TimeSeriesSampler::RenderJson() const {
  std::ostringstream out;
  out << "{\"running\":" << (running() ? "true" : "false")
      << ",\"interval_ms\":" << options_.interval_ms
      << ",\"ticks\":" << ticks_total() << ",\"tiers\":[{\"stride\":1"
      << ",\"capacity\":" << options_.tier0_capacity
      << "},{\"stride\":" << options_.tier1_stride
      << ",\"capacity\":" << options_.tier1_capacity << "}],\"series\":{";
  const double tier0_s = static_cast<double>(options_.interval_ms) / 1000.0;
  const double tier1_s = tier0_s * static_cast<double>(options_.tier1_stride);
  const size_t count = series_count_.load(std::memory_order_acquire);
  bool first_series = true;
  for (size_t i = 0; i < count; ++i) {
    const Series* series = slots_[i].load(std::memory_order_relaxed);
    if (series == nullptr) continue;
    out << (first_series ? "" : ",") << "\"" << series->name << "\":{";
    first_series = false;
    switch (series->kind) {
      case 0:
        out << "\"kind\":\"counter\"";
        break;
      case 1:
        out << "\"kind\":\"gauge\"";
        break;
      default:
        out << "\"kind\":\"histogram\"";
        break;
    }
    for (int tier = 0; tier < 2; ++tier) {
      const TierRing& ring = tier == 0 ? series->tier0 : series->tier1;
      const double interval_s = tier == 0 ? tier0_s : tier1_s;
      out << ",\"tier" << tier << "\":[";
      const std::vector<Point> points = ReadRing(ring, ring.points.size());
      bool first_point = true;
      for (const Point& p : points) {
        out << (first_point ? "" : ",") << "{\"tick\":" << p.tick
            << ",\"wall_ms\":" << p.wall_ms;
        first_point = false;
        switch (series->kind) {
          case 0:
            out << ",\"delta\":" << p.delta << ",\"rate\":"
                << static_cast<double>(p.delta) / interval_s;
            break;
          case 1:
            out << ",\"value\":" << p.value;
            break;
          default:
            out << ",\"count_delta\":" << p.count_delta
                << ",\"sum_delta\":" << p.sum_delta << ",\"p50\":" << p.p50
                << ",\"p99\":" << p.p99;
            break;
        }
        out << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << "}}";
  return out.str();
}

void TimeSeriesSampler::ResetForTesting() {
  // The caller guarantees no sampler thread and no concurrent scraper
  // (see the header contract), so the Series objects can be freed.
  series_count_.store(0, std::memory_order_relaxed);
  for (auto& slot : slots_) {
    delete slot.exchange(nullptr, std::memory_order_relaxed);
  }
  index_.clear();
  ticks_.store(0, std::memory_order_relaxed);
}

#else  // !UCR_METRICS_ENABLED

bool TimeSeriesSampler::Start(Options options, std::string* error) {
  options_ = options;
  if (error != nullptr) *error = "instrumentation compiled out (UCR_METRICS=OFF)";
  return false;
}

void TimeSeriesSampler::Stop() {}

void TimeSeriesSampler::Loop() {}

void TimeSeriesSampler::Tick() {}

void TimeSeriesSampler::PushPoint(TierRing&, const Point&) {}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::ReadRing(
    const TierRing&, size_t) {
  return {};
}

const TimeSeriesSampler::Series* TimeSeriesSampler::FindSeries(
    std::string_view) const {
  return nullptr;
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::Recent(
    std::string_view, size_t) const {
  return {};
}

std::vector<TimeSeriesSampler::Point> TimeSeriesSampler::RecentTier1(
    std::string_view, size_t) const {
  return {};
}

int TimeSeriesSampler::SeriesKind(std::string_view) const { return -1; }

std::string TimeSeriesSampler::RenderJson() const {
  return "{\"running\":false,\"ticks\":0,\"series\":{}}";
}

void TimeSeriesSampler::ResetForTesting() {}

#endif  // UCR_METRICS_ENABLED

}  // namespace ucr::obs
