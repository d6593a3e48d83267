#include "core/snapshot.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <thread>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace ucr::core {

namespace {

/// Epoch/snapshot telemetry (DESIGN.md §11). The gauge names are also
/// read back by name in obs/http_exporter.cc for the /varz epoch line,
/// so the two call sites must agree on them.
struct SnapshotMetrics {
  obs::Gauge& epoch_current = obs::Registry::Global().GetGauge(
      "ucr_epoch_current", "Epoch of the currently published snapshot");
  obs::Gauge& epoch_readers = obs::Registry::Global().GetGauge(
      "ucr_epoch_readers", "Reader pins currently held across all epochs");
  obs::Gauge& epoch_lag = obs::Registry::Global().GetGauge(
      "ucr_epoch_lag",
      "Master-state mutations applied but not yet visible in the published "
      "snapshot");
  obs::Counter& published = obs::Registry::Global().GetCounter(
      "ucr_epoch_published_total", "Snapshots published");
  obs::Counter& retired = obs::Registry::Global().GetCounter(
      "ucr_epoch_retired_total",
      "Snapshots destroyed after their readers drained");
  obs::Histogram& publish_wait_ns = obs::Registry::Global().GetHistogram(
      "ucr_epoch_publish_wait_ns",
      "Writer wait for the recycled epoch slot's readers to drain (ns)");
  obs::Histogram& build_ns = obs::Registry::Global().GetHistogram(
      "ucr_epoch_build_ns",
      "Snapshot construction time, carry-over warming included (ns)");
  obs::Counter& carryover_resolution = obs::Registry::Global().GetCounter(
      "ucr_epoch_carryover_resolution_total",
      "Resolved decisions carried into a new snapshot by the generation/"
      "column-epoch filter");
  obs::Counter& queries = obs::Registry::Global().GetCounter(
      "ucr_snapshot_queries_total",
      "Queries answered by the lock-free snapshot path");
  obs::Counter& resolution_hits = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_hits_total",
      "Snapshot resolution-table hits");
  obs::Counter& resolution_misses = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_misses_total",
      "Snapshot resolution-table misses");
};

SnapshotMetrics& GetSnapshotMetrics() {
  static SnapshotMetrics* metrics = new SnapshotMetrics();
  return *metrics;
}

size_t RoundUpPow2(size_t n) {
  return n < 2 ? 2 : std::bit_ceil(n);
}

}  // namespace

// ---------------------------------------------------------------------------
// EpochResolutionTable

EpochResolutionTable::EpochResolutionTable(size_t capacity)
    : slots_(RoundUpPow2(capacity)) {
  mask_ = slots_.size() - 1;
  max_load_ = slots_.size() - slots_.size() / 4;  // 3/4 load cap.
}

std::optional<acm::Mode> EpochResolutionTable::Lookup(graph::NodeId subject,
                                                      acm::ObjectId object,
                                                      acm::RightId right,
                                                      uint8_t strategy) const {
  // Epoch-table probes share the cache-probe phase (DESIGN.md §14).
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kCacheProbe);
  const uint64_t triple = PackTriple(subject, object, right);
  size_t idx = SeedIndex(triple, strategy);
  for (size_t i = 0; i < kMaxProbes; ++i, idx = (idx + 1) & mask_) {
    const Slot& slot = slots_[idx];
    const uint64_t key = slot.key.load(std::memory_order_acquire);
    if (key == kEmptyKey) return std::nullopt;
    if (key != triple) continue;
    const uint64_t value = slot.value.load(std::memory_order_acquire);
    // Not ready (a racer claimed the key but has not published the
    // value yet) or a different strategy's entry: either way this slot
    // is not ours — keep probing.
    if ((value & kReadyBit) == 0) continue;
    if (static_cast<uint8_t>(value & 0xFF) != strategy) continue;
    return (value & kPositiveBit) != 0 ? acm::Mode::kPositive
                                       : acm::Mode::kNegative;
  }
  return std::nullopt;
}

bool EpochResolutionTable::TryStore(graph::NodeId subject,
                                    acm::ObjectId object, acm::RightId right,
                                    uint8_t strategy, acm::Mode mode) {
  obs::ScopedPhaseTimer phase_timer(obs::Phase::kCacheProbe);
  if (size_.load(std::memory_order_relaxed) >= max_load_) return false;
  const uint64_t triple = PackTriple(subject, object, right);
  const uint64_t value =
      kReadyBit |
      (mode == acm::Mode::kPositive ? kPositiveBit : uint64_t{0}) | strategy;
  size_t idx = SeedIndex(triple, strategy);
  for (size_t i = 0; i < kMaxProbes; ++i, idx = (idx + 1) & mask_) {
    Slot& slot = slots_[idx];
    uint64_t key = slot.key.load(std::memory_order_acquire);
    if (key == kEmptyKey) {
      if (slot.key.compare_exchange_strong(key, triple,
                                           std::memory_order_acq_rel)) {
        slot.value.store(value, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // `key` now holds the racer's claim; fall through to examine it.
    }
    if (key == triple) {
      const uint64_t existing = slot.value.load(std::memory_order_acquire);
      if ((existing & kReadyBit) != 0 &&
          static_cast<uint8_t>(existing & 0xFF) == strategy) {
        // A racer stored this very entry; decisions are deterministic,
        // so the values are identical and the store is already done.
        return true;
      }
      // In-flight store or another strategy's entry: collision.
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// SnapshotManager

SnapshotManager::SnapshotManager() = default;

SnapshotManager::~SnapshotManager() {
  for (Slot& slot : slots_) {
    assert(slot.readers.load(std::memory_order_relaxed) == 0 &&
           "SnapshotManager destroyed with live reader pins");
    delete slot.snapshot.load(std::memory_order_acquire);
  }
}

void SnapshotManager::ReadPin::Release() {
  if (readers_ == nullptr) return;
  readers_->fetch_sub(1, std::memory_order_release);
  if constexpr (obs::kEnabled) GetSnapshotMetrics().epoch_readers.Sub(1);
  readers_ = nullptr;
  snapshot_ = nullptr;
}

SnapshotManager::ReadPin SnapshotManager::Pin() const {
  for (;;) {
    const uint64_t e = current_epoch_.load();  // seq_cst
    if (e == 0) return ReadPin();
    Slot& slot = slots_[e % kEpochSlots];
    slot.readers.fetch_add(1);  // seq_cst
    // Re-check: the writer recycles this slot only for epoch
    // e + kEpochSlots, and it stores e + kEpochSlots - 1 (at the
    // latest) into current_epoch_ *before* its drain load of
    // `readers`. In the seq_cst total order either our fetch_add
    // precedes that drain load — the writer waits for us — or the
    // drain load precedes it, in which case this re-load is ordered
    // after the writer's earlier epoch store and cannot still read
    // `e`; we back out and retry on the newer epoch. Epochs are
    // 64-bit monotonic, so a recycled slot can never alias the value
    // we pinned.
    if (current_epoch_.load() == e) {
      const HierarchySnapshot* snap =
          slot.snapshot.load(std::memory_order_acquire);
      if constexpr (obs::kEnabled) GetSnapshotMetrics().epoch_readers.Add(1);
      return ReadPin(snap, &slot.readers);
    }
    slot.readers.fetch_sub(1, std::memory_order_release);
  }
}

void SnapshotManager::Publish(std::unique_ptr<const HierarchySnapshot> next) {
  assert(next != nullptr);
  const uint64_t e = next->epoch;
  assert(e == current_epoch_.load(std::memory_order_relaxed) + 1 &&
         "snapshots must be published in epoch order");
  Slot& slot = slots_[e % kEpochSlots];
  // Reclamation rule: the slot last held epoch e - kEpochSlots; wait
  // for its readers to drain before destroying that snapshot. Readers
  // pin for one query, so a wait here means a reader is kEpochSlots
  // publications behind — rare by construction, bounded by the
  // slowest in-flight query.
  if constexpr (obs::kEnabled) {
    uint64_t waited = 0;
    if (slot.readers.load() != 0) {
      const uint64_t t0 = obs::NowNs();
      while (slot.readers.load() != 0) std::this_thread::yield();
      waited = obs::NowNs() - t0;
    }
    GetSnapshotMetrics().publish_wait_ns.Observe(waited);
  } else {
    while (slot.readers.load() != 0) std::this_thread::yield();
  }
  const HierarchySnapshot* old = slot.snapshot.load(std::memory_order_relaxed);
  if (old != nullptr) {
    delete old;
    retired_total_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kEnabled) GetSnapshotMetrics().retired.Inc();
  }
  slot.snapshot.store(next.release(), std::memory_order_release);
  current_epoch_.store(e);  // seq_cst: see Pin().
  published_total_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    GetSnapshotMetrics().published.Inc();
    GetSnapshotMetrics().epoch_current.Set(static_cast<int64_t>(e));
  }
}

uint64_t SnapshotManager::active_readers() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.readers.load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// SnapshotResolveAccess

StatusOr<acm::Mode> SnapshotResolveAccess(const HierarchySnapshot& snapshot,
                                          graph::NodeId subject,
                                          acm::ObjectId object,
                                          acm::RightId right,
                                          const Strategy& strategy,
                                          const SnapshotReadOptions& options,
                                          ResolveTrace* trace,
                                          PropagateStats* stats) {
  if (subject >= snapshot.dag.node_count()) {
    return Status::OutOfRange("subject id " + std::to_string(subject) +
                              " out of range");
  }
  if (object >= snapshot.eacm.object_count()) {
    return Status::OutOfRange("object id out of range");
  }
  if (right >= snapshot.eacm.right_count()) {
    return Status::OutOfRange("right id out of range");
  }
  const Strategy canonical = strategy.Canonical();
  const uint8_t strategy_index = canonical.CanonicalIndex();
  const QuerySpan span(QuerySurface::kSnapshot);
  if constexpr (obs::kEnabled) GetSnapshotMetrics().queries.Inc();

  // A memoized decision has no derivation, so a caller asking for the
  // trace or stats always re-derives (and skips the redundant store:
  // the entry is necessarily present already or will be stored by an
  // untraced query).
  const bool use_table =
      options.use_resolution_table && trace == nullptr && stats == nullptr;
  if (use_table) {
    const std::optional<acm::Mode> cached =
        snapshot.resolution.Lookup(subject, object, right, strategy_index);
    if constexpr (obs::kEnabled) {
      (cached.has_value() ? GetSnapshotMetrics().resolution_hits
                          : GetSnapshotMetrics().resolution_misses)
          .Inc();
      if (cached.has_value() && span.sampled()) [[unlikely]] {
        span.Record(subject, object, right, canonical, /*fast_path=*/true,
                    0, 0, /*trace=*/nullptr, *cached);
      }
    }
    if (cached.has_value()) return *cached;
  }

  // The snapshot's index was built for exactly this (dag, eacm)
  // generation, so the usability check only rejects the cases the
  // index cannot express (stats requested, kSecondWins, a budget-
  // tripped build). The index is immutable and shared — still
  // lock-free.
  ResolveAccessOptions gate;
  gate.propagation_mode = snapshot.propagation_mode;
  const graph::ReachabilityIndex* index = snapshot.reach_index.get();
  const bool indexed =
      stats == nullptr &&
      ReachIndexUsable(index, snapshot.dag, snapshot.eacm, gate);
  const acm::Mode mode = ResolveOnHotPath(
      snapshot.dag, snapshot.eacm, indexed ? index : nullptr, subject, object,
      right, canonical, snapshot.propagation_mode, span, trace, stats);
  if (use_table) {
    snapshot.resolution.TryStore(subject, object, right, strategy_index, mode);
  }
  return mode;
}

// ---------------------------------------------------------------------------
// BuildSnapshot

size_t NextResolutionCapacity(size_t live_entries) {
  constexpr size_t kMin = size_t{1} << 10;
  constexpr size_t kMax = size_t{1} << 22;
  // A table never holds more than kMax entries, so 2x cannot overflow.
  return std::clamp(std::bit_ceil(2 * live_entries), kMin, kMax);
}

std::unique_ptr<const HierarchySnapshot> BuildSnapshot(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    const Strategy& default_strategy, PropagationMode propagation_mode,
    uint64_t epoch, const HierarchySnapshot* previous,
    size_t resolution_capacity,
    std::shared_ptr<const graph::ReachabilityIndex> reach_index,
    SnapshotBuildStats* stats) {
  const uint64_t t0 = obs::kEnabled ? obs::NowNs() : 0;
  auto snapshot = std::make_unique<HierarchySnapshot>(
      epoch, dag, eacm, default_strategy, propagation_mode,
      resolution_capacity, std::move(reach_index));

  SnapshotBuildStats build_stats;
  if (previous != nullptr) {
    // Carry-over warming: a decision is still derivable iff the
    // subject's ancestor set survived every hierarchy edit since the
    // previous snapshot (the PR 5 generation stamps say exactly that)
    // and its column of the explicit matrix is untouched.
    previous->resolution.ForEach([&](graph::NodeId s, acm::ObjectId o,
                                     acm::RightId r, uint8_t strategy,
                                     acm::Mode mode) {
      const bool alive =
          s < dag.node_count() &&
          dag.node_generation(s) <= previous->dag_generation &&
          o < eacm.object_count() && r < eacm.right_count() &&
          eacm.ColumnEpoch(o, r) == previous->eacm.ColumnEpoch(o, r);
      if (alive && snapshot->resolution.TryStore(s, o, r, strategy, mode)) {
        ++build_stats.resolution_carried;
      } else {
        ++build_stats.resolution_dropped;
      }
    });
  }
  if constexpr (obs::kEnabled) {
    SnapshotMetrics& m = GetSnapshotMetrics();
    m.build_ns.Observe(obs::NowNs() - t0);
    if (build_stats.resolution_carried > 0) {
      m.carryover_resolution.Inc(build_stats.resolution_carried);
    }
  }
  if (stats != nullptr) *stats = build_stats;
  return snapshot;
}

}  // namespace ucr::core
