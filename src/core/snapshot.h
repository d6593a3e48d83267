#ifndef UCR_CORE_SNAPSHOT_H_
#define UCR_CORE_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "graph/reachability.h"
#include "util/status.h"

namespace ucr::core {

/// \brief Lock-free open-addressed memo of resolved decisions, private
/// to one `HierarchySnapshot` (DESIGN.md §11).
///
/// The snapshot it belongs to is immutable, so entries never go stale
/// and there is no invalidation, no epoch check, and no deletion: the
/// table only fills. Readers race only on *insertion* of entries whose
/// value is deterministic (every thread derives the same decision for
/// a triple under a canonical strategy), so all races are benign —
/// the worst outcome of a lost CAS or a full table is a skipped store,
/// never a wrong answer.
///
/// Layout: each slot is two 64-bit atomics. `key` holds the packed
/// ⟨subject:32 | object:16 | right:16⟩ triple (claimed from the empty
/// sentinel by CAS); `value` holds the canonical strategy index, the
/// decision, and a ready bit, published with release ordering after
/// the key. The strategy lives in the value rather than the key so the
/// common one-strategy-per-deployment case probes distinct strategies
/// to distinct slots via the seed hash; a slot whose strategy does not
/// match is treated as a collision and probing continues.
class EpochResolutionTable {
 public:
  /// `capacity` is rounded up to a power of two; the table stops
  /// accepting stores at ~3/4 load so probes stay short.
  explicit EpochResolutionTable(size_t capacity);

  EpochResolutionTable(const EpochResolutionTable&) = delete;
  EpochResolutionTable& operator=(const EpochResolutionTable&) = delete;

  /// Cached decision for the triple under canonical strategy index
  /// `strategy`, or nullopt. Wait-free: bounded probe sequence, no
  /// stores, no locks.
  std::optional<acm::Mode> Lookup(graph::NodeId subject, acm::ObjectId object,
                                  acm::RightId right, uint8_t strategy) const;

  /// Publishes a derived decision. Returns false when the table is at
  /// load capacity or the probe window is exhausted — a benign skip,
  /// the next snapshot gets a larger table.
  bool TryStore(graph::NodeId subject, acm::ObjectId object,
                acm::RightId right, uint8_t strategy, acm::Mode mode);

  /// Enumerates every ready entry. Safe concurrently with readers
  /// (in-flight, not-yet-ready stores are simply skipped); used by the
  /// writer to carry surviving entries into the next snapshot.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      const uint64_t key = slot.key.load(std::memory_order_acquire);
      if (key == kEmptyKey) continue;
      const uint64_t value = slot.value.load(std::memory_order_acquire);
      if ((value & kReadyBit) == 0) continue;
      fn(static_cast<graph::NodeId>(key >> 32),
         static_cast<acm::ObjectId>((key >> 16) & 0xFFFF),
         static_cast<acm::RightId>(key & 0xFFFF),
         static_cast<uint8_t>(value & 0xFF),
         (value & kPositiveBit) != 0 ? acm::Mode::kPositive
                                     : acm::Mode::kNegative);
    }
  }

  size_t capacity() const { return slots_.size(); }

  /// Entries stored so far (approximate while writers race).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  // No valid triple packs to all-ones: subject 0xFFFFFFFF is
  // graph::kInvalidNode and is rejected before any table access.
  static constexpr uint64_t kEmptyKey = UINT64_MAX;
  static constexpr uint64_t kReadyBit = uint64_t{1} << 63;
  static constexpr uint64_t kPositiveBit = uint64_t{1} << 62;
  static constexpr size_t kMaxProbes = 32;

  struct alignas(16) Slot {
    std::atomic<uint64_t> key{kEmptyKey};
    std::atomic<uint64_t> value{0};
  };

  static uint64_t PackTriple(graph::NodeId s, acm::ObjectId o,
                             acm::RightId r) {
    return (static_cast<uint64_t>(s) << 32) | (static_cast<uint64_t>(o) << 16) |
           static_cast<uint64_t>(r);
  }

  size_t SeedIndex(uint64_t triple, uint8_t strategy) const {
    // Multiplicative hash with the high half folded down: the subject
    // lives in the triple's top 32 bits, and the low bits of a product
    // depend only on the low bits of the key, so without the fold every
    // (object, right) pair would share one probe window across all
    // subjects.
    uint64_t h = triple * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return (h ^ strategy) & mask_;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t max_load_ = 0;
  std::atomic<size_t> size_{0};
};

/// \brief One immutable, self-contained generation of the whole policy
/// state: hierarchy, explicit matrix, session strategy, propagation
/// mode, and the per-epoch decision table (DESIGN.md §11).
///
/// Readers holding a pin may touch every member without
/// synchronization: the graph and matrix are copies that no writer
/// ever mutates, and the decision table is lock-free and only fills.
/// The copies share most of their blocks with the writer — the graph's
/// name table, pages and adjacency chunks, the matrix's columns, the
/// index's slot pages and label pools — but the writer clones any
/// block still shared before writing it. That test reads reference
/// counts, so only the writer's thread may copy or destroy a snapshot
/// (it builds and retires them); readers only read through a pin
/// (DESIGN.md §11).
struct HierarchySnapshot {
  HierarchySnapshot(
      uint64_t epoch_in, graph::Dag dag_in, acm::ExplicitAcm eacm_in,
      Strategy strategy, PropagationMode mode, size_t resolution_capacity,
      std::shared_ptr<const graph::ReachabilityIndex> reach_index_in = nullptr)
      : epoch(epoch_in),
        dag(std::move(dag_in)),
        eacm(std::move(eacm_in)),
        default_strategy(strategy.Canonical()),
        propagation_mode(mode),
        dag_generation(dag.generation()),
        reach_index(std::move(reach_index_in)),
        resolution(resolution_capacity) {}

  const uint64_t epoch;
  const graph::Dag dag;
  const acm::ExplicitAcm eacm;
  const Strategy default_strategy;
  const PropagationMode propagation_mode;
  /// `dag.generation()` at build time: the carry-over filter compares
  /// per-node stamps against this to decide which cached state is
  /// still derivable from the new hierarchy.
  const uint64_t dag_generation;
  /// Reachability/compression index current for exactly this snapshot's
  /// (dag, eacm) generation, shared with the writer that built it
  /// (DESIGN.md §12). Immutable like everything else here, so readers
  /// compose indexed sink bags lock-free. Null when the writer runs
  /// with the index disabled or the build tripped a budget.
  const std::shared_ptr<const graph::ReachabilityIndex> reach_index;

  // Readers insert through const pins; the table is internally
  // thread-safe and append-only.
  mutable EpochResolutionTable resolution;
};

/// \brief Epoch-based publication and reclamation of
/// `HierarchySnapshot`s (RCU-lite; DESIGN.md §11).
///
/// A single writer publishes successive snapshots; any number of
/// readers pin the current one with two atomic operations and no
/// locks. Snapshots live in a ring of `kEpochSlots` slots indexed by
/// `epoch % kEpochSlots`; publishing epoch E reuses the slot of epoch
/// E - kEpochSlots, first spin-waiting for that epoch's readers to
/// drain — the reclamation rule. Epochs are 64-bit and monotonic, so
/// the pin's re-check can never confuse a recycled slot with the epoch
/// it pinned (no ABA within any realistic process lifetime).
///
/// Thread-safety: `Pin` may be called from any thread; `Publish` must
/// be serialized by the caller (AccessControlSystem holds its write
/// lock across it).
class SnapshotManager {
 public:
  static constexpr size_t kEpochSlots = 4;

  SnapshotManager();
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// RAII pin on one epoch's snapshot. Movable; the snapshot stays
  /// valid until destruction. A default-constructed or moved-from pin
  /// holds nothing.
  class ReadPin {
   public:
    ReadPin() = default;
    ReadPin(ReadPin&& other) noexcept
        : snapshot_(other.snapshot_), readers_(other.readers_) {
      other.snapshot_ = nullptr;
      other.readers_ = nullptr;
    }
    ReadPin& operator=(ReadPin&& other) noexcept {
      if (this != &other) {
        Release();
        snapshot_ = other.snapshot_;
        readers_ = other.readers_;
        other.snapshot_ = nullptr;
        other.readers_ = nullptr;
      }
      return *this;
    }
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin() { Release(); }

    const HierarchySnapshot* get() const { return snapshot_; }
    const HierarchySnapshot& operator*() const { return *snapshot_; }
    const HierarchySnapshot* operator->() const { return snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }

   private:
    friend class SnapshotManager;
    ReadPin(const HierarchySnapshot* snapshot, std::atomic<uint64_t>* readers)
        : snapshot_(snapshot), readers_(readers) {}

    void Release();

    const HierarchySnapshot* snapshot_ = nullptr;
    std::atomic<uint64_t>* readers_ = nullptr;
  };

  /// Pins the current snapshot. Lock-free: one fetch_add plus an
  /// epoch re-check, retried only if a publication raced in between.
  /// Returns an empty pin before the first Publish.
  ReadPin Pin() const;

  /// Publishes `next` as the new current snapshot; its `epoch` must be
  /// `current_epoch() + 1`. Blocks (spin + yield) only when the ring
  /// wraps onto an epoch that still has pinned readers.
  void Publish(std::unique_ptr<const HierarchySnapshot> next);

  /// Epoch of the currently published snapshot (0 = none yet).
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  /// Pins currently held across all retained epochs.
  uint64_t active_readers() const;

  uint64_t published_total() const {
    return published_total_.load(std::memory_order_relaxed);
  }
  uint64_t retired_total() const {
    return retired_total_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> readers{0};
    std::atomic<const HierarchySnapshot*> snapshot{nullptr};
  };

  // seq_cst on the epoch counter and reader counts: the pin's
  // increment → re-check pair and the writer's epoch-store → drain-
  // load pair must appear in one total order, which is what rules out
  // a reader pinning a slot the writer already believes drained (see
  // Pin() for the interleaving argument).
  std::atomic<uint64_t> current_epoch_{0};
  mutable std::array<Slot, kEpochSlots> slots_;
  std::atomic<uint64_t> published_total_{0};
  std::atomic<uint64_t> retired_total_{0};
};

/// Per-query knobs for `SnapshotResolveAccess`.
struct SnapshotReadOptions {
  /// Consult/fill the snapshot's resolution table. Ignored (treated as
  /// false) when a trace or stats out-param is supplied: a memoized
  /// decision has no derivation to report, and the differential suite
  /// compares derivations.
  bool use_resolution_table = true;
};

/// \brief End-to-end conflict resolution against one pinned snapshot:
/// the lock-free serving path (DESIGN.md §11).
///
/// Bit-identical decisions, traces, and stats to `ResolveAccess` on
/// the same hierarchy/matrix state (the epoch differential suite
/// asserts this for all 48 strategies). Steady state acquires no locks
/// and performs no heap allocations: a table hit is two atomic loads;
/// a miss runs `ResolveOnHotPath` — the pipeline `ResolveAccess` runs —
/// over the snapshot's graph, matrix and index, and publishes the
/// decision with one CAS. Telemetry reports under `ucr_snapshot_*`.
StatusOr<acm::Mode> SnapshotResolveAccess(const HierarchySnapshot& snapshot,
                                          graph::NodeId subject,
                                          acm::ObjectId object,
                                          acm::RightId right,
                                          const Strategy& strategy,
                                          const SnapshotReadOptions& options = {},
                                          ResolveTrace* trace = nullptr,
                                          PropagateStats* stats = nullptr);

/// What `BuildSnapshot` carried over from the previous generation
/// (observability; also exported as `ucr_epoch_carryover_*` counters).
struct SnapshotBuildStats {
  size_t resolution_carried = 0;   ///< Decisions still derivable.
  size_t resolution_dropped = 0;   ///< Decisions invalidated by the delta.
};

/// \brief Decision-table slots for the snapshot that follows one whose
/// table holds `live_entries`.
///
/// Two slots per entry, rounded up to a power of two and clamped to
/// [2^10, 2^22]: the carried entries fill at most half of the new
/// table, which leaves the next epoch's misses at least a quarter of it
/// below the 3/4 load stop (a table that does fill grows at the next
/// publish), and a table whose entries were invalidated shrinks with
/// them instead of staying at its high-water size (every publish
/// allocates, scans and retires a whole table).
size_t NextResolutionCapacity(size_t live_entries);

/// \brief Builds the next `HierarchySnapshot` from the writer's master
/// state, warming its decision table from `previous` (may be null).
///
/// A resolved decision survives iff (a) the subject's ancestor set is
/// unchanged — `dag.node_generation(subject) <= previous->dag_generation`,
/// exactly the stamp the in-place mutators maintain — and (b) its
/// (object, right) column epoch is unchanged between the two matrices.
std::unique_ptr<const HierarchySnapshot> BuildSnapshot(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    const Strategy& default_strategy, PropagationMode propagation_mode,
    uint64_t epoch, const HierarchySnapshot* previous,
    size_t resolution_capacity,
    std::shared_ptr<const graph::ReachabilityIndex> reach_index = nullptr,
    SnapshotBuildStats* stats = nullptr);

}  // namespace ucr::core

#endif  // UCR_CORE_SNAPSHOT_H_
