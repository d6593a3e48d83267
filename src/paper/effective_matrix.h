#ifndef UCR_PAPER_EFFECTIVE_MATRIX_H_
#define UCR_PAPER_EFFECTIVE_MATRIX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \brief One column of the *effective* access control matrix: the
/// derived mode of every subject of `system` for (object, right) under
/// `strategy` and the system's propagation mode, indexed by node id.
/// Computed in one topological pass of the flat whole-graph kernel,
/// the derivation `EffectiveMatrix` columns use (the strategy-migration
/// audit and the constraint checker read it).
StatusOr<std::vector<acm::Mode>> MaterializeEffectiveColumn(
    const AccessControlSystem& system, acm::ObjectId object,
    acm::RightId right, const Strategy& strategy);

/// \brief A fully materialized effective access control matrix for one
/// strategy — the design point of Jajodia et al. the paper's §5
/// argues against, built here so the trade-off can be measured
/// (bench/ablation_materialization) rather than asserted.
///
/// The matrix stores one bit-packed column (a derived mode for *every*
/// subject) per (object, right) pair that carries at least one
/// explicit authorization, plus a single default decision for columns
/// with none. Lookups are O(1); the cost is the build time, the
/// storage (subjects x referenced columns bits), and the §5 problem:
/// it is "not self-maintainable with respect to updating the explicit
/// authorizations" — any EACM change invalidates it wholesale, which
/// `is_current()` tracks via the epoch.
class EffectiveMatrix {
 public:
  /// Materializes every explicitly-referenced column of `system`'s
  /// matrix under `strategy`.
  ///
  /// `threads` > 1 derives columns in parallel on a fixed pool:
  /// columns are independent given the immutable hierarchy and a
  /// read-only view of the explicit matrix (each needs one
  /// whole-graph propagation plus a resolve pass), so the build
  /// scales near-linearly. The result is bit-identical to the serial
  /// build — both paths run the same per-column derivation.
  static StatusOr<EffectiveMatrix> Materialize(
      const AccessControlSystem& system, const Strategy& strategy,
      size_t threads = 1);

  /// \brief Materializes from an epoch-published snapshot (DESIGN.md
  /// §11) instead of the live system: the build reads only the
  /// snapshot's immutable hierarchy and matrix, so it can run
  /// concurrently with mutators — the live system keeps publishing new
  /// epochs while the matrix derives against the pinned one. The
  /// caller must hold a `SnapshotManager::ReadPin` on `snapshot` for
  /// the duration of the call. `IsCurrentFor` afterwards reports
  /// whether the *live* system has moved past the snapshot's epoch.
  static StatusOr<EffectiveMatrix> Materialize(
      const HierarchySnapshot& snapshot, const Strategy& strategy,
      size_t threads = 1);

  /// The derived mode for the triple. O(1). Triples of objects/rights
  /// that existed at materialization time but carry no explicit
  /// authorization resolve to the strategy's uniform default decision.
  /// Fails on ids unknown at materialization time.
  StatusOr<acm::Mode> Lookup(graph::NodeId subject, acm::ObjectId object,
                             acm::RightId right) const;

  /// True while the source system's explicit matrix *and* hierarchy
  /// are unchanged since (re)materialization.
  bool IsCurrentFor(const AccessControlSystem& system) const {
    return epoch_ == system.eacm().epoch() &&
           dag_generation_ == system.dag().generation();
  }

  /// \brief Incremental maintenance along both mutation axes.
  ///
  /// Rights edits: re-derives only the columns whose explicit
  /// authorizations changed since materialization (tracked by
  /// per-column epochs). This is the constructive answer to §5's
  /// criticism of materialized effective matrices ("not
  /// self-maintainable ... even a slight update could trigger a
  /// drastic modification"): because an explicit change to one
  /// (object, right) column can only affect that column's derived
  /// decisions, maintenance is one whole-graph propagation per
  /// *touched* column, not a full rebuild.
  ///
  /// Hierarchy edits: re-derives only the *affected rows* — subjects
  /// whose generation stamp (graph::Dag::node_generation) moved past
  /// the generation captured at materialization, i.e. exactly those
  /// whose ancestor sub-graph a membership edit could change
  /// (DESIGN.md §10). Unaffected rows of up-to-date columns are left
  /// untouched. New subjects (the hierarchy only grows) extend every
  /// column and are derived as affected rows.
  ///
  /// Returns the number of whole columns rebuilt. `threads`
  /// parallelizes the per-column rebuilds exactly like `Materialize`.
  StatusOr<size_t> Refresh(const AccessControlSystem& system,
                           size_t threads = 1);

  const Strategy& strategy() const { return strategy_; }
  size_t subject_count() const { return subject_count_; }
  size_t column_count() const { return columns_.size(); }

  /// Approximate heap footprint in bytes (the §5 "formidable size").
  size_t MemoryBytes() const;

 private:
  EffectiveMatrix() = default;

  /// One derived column's bit-packed modes plus its source epoch —
  /// computed from const system state only, so derivations of
  /// distinct columns can run concurrently.
  struct ColumnBits {
    std::vector<uint64_t> bits;
    uint64_t epoch = 0;
  };

  /// Shared build core: both Materialize overloads reduce to a
  /// (hierarchy, explicit matrix, propagation mode) triple — the live
  /// system and a pinned snapshot differ only in where that triple
  /// lives and how long it stays valid.
  static StatusOr<EffectiveMatrix> MaterializeFrom(
      const graph::Dag& dag, const acm::ExplicitAcm& eacm,
      PropagationMode mode, const Strategy& strategy, size_t threads);

  /// Derives one column (stage the sparse column → flat whole-graph
  /// propagation → streaming-resolve each subject's bag) on the
  /// calling thread's hot-path kernel. `topo` is the hierarchy's
  /// topological order, computed once per rebuild and shared by every
  /// column. Reads only const inputs.
  ColumnBits ComputeColumn(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                           PropagationMode mode, uint32_t key,
                           std::span<const graph::NodeId> topo) const;

  /// (Re)derives `keys` — serially, or on `threads` executors when
  /// threads > 1 — and installs the results.
  void RebuildColumns(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                      PropagationMode mode, const std::vector<uint32_t>& keys,
                      size_t threads);

  /// Re-derives the decision of each subject in `rows` for each column
  /// in `keys` (columns whose epoch is otherwise current), via one
  /// ancestor-sub-graph extraction per row shared across the keys.
  void RefreshRows(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                   PropagationMode mode,
                   const std::vector<graph::NodeId>& rows,
                   const std::vector<uint32_t>& keys);

  static uint32_t ColumnKey(acm::ObjectId object, acm::RightId right) {
    return (static_cast<uint32_t>(object) << 16) |
           static_cast<uint32_t>(right);
  }

  Strategy strategy_;
  uint64_t epoch_ = 0;
  /// Hierarchy generation at (re)materialization: Refresh re-derives
  /// exactly the rows whose node stamp moved past it.
  uint64_t dag_generation_ = 0;
  size_t subject_count_ = 0;
  size_t object_count_ = 0;
  size_t right_count_ = 0;
  /// The decision every empty column resolves to (strategy-uniform:
  /// with no labels anywhere, every subject gets default/preference).
  acm::Mode empty_column_mode_ = acm::Mode::kNegative;
  /// Bit-packed columns: bit v set = subject v granted.
  std::unordered_map<uint32_t, std::vector<uint64_t>> columns_;
  /// Column epoch at (re)materialization time, for Refresh().
  std::unordered_map<uint32_t, uint64_t> column_epochs_;
};

}  // namespace ucr::core

#endif  // UCR_PAPER_EFFECTIVE_MATRIX_H_
