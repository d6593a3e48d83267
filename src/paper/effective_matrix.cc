#include "paper/effective_matrix.h"

#include <algorithm>

#include "core/flat_propagate.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/rights_bag.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ucr::core {

namespace {

/// Materialization telemetry (DESIGN.md §8): build/refresh volume and
/// the per-column derivation cost, which is the §5 trade-off operators
/// need to watch (columns × build time vs on-demand resolution).
struct MatrixMetrics {
  obs::Counter& materializations = obs::Registry::Global().GetCounter(
      "ucr_matrix_materializations_total",
      "Full EffectiveMatrix::Materialize builds");
  obs::Counter& refreshes = obs::Registry::Global().GetCounter(
      "ucr_matrix_refreshes_total", "EffectiveMatrix::Refresh passes");
  obs::Counter& columns_rebuilt = obs::Registry::Global().GetCounter(
      "ucr_matrix_columns_rebuilt_total",
      "Columns derived by Materialize or Refresh");
  obs::Histogram& column_build = obs::Registry::Global().GetHistogram(
      "ucr_matrix_column_build_ns",
      "Per-column derivation time inside RebuildColumns (ns)");
};

MatrixMetrics& GetMatrixMetrics() {
  static MatrixMetrics* metrics = new MatrixMetrics();
  return *metrics;
}

/// Derives one effective column on the flat whole-graph kernel of this
/// thread's hot path (DESIGN.md §7): the sparse column is staged in
/// O(column size) and all per-subject bags share one pooled buffer.
/// Calls `emit(v, decision)` for every subject v < `subjects`, in id
/// order; `strategy` must be canonical.
template <typename Emit>
void DeriveColumn(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                  PropagationMode mode, acm::ObjectId object,
                  acm::RightId right, const Strategy& strategy,
                  size_t subjects, std::span<const graph::NodeId> topo,
                  Emit emit) {
  PropagateOptions prop_options;
  prop_options.propagation_mode = mode;
  HotPath& hot = HotPath::ThreadLocal();
  hot.propagator.SetLabels(eacm.Column(object, right), subjects);
  hot.propagator.PropagateAll(FlatDagView{&dag, topo}, prop_options);
  for (size_t v = 0; v < subjects; ++v) {
    emit(v, ResolveEntries(
                hot.propagator.bag(static_cast<graph::NodeId>(v)), strategy));
  }
}

}  // namespace

StatusOr<std::vector<acm::Mode>> MaterializeEffectiveColumn(
    const AccessControlSystem& system, acm::ObjectId object,
    acm::RightId right, const Strategy& strategy) {
  const graph::Dag& dag = system.dag();
  const acm::ExplicitAcm& eacm = system.eacm();
  if (object >= eacm.object_count() || right >= eacm.right_count()) {
    return Status::OutOfRange("object/right id out of range");
  }
  std::vector<acm::Mode> column;
  column.reserve(dag.node_count());
  const std::vector<graph::NodeId> topo = dag.TopologicalOrder();
  DeriveColumn(dag, eacm, system.propagation_mode(), object, right,
               strategy.Canonical(), dag.node_count(), topo,
               [&](size_t, acm::Mode mode) { column.push_back(mode); });
  return column;
}

StatusOr<EffectiveMatrix> EffectiveMatrix::MaterializeFrom(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm, PropagationMode mode,
    const Strategy& strategy, size_t threads) {
  EffectiveMatrix matrix;
  matrix.strategy_ = strategy.Canonical();
  matrix.epoch_ = eacm.epoch();
  matrix.dag_generation_ = dag.generation();
  matrix.subject_count_ = dag.node_count();
  matrix.object_count_ = eacm.object_count();
  matrix.right_count_ = eacm.right_count();

  // A column with no explicit authorization is uniform: every
  // subject's bag holds only 'd' markers, so the default (or, with
  // defaults off, the preference) rule decides identically everywhere.
  RightsBag defaults_only;
  defaults_only.Add(0, acm::PropagatedMode::kDefault, 1);
  defaults_only.Normalize();
  matrix.empty_column_mode_ = Resolve(defaults_only, matrix.strategy_);

  // Sorted vector + dedup instead of a node-per-key std::set: the key
  // count is bounded by the entry count, and one sort of a flat array
  // beats per-insert red-black rebalancing.
  std::vector<uint32_t> referenced;
  referenced.reserve(eacm.size());
  for (const auto& e : eacm.SortedEntries()) {
    referenced.push_back(ColumnKey(e.object, e.right));
  }
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  matrix.RebuildColumns(dag, eacm, mode, referenced, threads);
  if constexpr (obs::kEnabled) GetMatrixMetrics().materializations.Inc();
  return matrix;
}

StatusOr<EffectiveMatrix> EffectiveMatrix::Materialize(
    const AccessControlSystem& system, const Strategy& strategy,
    size_t threads) {
  return MaterializeFrom(system.dag(), system.eacm(),
                         system.propagation_mode(), strategy, threads);
}

StatusOr<EffectiveMatrix> EffectiveMatrix::Materialize(
    const HierarchySnapshot& snapshot, const Strategy& strategy,
    size_t threads) {
  return MaterializeFrom(snapshot.dag, snapshot.eacm,
                         snapshot.propagation_mode, strategy, threads);
}

EffectiveMatrix::ColumnBits EffectiveMatrix::ComputeColumn(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm, PropagationMode mode,
    uint32_t key, std::span<const graph::NodeId> topo) const {
  const auto object = static_cast<acm::ObjectId>(key >> 16);
  const auto right = static_cast<acm::RightId>(key & 0xFFFF);
  ColumnBits column;
  column.bits.assign((subject_count_ + 63) / 64, 0);
  DeriveColumn(dag, eacm, mode, object, right, strategy_, subject_count_,
               topo, [&](size_t v, acm::Mode decision) {
                 if (decision == acm::Mode::kPositive) {
                   column.bits[v / 64] |= uint64_t{1} << (v % 64);
                 }
               });
  column.epoch = eacm.ColumnEpoch(object, right);
  return column;
}

void EffectiveMatrix::RebuildColumns(const graph::Dag& dag,
                                     const acm::ExplicitAcm& eacm,
                                     PropagationMode mode,
                                     const std::vector<uint32_t>& keys,
                                     size_t threads) {
  threads = ThreadPool::ClampToHardware(threads);
  const std::vector<graph::NodeId> topo = dag.TopologicalOrder();
  std::vector<ColumnBits> derived(keys.size());
  // Column derivations are ms-scale, so two clock reads per column are
  // noise; the histogram feeds capacity planning for Refresh cadence.
  const auto timed_compute = [&](size_t i) {
    const uint64_t t0 = obs::NowNs();
    derived[i] = ComputeColumn(dag, eacm, mode, keys[i], topo);
    if constexpr (obs::kEnabled) {
      GetMatrixMetrics().column_build.Observe(obs::NowNs() - t0);
    }
  };
  if (threads <= 1 || keys.size() <= 1) {
    for (size_t i = 0; i < keys.size(); ++i) timed_compute(i);
  } else {
    // Columns share only immutable inputs (the DAG, a read-only
    // explicit matrix, one topological order), so each derivation runs
    // lock-free; the caller counts as one executor, so the pool gets
    // threads - 1 workers.
    ThreadPool pool(threads - 1);
    pool.ParallelFor(0, keys.size(), timed_compute);
  }
  if constexpr (obs::kEnabled) {
    GetMatrixMetrics().columns_rebuilt.Inc(keys.size());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    columns_[keys[i]] = std::move(derived[i].bits);
    column_epochs_[keys[i]] = derived[i].epoch;
  }
}

void EffectiveMatrix::RefreshRows(const graph::Dag& dag,
                                  const acm::ExplicitAcm& eacm,
                                  PropagationMode mode,
                                  const std::vector<graph::NodeId>& rows,
                                  const std::vector<uint32_t>& keys) {
  PropagateOptions prop_options;
  prop_options.propagation_mode = mode;
  HotPath& hot = HotPath::ThreadLocal();
  for (graph::NodeId v : rows) {
    // One extraction per affected subject, shared across all columns
    // (the sub-graph depends only on the hierarchy); per column the
    // sparse labels are restaged and propagated over the sub-graph —
    // the same derivation CheckAccess runs for one query.
    const auto view = hot.scratch.Extract(dag, v);
    for (uint32_t key : keys) {
      const auto object = static_cast<acm::ObjectId>(key >> 16);
      const auto right = static_cast<acm::RightId>(key & 0xFFFF);
      hot.propagator.SetLabels(eacm.Column(object, right), subject_count_);
      const acm::Mode decision = ResolveEntries(
          hot.propagator.PropagateSink(view, prop_options), strategy_);
      std::vector<uint64_t>& bits = columns_[key];
      const uint64_t mask = uint64_t{1} << (v % 64);
      if (decision == acm::Mode::kPositive) {
        bits[v / 64] |= mask;
      } else {
        bits[v / 64] &= ~mask;
      }
    }
  }
}

StatusOr<size_t> EffectiveMatrix::Refresh(const AccessControlSystem& system,
                                          size_t threads) {
  const size_t node_count = system.dag().node_count();
  if (node_count < subject_count_) {
    return Status::FailedPrecondition(
        "Refresh requires a hierarchy grown from the one the matrix was "
        "built from (subjects are never removed)");
  }
  // Affected rows: subjects whose generation stamp moved past the one
  // captured at materialization — exactly those whose ancestor
  // sub-graph a hierarchy edit could change, plus freshly created
  // subjects (stamped at creation).
  std::vector<graph::NodeId> rows;
  for (graph::NodeId v = 0; v < node_count; ++v) {
    if (v >= subject_count_ ||
        system.dag().node_generation(v) > dag_generation_) {
      rows.push_back(v);
    }
  }
  if (node_count != subject_count_) {
    // The hierarchy grew: extend every column. The new rows are
    // derived below (they are all in `rows`).
    subject_count_ = node_count;
    const size_t words = (node_count + 63) / 64;
    for (auto& [key, bits] : columns_) bits.resize(words, 0);
  }

  // Columns can appear (new authorizations on a fresh object/right) or
  // change; gather every referenced column and compare epochs. Sorted
  // vector + dedup, like Materialize.
  std::vector<uint32_t> referenced;
  referenced.reserve(system.eacm().size() + column_epochs_.size());
  for (const auto& e : system.eacm().SortedEntries()) {
    referenced.push_back(ColumnKey(e.object, e.right));
  }
  for (const auto& [key, epoch] : column_epochs_) referenced.push_back(key);
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());

  std::vector<uint32_t> stale;
  std::vector<uint32_t> current_keys;
  for (uint32_t key : referenced) {
    const auto object = static_cast<acm::ObjectId>(key >> 16);
    const auto right = static_cast<acm::RightId>(key & 0xFFFF);
    const uint64_t current = system.eacm().ColumnEpoch(object, right);
    auto it = column_epochs_.find(key);
    if (it != column_epochs_.end() && it->second == current) {
      current_keys.push_back(key);
      continue;
    }
    stale.push_back(key);
  }
  // Stale columns are rebuilt whole (their epoch lapsed, every row is
  // suspect); epoch-current columns get only the affected rows
  // re-derived.
  if (!stale.empty()) {
    RebuildColumns(system.dag(), system.eacm(), system.propagation_mode(),
                   stale, threads);
  }
  if (!rows.empty() && !current_keys.empty()) {
    RefreshRows(system.dag(), system.eacm(), system.propagation_mode(), rows,
                current_keys);
  }
  if constexpr (obs::kEnabled) GetMatrixMetrics().refreshes.Inc();
  object_count_ = system.eacm().object_count();
  right_count_ = system.eacm().right_count();
  epoch_ = system.eacm().epoch();
  dag_generation_ = system.dag().generation();
  return stale.size();
}

StatusOr<acm::Mode> EffectiveMatrix::Lookup(graph::NodeId subject,
                                            acm::ObjectId object,
                                            acm::RightId right) const {
  if (subject >= subject_count_) {
    return Status::OutOfRange("subject id out of range");
  }
  if (object >= object_count_ || right >= right_count_) {
    return Status::OutOfRange(
        "object/right unknown at materialization time");
  }
  auto it = columns_.find(ColumnKey(object, right));
  if (it == columns_.end()) return empty_column_mode_;
  const bool granted =
      (it->second[subject / 64] >> (subject % 64)) & uint64_t{1};
  return granted ? acm::Mode::kPositive : acm::Mode::kNegative;
}

size_t EffectiveMatrix::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [key, bits] : columns_) {
    bytes += sizeof(key) + bits.size() * sizeof(uint64_t) +
             sizeof(std::vector<uint64_t>);
  }
  return bytes;
}

}  // namespace ucr::core
