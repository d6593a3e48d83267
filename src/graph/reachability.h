#ifndef UCR_GRAPH_REACHABILITY_H_
#define UCR_GRAPH_REACHABILITY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/dag.h"
#include "util/paged_array.h"

namespace ucr {
class ThreadPool;
}  // namespace ucr

namespace ucr::graph {

/// \brief One subject's explicit-matrix row, packed for the
/// reachability index (DESIGN.md §12).
///
/// `row` holds one opaque 64-bit key per explicit ⟨object, right,
/// mode⟩ entry of the subject, sorted ascending. The graph layer never
/// interprets the keys — it only compares rows for equality to fold
/// label-equivalent nodes into one supernode class; the packing (and
/// the per-column lookup the query path needs) is defined by
/// `acm::ExplicitAcm::PackReachEntry` / `ReachRowMode`.
struct ReachLabeledRow {
  NodeId node = kInvalidNode;
  /// Sorted packed entries; empty = the subject is now unlabeled
  /// (meaningful in incremental row updates).
  std::vector<uint64_t> row;
};

/// Build-time budgets for `ReachabilityIndex`. Both are safety valves:
/// exceeding one marks the index not-`ready()` and the query layer
/// falls back to classic ancestor-sub-graph extraction, never to a
/// wrong answer.
struct ReachabilityOptions {
  /// Mean per-node budget for the compressed profile labels: a build
  /// aborts once the live label entries exceed `node_count *
  /// max_mean_label_entries` (adversarial mixes of many distinct label
  /// signatures and wide distance spreads can make the labels
  /// super-linear).
  size_t max_mean_label_entries = 64;

  /// Hard per-node profile cap, against single pathological sinks.
  size_t max_node_label_entries = 4096;
};

/// \brief Reachability labels + summary-DAG compression over the
/// subject hierarchy (DESIGN.md §12).
///
/// Two cooperating structures, both immutable once built:
///
///  1. **Supernode classes** — every node is classified by its packed
///     explicit-matrix row plus its root-ness. Nodes with identical
///     rows (and root-ness) are *label-equivalent*: they seed the same
///     propagated mode in every column under every strategy, so the
///     paper's Fig. 7b diamond regions (all unlabeled interior nodes)
///     fold into a single interior class and the summary DAG over the
///     classes stays polynomial where the path count is exponential.
///  2. **Compressed profile labels** — per node `t`, the bag-algebra
///     label `L(t) = {(class, distance) -> path count}` aggregating
///     every hierarchy path from every member of each class down to
///     `t` (counts saturate exactly like the propagation engines').
///     The sink's propagated `allRights` bag is a direct function of
///     `L(t)` and the query column, so an indexed query touches
///     O(|L(t)|) entries instead of extracting the ancestor sub-graph.
///
/// Labels live in shared immutable pools: each node holds a pointer
/// and a length into one of them. Incremental maintenance
/// (`RebuildIncremental`) recomputes labels only for the *affected
/// set* — the edited-child-plus-descendants sets the PR 5 scoped
/// invalidation machinery already produces — writes them into one new
/// pool, and shares every older pool with the previous generation, so
/// an edit costs O(affected) label work. The per-node slots are a
/// `PagedArray` shared the same way, so a generation also copies only
/// the slot pages its affected nodes sit in. Once dead entries (labels
/// superseded by later generations) outnumber live ones, a rebuild
/// repacks every live label into one pool. Each `HierarchySnapshot`
/// carries a shared immutable view, so snapshot readers stay
/// lock-free. Boolean reachability is a separate structure,
/// `ReachQuery` (graph/reach_query.h), built on demand.
///
/// The label DP runs level by level (longest-path depth); a wide level
/// is labeled on a thread pool of `ThreadPool::DefaultThreadCount() -
/// 1` workers, with labels, classes and budget outcomes identical to a
/// serial pass.
class ReachabilityIndex {
 public:
  using ClassId = uint32_t;
  /// Class of unlabeled non-root nodes: pure pass-through structure,
  /// folded away (they never seed a propagated mode).
  static constexpr ClassId kInteriorClass = UINT32_MAX;

  /// One group of the compressed label of a node: `count` hierarchy
  /// paths of length `dis` from members of class `cls` down to the
  /// node. Sorted by (cls, dis) within a label; counts saturate.
  struct ProfileEntry {
    ClassId cls = 0;
    uint32_t dis = 0;
    uint64_t count = 0;
  };

  /// One supernode of the summary DAG.
  struct ClassInfo {
    /// The packed explicit row shared by every member (empty for the
    /// unlabeled-root class).
    std::span<const uint64_t> row;
    bool is_root = false;
    /// Members currently assigned (0 for a class abandoned by
    /// incremental row churn; kept so older labels stay decodable).
    size_t member_count = 0;
  };

  /// Size/health counters for exposition and tests.
  struct IndexStats {
    bool ready = false;
    size_t supernodes = 0;     ///< Classes with at least one member.
    size_t folded_nodes = 0;   ///< Interior nodes (no class of their own).
    size_t label_entries = 0;  ///< Live profile entries across all nodes.
    /// Pooled label bytes — dead entries awaiting repack included —
    /// plus the per-node slots (class and label view).
    size_t label_bytes = 0;
    size_t label_pools = 0;  ///< Pools the labels are spread over.
  };

  /// \brief Full build against one (hierarchy, matrix) generation.
  ///
  /// `acm_epoch` is the matrix epoch the rows were extracted at; the
  /// query layer compares it (and `dag_generation`) before trusting
  /// the index. `rows` lists every labeled subject (unlabeled subjects
  /// are implied). Never fails: on budget breach the returned index
  /// reports `ready() == false` and callers fall back.
  static std::shared_ptr<const ReachabilityIndex> Build(
      const Dag& dag, uint64_t acm_epoch,
      std::span<const ReachLabeledRow> rows,
      const ReachabilityOptions& options = {});

  /// \brief Derives the next index generation from `previous`,
  /// recomputing only the affected scope.
  ///
  /// `affected` must contain every node whose ancestor set or own row
  /// may have changed, *closed under hierarchy descendants* — exactly
  /// the sets `Dag::InsertEdge`/`EraseEdge` report and
  /// `Dag::DescendantsOf(subject)` yields for a row edit. Nodes with
  /// ids at or beyond the previous generation's node count are
  /// implicitly affected (they are new). `changed_rows` carries the
  /// new packed rows of subjects whose explicit entries changed (an
  /// empty row = now unlabeled).
  ///
  /// Profile labels of unaffected nodes are shared with `previous`
  /// (their pools are reference-counted, not copied); only the
  /// affected nodes' labels are written, into one new pool.
  static std::shared_ptr<const ReachabilityIndex> RebuildIncremental(
      const Dag& dag, uint64_t acm_epoch,
      const std::shared_ptr<const ReachabilityIndex>& previous,
      std::span<const NodeId> affected,
      std::span<const ReachLabeledRow> changed_rows);

  /// False when a build budget tripped: the profile labels are absent
  /// and only class metadata may be consulted.
  bool ready() const { return ready_; }

  /// The `Dag::generation()` / matrix epoch this index describes.
  uint64_t dag_generation() const { return dag_generation_; }
  uint64_t acm_epoch() const { return acm_epoch_; }
  size_t node_count() const { return nodes_.size(); }

  /// Class of node `v`, or `kInteriorClass` for folded interiors.
  ClassId class_of(NodeId v) const { return nodes_[v].cls; }
  bool is_root(NodeId v) const;

  size_t class_count() const { return classes_.size(); }
  ClassInfo class_info(ClassId c) const {
    const ClassData& d = classes_[c];
    return ClassInfo{{d.row.data(), d.row.size()}, d.is_root, d.members};
  }

  /// Compressed label of node `v` (requires `ready()`).
  std::span<const ProfileEntry> label(NodeId v) const {
    const NodeSlot& slot = nodes_[v];
    return {slot.label, slot.label_len};
  }

  /// O(1): the class counters are kept current by every assignment.
  IndexStats stats() const;

  /// Summary-DAG edges between classes: `(from, to) -> distinct
  /// (distance, count) groups`, aggregated over the member profiles of
  /// `to`. Derived on demand (exposition/tests, not the query path).
  std::map<std::pair<ClassId, ClassId>, size_t> SummaryEdges() const;

 private:
  /// Runs the `*On` entry points on a chosen pool (equivalence tests).
  friend struct ReachabilityIndexTestPeer;

  ReachabilityIndex() = default;

  /// `Build` / `RebuildIncremental` with the label DP's wide levels on
  /// `workers`; null starts a pool of DefaultThreadCount() - 1 workers
  /// at the first wide level (none on a 1-CPU host).
  static std::shared_ptr<const ReachabilityIndex> BuildOn(
      const Dag& dag, uint64_t acm_epoch,
      std::span<const ReachLabeledRow> rows,
      const ReachabilityOptions& options, ThreadPool* workers);
  static std::shared_ptr<const ReachabilityIndex> RebuildIncrementalOn(
      const Dag& dag, uint64_t acm_epoch,
      const std::shared_ptr<const ReachabilityIndex>& previous,
      std::span<const NodeId> affected,
      std::span<const ReachLabeledRow> changed_rows, ThreadPool* workers);

  struct ClassData {
    std::vector<uint64_t> row;
    bool is_root = false;
    size_t members = 0;
  };

  /// (row, is_root) -> ClassId interning key. Build-time only.
  using ClassKey = std::pair<std::vector<uint64_t>, bool>;

  using LabelPool = std::vector<ProfileEntry>;

  ClassId InternClass(std::vector<uint64_t> row, bool root);
  void AssignClasses(const Dag& dag, std::span<const ReachLabeledRow> rows);
  /// Moves node `v` to class `next`, keeping member and folded counts.
  void Reassign(NodeId v, ClassId next);
  /// Per-thread buffers of `MergeParentLabels`.
  struct LabelScratch {
    std::vector<ProfileEntry> acc;  ///< The result.
    std::vector<ProfileEntry> run;
    std::vector<ProfileEntry> merged;
  };
  /// Computes L(v) from its parents' slots into `scratch.acc`. Reads
  /// only; safe to run concurrently for the nodes of one level.
  void MergeParentLabels(const Dag& dag, NodeId v,
                         LabelScratch& scratch) const;
  /// Computes profile labels into one new pool. With `prev == nullptr`
  /// the whole hierarchy is labeled level by level; otherwise only the
  /// nodes of `affected` (sorted, unique) are recomputed, by levels of
  /// the affected-induced sub-graph, and every other node keeps
  /// `prev`'s label, pool shared. Levels of at least
  /// `kParallelLevelWidth` nodes run on `workers` (see `BuildOn`).
  /// Returns false on budget breach.
  bool ComputeLabels(const Dag& dag, std::span<const NodeId> affected,
                     const ReachabilityIndex* prev, ThreadPool* workers);
  /// Copies every live label into one pool and drops the others.
  void RepackLabels();
  /// Not-ready state: no labels, no pools (classes stay).
  void DropLabels();
  void PublishMetrics() const;

  bool ready_ = false;
  uint64_t dag_generation_ = 0;
  uint64_t acm_epoch_ = 0;
  ReachabilityOptions options_;

  std::vector<ClassData> classes_;
  std::map<ClassKey, ClassId> class_ids_;

  /// Everything a query reads about one node, in one 16-byte slot (a
  /// decision on a cold subject pays one cache miss for all of it).
  /// `label` points into `label_pools_`: pools are immutable once the
  /// generation that wrote them is built and are shared by every later
  /// generation (and by copies of this index) still pointing into
  /// them, so a view stays valid as long as its index does.
  struct NodeSlot {
    const ProfileEntry* label = nullptr;
    uint32_t label_len = 0;
    ClassId cls = kInteriorClass;
  };
  static_assert(sizeof(NodeSlot) == 16);
  PagedArray<NodeSlot> nodes_;
  size_t supernodes_ = 0;    ///< Classes with at least one member.
  size_t folded_nodes_ = 0;  ///< Nodes in `kInteriorClass`.
  std::vector<std::shared_ptr<const ProfileEntry[]>> label_pools_;
  size_t live_entries_ = 0;    ///< Sum of `label_len`.
  size_t pooled_entries_ = 0;  ///< Sum of pool sizes (live + dead).
};

}  // namespace ucr::graph

#endif  // UCR_GRAPH_REACHABILITY_H_
