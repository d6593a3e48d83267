#include "graph/reachability.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <optional>
#include <span>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ucr::graph {

namespace {

/// Index health telemetry (DESIGN.md §12). Gauges describe the most
/// recently published generation; counters/histograms accumulate.
struct ReachMetrics {
  obs::Gauge& supernodes = obs::Registry::Global().GetGauge(
      "ucr_reach_supernodes",
      "Summary-DAG supernodes (label-equivalence classes with members)");
  obs::Gauge& folded_nodes = obs::Registry::Global().GetGauge(
      "ucr_reach_folded_nodes",
      "Hierarchy nodes folded into the interior class");
  obs::Gauge& label_entries = obs::Registry::Global().GetGauge(
      "ucr_reach_label_entries",
      "Compressed profile-label entries across all nodes");
  obs::Gauge& label_bytes = obs::Registry::Global().GetGauge(
      "ucr_reach_label_bytes",
      "Reachability-index label footprint (pooled entries, dead ones "
      "awaiting repack included, plus per-node views)");
  obs::Counter& builds = obs::Registry::Global().GetCounter(
      "ucr_reach_builds_total", "Full reachability-index builds");
  obs::Counter& incremental = obs::Registry::Global().GetCounter(
      "ucr_reach_incremental_rebuilds_total",
      "Scoped (affected-set) reachability-index rebuilds");
  obs::Counter& budget_aborts = obs::Registry::Global().GetCounter(
      "ucr_reach_budget_aborts_total",
      "Label builds abandoned over a ReachabilityOptions budget");
  obs::Histogram& rebuild_ns = obs::Registry::Global().GetHistogram(
      "ucr_reach_rebuild_ns",
      "Incremental reachability-index rebuild latency (ns, log2 buckets)");
  obs::Histogram& affected = obs::Registry::Global().GetHistogram(
      "ucr_reach_rebuild_affected_nodes",
      "Nodes relabeled per incremental rebuild (log2 buckets)");
};

ReachMetrics& Metrics() {
  static ReachMetrics* metrics = new ReachMetrics();
  return *metrics;
}

/// Levels at least this wide are labeled on a thread pool (when the
/// host has more than one CPU); narrower ones run serially on the
/// caller, where a hand-off to workers would cost more than it saves.
constexpr size_t kParallelLevelWidth = 1024;

/// Nodes per parallel task: each task writes its labels into one buffer
/// of its own, copied in order into the level's pool once the level is
/// done.
constexpr size_t kLabelChunk = 256;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// Merges two label runs sorted by (class, distance) with unique keys
/// into `out`, adding the counts of equal keys (saturating). Saturating
/// addition is associative and commutative, so the result is the same
/// in any merge order — bit-identical to sorting every contribution
/// and coalescing.
void MergeRuns(std::span<const ReachabilityIndex::ProfileEntry> a,
               std::span<const ReachabilityIndex::ProfileEntry> b,
               std::vector<ReachabilityIndex::ProfileEntry>& out) {
  out.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].cls == b[j].cls && a[i].dis == b[j].dis) {
      out.push_back(a[i]);
      out.back().count = SatAdd(a[i].count, b[j].count);
      ++i;
      ++j;
    } else if (a[i].cls != b[j].cls ? a[i].cls < b[j].cls
                                    : a[i].dis < b[j].dis) {
      out.push_back(a[i++]);
    } else {
      out.push_back(b[j++]);
    }
  }
  out.insert(out.end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
}

/// Storage for `n` label entries, left uninitialized: the DP's tasks
/// copy the labels in, so the pages are first touched on the threads
/// that fill them.
std::shared_ptr<ReachabilityIndex::ProfileEntry[]> AllocateLabels(size_t n) {
  using Alloc = std::allocator<ReachabilityIndex::ProfileEntry>;
  return {Alloc().allocate(n), [n](ReachabilityIndex::ProfileEntry* p) {
            Alloc().deallocate(p, n);
          }};
}

/// A grown label vector as one more immutable pool (the pointer keeps
/// the vector alive).
std::shared_ptr<const ReachabilityIndex::ProfileEntry[]> Share(
    std::shared_ptr<std::vector<ReachabilityIndex::ProfileEntry>> pool) {
  const ReachabilityIndex::ProfileEntry* const data = pool->data();
  return {std::move(pool), data};
}

}  // namespace

bool ReachabilityIndex::is_root(NodeId v) const {
  const ClassId c = nodes_[v].cls;
  return c != kInteriorClass && classes_[c].is_root;
}

ReachabilityIndex::ClassId ReachabilityIndex::InternClass(
    std::vector<uint64_t> row, bool root) {
  ClassKey key{std::move(row), root};
  auto it = class_ids_.find(key);
  if (it != class_ids_.end()) return it->second;
  const auto id = static_cast<ClassId>(classes_.size());
  classes_.push_back(ClassData{std::move(key.first), root, 0});
  // The key's row vector was moved into the class; rebuild it as a
  // view-equal copy for the map. (Build-time only; class counts are
  // tiny next to node counts.)
  class_ids_.emplace(ClassKey{classes_.back().row, root}, id);
  return id;
}

void ReachabilityIndex::AssignClasses(const Dag& dag,
                                      std::span<const ReachLabeledRow> rows) {
  const size_t n = dag.node_count();
  nodes_.assign(n, NodeSlot{});
  folded_nodes_ = n;
  for (const ReachLabeledRow& r : rows) {
    assert(r.node < n);
    assert(std::is_sorted(r.row.begin(), r.row.end()));
    if (r.row.empty()) continue;  // Unlabeled: root-ness decides below.
    Reassign(r.node, InternClass(r.row, dag.is_root(r.node)));
  }
  for (NodeId v = 0; v < n; ++v) {
    if (nodes_[v].cls == kInteriorClass && dag.is_root(v)) {
      Reassign(v, InternClass({}, true));
    }
  }
}

void ReachabilityIndex::Reassign(NodeId v, ClassId next) {
  const ClassId cur = nodes_[v].cls;
  if (cur == next) return;
  if (cur == kInteriorClass) {
    --folded_nodes_;
  } else if (--classes_[cur].members == 0) {
    --supernodes_;
  }
  if (next == kInteriorClass) {
    ++folded_nodes_;
  } else if (classes_[next].members++ == 0) {
    ++supernodes_;
  }
  nodes_.Mutable(v).cls = next;
}

void ReachabilityIndex::MergeParentLabels(const Dag& dag, NodeId v,
                                          LabelScratch& scratch) const {
  // L(v) = sum over parents p of shift1(L(p)) plus a (class(p), dis=1,
  // 1) unit for each anchor parent. Entries merge by (class, distance)
  // with saturating counts — the same per-node normalize-and-merge the
  // propagation engines perform, so the aggregated counts are
  // bit-identical to engine multiplicities. Each parent's run is
  // already sorted (its label shifted by one, with the unit spliced
  // in), so runs merge instead of re-sorting.
  std::vector<ProfileEntry>& acc = scratch.acc;
  std::vector<ProfileEntry>& run = scratch.run;
  acc.clear();
  for (const NodeId p : dag.parents(v)) {
    const NodeSlot& parent = nodes_[p];
    const std::span<const ProfileEntry> parent_label(parent.label,
                                                     parent.label_len);
    const ClassId pc = parent.cls;
    run.clear();
    size_t i = 0;
    if (pc != kInteriorClass) {
      // Every shifted entry has dis >= 2, so the (pc, 1) unit sorts
      // before all of class pc's entries.
      for (; i < parent_label.size() && parent_label[i].cls < pc; ++i) {
        const ProfileEntry& e = parent_label[i];
        run.push_back(ProfileEntry{e.cls, e.dis + 1, e.count});
      }
      run.push_back(ProfileEntry{pc, 1, 1});
    }
    for (; i < parent_label.size(); ++i) {
      const ProfileEntry& e = parent_label[i];
      run.push_back(ProfileEntry{e.cls, e.dis + 1, e.count});
    }
    if (acc.empty()) {
      acc.swap(run);
    } else {
      MergeRuns(acc, run, scratch.merged);
      acc.swap(scratch.merged);
    }
  }
}

bool ReachabilityIndex::ComputeLabels(const Dag& dag,
                                      std::span<const NodeId> affected,
                                      const ReachabilityIndex* prev,
                                      ThreadPool* workers) {
  const size_t n = dag.node_count();
  const size_t pool_budget = n * options_.max_mean_label_entries;

  // The order to (re)compute, grouped into levels by longest-path
  // depth: a FIFO Kahn pass finishes level d before any node of level
  // d + 1 becomes ready, so recording where each level ends suffices.
  // The pass runs over the whole hierarchy, or over the
  // affected-induced sub-graph (affected sets are closed under
  // descendants, so an affected node's unaffected parents keep their
  // previous labels — shared below — and its affected parents sit in
  // earlier levels).
  std::vector<NodeId> order;
  std::vector<size_t> level_ends;
  const auto kahn = [&](auto&& expand) {
    size_t level_end = order.size();
    for (size_t head = 0; head < order.size(); ++head) {
      if (head == level_end) {
        level_ends.push_back(level_end);
        level_end = order.size();
      }
      expand(order[head]);
    }
    if (!order.empty()) level_ends.push_back(order.size());
  };
  auto pool = std::make_shared<LabelPool>();
  size_t reserve = 0;  // `pool`'s first capacity.
  if (prev == nullptr) {
    DropLabels();
    std::vector<uint32_t> indegree(n);
    order.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      indegree[v] = static_cast<uint32_t>(dag.parents(v).size());
      if (indegree[v] == 0) order.push_back(v);
    }
    kahn([&](NodeId v) {
      for (const NodeId c : dag.children(v)) {
        if (--indegree[c] == 0) order.push_back(c);
      }
    });
    // One entry per node is a floor for any labeled hierarchy; the
    // doublings past it are amortized by the rebase below.
    reserve = n;
  } else {
    // `nodes_` already holds `prev`'s views (the caller copied them
    // along with the classes).
    assert(prev->ready());
    label_pools_ = prev->label_pools_;
    live_entries_ = prev->live_entries_;
    pooled_entries_ = prev->pooled_entries_;
    // Kahn over the affected nodes only: in-degree restricted to
    // affected parents, membership by binary search in the sorted
    // list, so the pass costs O(affected degree * log affected).
    const auto position = [&](NodeId v) {
      const auto it = std::lower_bound(affected.begin(), affected.end(), v);
      return it != affected.end() && *it == v
                 ? static_cast<size_t>(it - affected.begin())
                 : affected.size();
    };
    std::vector<uint32_t> indegree(affected.size(), 0);
    // The superseded labels' total size predicts the new pool's: an
    // edit rarely moves it by more than one entry per node.
    size_t superseded = 0;
    for (size_t i = 0; i < affected.size(); ++i) {
      const NodeId v = affected[i];
      superseded += nodes_[v].label_len;
      uint32_t d = 0;
      for (const NodeId p : dag.parents(v)) {
        d += position(p) < affected.size() ? 1u : 0u;
      }
      indegree[i] = d;
      if (d == 0) order.push_back(v);
    }
    kahn([&](NodeId v) {
      for (const NodeId c : dag.children(v)) {
        const size_t i = position(c);
        if (i < affected.size() && --indegree[i] == 0) order.push_back(c);
      }
    });
    live_entries_ -= superseded;  // Dead once the new labels land.
    reserve = superseded + affected.size();
  }

  // Narrow levels append to `pool`. `in_pool` records each node whose
  // label starts there, with its offset, so a reallocation can
  // re-point the labels written so far.
  std::vector<std::pair<NodeId, size_t>> in_pool;
  const auto store = [&](NodeId v, std::span<const ProfileEntry> label) {
    if (pool->size() + label.size() > pool->capacity()) {
      pool->reserve(std::max({reserve, 2 * pool->capacity(),
                              pool->size() + label.size()}));
      for (const auto& [u, offset] : in_pool) {
        nodes_.Mutable(u).label = pool->data() + offset;
      }
    }
    in_pool.emplace_back(v, pool->size());
    NodeSlot& slot = nodes_.Mutable(v);
    slot.label = pool->data() + pool->size();
    slot.label_len = static_cast<uint32_t>(label.size());
    pool->insert(pool->end(), label.begin(), label.end());
    live_entries_ += label.size();
  };

  // Wide levels run on `workers` (a pool of DefaultThreadCount() - 1
  // workers, started at the first wide level, when the caller passes
  // none), in two passes per level. The first computes each chunk's
  // labels into a buffer of its own, reading only parents' slots and
  // labels, all written by earlier levels. The second copies the
  // buffers into the level's pool and points the slots at them: on the
  // workers in a full build, on the calling thread in an incremental
  // one, where a slot page may still be shared and is cloned on write.
  std::optional<ThreadPool> own_workers;
  // Asked only at the first wide level: the CPU count is a file read,
  // which a small incremental rebuild should not pay.
  std::optional<bool> parallel;
  // One cache line each: tasks append to neighbouring chunks at once.
  struct alignas(64) ChunkLabels {
    std::vector<ProfileEntry> entries;
    std::vector<uint32_t> lens;
  };
  std::vector<ChunkLabels> chunks;
  std::vector<size_t> chunk_at;
  LabelScratch scratch;
  size_t begin = 0;
  for (const size_t end : level_ends) {
    if (end - begin >= kParallelLevelWidth && !parallel.has_value()) {
      parallel = workers != nullptr ? workers->thread_count() > 0
                                    : ThreadPool::DefaultThreadCount() > 1;
    }
    if (end - begin < kParallelLevelWidth || !*parallel) {
      for (size_t k = begin; k < end; ++k) {
        MergeParentLabels(dag, order[k], scratch);
        const size_t out = scratch.acc.size();
        if (out > options_.max_node_label_entries ||
            live_entries_ + out > pool_budget) {
          return false;
        }
        store(order[k], scratch.acc);
      }
      begin = end;
      continue;
    }
    if (workers == nullptr) {
      workers = &own_workers.emplace(ThreadPool::DefaultThreadCount() - 1);
    }
    // Budgets at level granularity: live entries only grow during the
    // DP, so a level aborts iff some node exceeds the per-node cap or
    // the level's total passes the pool budget — exactly when the
    // serial loop would have, somewhere in the same level. A task stops
    // early once either has surely tripped, bounding its buffer.
    const size_t chunk_count = (end - begin + kLabelChunk - 1) / kLabelChunk;
    if (chunks.size() < chunk_count) chunks.resize(chunk_count);
    std::atomic<size_t> level_entries{0};
    std::atomic<bool> over{false};
    workers->ParallelFor(0, chunk_count, [&](size_t c) {
      ChunkLabels& out = chunks[c];
      out.entries.clear();
      out.lens.clear();
      LabelScratch local;
      const size_t first = begin + c * kLabelChunk;
      const size_t last = std::min(end, first + kLabelChunk);
      for (size_t k = first; k < last; ++k) {
        if (over.load(std::memory_order_relaxed)) return;
        MergeParentLabels(dag, order[k], local);
        const size_t size = local.acc.size();
        out.entries.insert(out.entries.end(), local.acc.begin(),
                           local.acc.end());
        out.lens.push_back(static_cast<uint32_t>(size));
        if (size > options_.max_node_label_entries ||
            live_entries_ + out.entries.size() +
                    level_entries.load(std::memory_order_relaxed) >
                pool_budget) {
          over.store(true, std::memory_order_relaxed);
          return;
        }
      }
      level_entries.fetch_add(out.entries.size(), std::memory_order_relaxed);
    });
    const size_t total = level_entries.load();
    if (over.load() || live_entries_ + total > pool_budget) return false;
    // The level's labels go into a pool of their own, sized exactly, so
    // no earlier label moves. `chunk_at[c]` is where chunk c's labels
    // start in it.
    chunk_at.assign(1, 0);
    for (size_t c = 0; c < chunk_count; ++c) {
      chunk_at.push_back(chunk_at.back() + chunks[c].entries.size());
    }
    const std::shared_ptr<ProfileEntry[]> level_pool = AllocateLabels(total);
    const auto write_back = [&](size_t c) {
      const ChunkLabels& labels = chunks[c];
      ProfileEntry* at = level_pool.get() + chunk_at[c];
      std::uninitialized_copy(labels.entries.begin(), labels.entries.end(),
                              at);
      const size_t first = begin + c * kLabelChunk;
      for (size_t i = 0; i < labels.lens.size(); ++i) {
        NodeSlot& slot = nodes_.Mutable(order[first + i]);
        slot.label = at;
        slot.label_len = labels.lens[i];
        at += labels.lens[i];
      }
    };
    if (prev == nullptr) {
      // A full build owns every slot page (`AssignClasses` assigned
      // them), so `Mutable` writes in place and the tasks, each on its
      // own nodes, write their slots and first-touch their share of
      // the pool themselves.
      workers->ParallelFor(0, chunk_count, write_back);
    } else {
      // Pages shared with earlier generations are cloned on write,
      // which only the calling thread may do.
      for (size_t c = 0; c < chunk_count; ++c) write_back(c);
    }
    live_entries_ += total;
    pooled_entries_ += total;
    label_pools_.push_back(level_pool);
    begin = end;
  }
  if (!pool->empty()) {
    pooled_entries_ += pool->size();
    label_pools_.push_back(Share(std::move(pool)));
  }

  // Repack once dead entries outnumber live ones (amortized O(1) per
  // entry), or once the pool list itself grows past sqrt(live): every
  // rebuild copies the list, so P rebuilds since the last repack have
  // cost ~P^2/2 reference copies — one repack's worth at P ~ sqrt(live).
  const size_t dead = pooled_entries_ - live_entries_;
  const size_t pools = label_pools_.size();
  if (pools > 1 && (dead > live_entries_ || pools * pools > live_entries_)) {
    RepackLabels();
  }
  return true;
}

void ReachabilityIndex::RepackLabels() {
  auto pool = std::make_shared<LabelPool>();
  pool->reserve(live_entries_);
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    NodeSlot& slot = nodes_.Mutable(v);
    const ProfileEntry* const first = slot.label;
    slot.label = pool->data() + pool->size();
    pool->insert(pool->end(), first, first + slot.label_len);
  }
  label_pools_.assign(1, Share(std::move(pool)));
  pooled_entries_ = live_entries_;
}

void ReachabilityIndex::DropLabels() {
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].label == nullptr) continue;
    NodeSlot& slot = nodes_.Mutable(v);
    slot.label = nullptr;
    slot.label_len = 0;
  }
  label_pools_.clear();
  live_entries_ = 0;
  pooled_entries_ = 0;
}

ReachabilityIndex::IndexStats ReachabilityIndex::stats() const {
  IndexStats s;
  s.ready = ready_;
  s.supernodes = supernodes_;
  s.folded_nodes = folded_nodes_;
  s.label_entries = live_entries_;
  s.label_bytes = pooled_entries_ * sizeof(ProfileEntry) +
                  nodes_.size() * sizeof(NodeSlot);
  s.label_pools = label_pools_.size();
  return s;
}

std::map<std::pair<ReachabilityIndex::ClassId, ReachabilityIndex::ClassId>,
         size_t>
ReachabilityIndex::SummaryEdges() const {
  std::map<std::pair<ClassId, ClassId>, size_t> edges;
  for (NodeId v = 0; v < node_count(); ++v) {
    const ClassId to = nodes_[v].cls;
    if (to == kInteriorClass) continue;
    for (const ProfileEntry& e : label(v)) {
      ++edges[{e.cls, to}];
    }
  }
  return edges;
}

void ReachabilityIndex::PublishMetrics() const {
  if constexpr (!obs::kEnabled) return;
  const IndexStats s = stats();
  ReachMetrics& m = Metrics();
  m.supernodes.Set(static_cast<int64_t>(s.supernodes));
  m.folded_nodes.Set(static_cast<int64_t>(s.folded_nodes));
  m.label_entries.Set(static_cast<int64_t>(s.label_entries));
  m.label_bytes.Set(static_cast<int64_t>(s.label_bytes));
}

std::shared_ptr<const ReachabilityIndex> ReachabilityIndex::Build(
    const Dag& dag, uint64_t acm_epoch, std::span<const ReachLabeledRow> rows,
    const ReachabilityOptions& options) {
  return BuildOn(dag, acm_epoch, rows, options, nullptr);
}

std::shared_ptr<const ReachabilityIndex> ReachabilityIndex::BuildOn(
    const Dag& dag, uint64_t acm_epoch, std::span<const ReachLabeledRow> rows,
    const ReachabilityOptions& options, ThreadPool* workers) {
  auto index = std::shared_ptr<ReachabilityIndex>(new ReachabilityIndex());
  index->options_ = options;
  index->dag_generation_ = dag.generation();
  index->acm_epoch_ = acm_epoch;
  index->AssignClasses(dag, rows);
  index->ready_ = index->ComputeLabels(dag, {}, nullptr, workers);
  if (!index->ready_) {
    index->DropLabels();
    if constexpr (obs::kEnabled) Metrics().budget_aborts.Inc();
  }
  if constexpr (obs::kEnabled) Metrics().builds.Inc();
  index->PublishMetrics();
  return index;
}

std::shared_ptr<const ReachabilityIndex> ReachabilityIndex::RebuildIncremental(
    const Dag& dag, uint64_t acm_epoch,
    const std::shared_ptr<const ReachabilityIndex>& previous,
    std::span<const NodeId> affected,
    std::span<const ReachLabeledRow> changed_rows) {
  return RebuildIncrementalOn(dag, acm_epoch, previous, affected,
                              changed_rows, nullptr);
}

std::shared_ptr<const ReachabilityIndex>
ReachabilityIndex::RebuildIncrementalOn(
    const Dag& dag, uint64_t acm_epoch,
    const std::shared_ptr<const ReachabilityIndex>& previous,
    std::span<const NodeId> affected,
    std::span<const ReachLabeledRow> changed_rows, ThreadPool* workers) {
  assert(previous != nullptr);
  const uint64_t start_ns = obs::NowNs();
  const size_t n = dag.node_count();

  auto index = std::shared_ptr<ReachabilityIndex>(new ReachabilityIndex());
  index->options_ = previous->options_;
  index->dag_generation_ = dag.generation();
  index->acm_epoch_ = acm_epoch;

  // Classes: start from the previous assignment, then apply row edits
  // and classify new nodes. The intern map persists across generations
  // so class ids are stable (labels shared with `previous` stay
  // decodable).
  index->classes_ = previous->classes_;
  index->class_ids_ = previous->class_ids_;
  index->nodes_ = previous->nodes_;
  index->nodes_.Grow(n, NodeSlot{});
  index->supernodes_ = previous->supernodes_;
  index->folded_nodes_ = previous->folded_nodes_ + (n - previous->node_count());
  for (const ReachLabeledRow& r : changed_rows) {
    assert(r.node < n);
    index->Reassign(r.node, r.row.empty()
                                ? (dag.is_root(r.node)
                                       ? index->InternClass({}, true)
                                       : kInteriorClass)
                                : index->InternClass(r.row,
                                                     dag.is_root(r.node)));
  }

  // The nodes to relabel: caller-listed nodes plus nodes new since
  // `previous`, sorted for the Kahn pass's lookups.
  std::vector<NodeId> dirty(affected.begin(), affected.end());
  for (auto v = static_cast<NodeId>(previous->node_count()); v < n; ++v) {
    dirty.push_back(v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  assert(dirty.empty() || dirty.back() < n);

  // Edge edits can flip root-ness (an erase leaving the child
  // parentless, an insert taking a root's independence away), and
  // root-ness is half of the class key: the unlabeled-root class seeds
  // `kDefault`, and `kFirstWins` restricts seeding to root classes.
  // The flips happen only at edited children, which the caller's
  // affected set covers — re-derive those nodes' classes (and new
  // nodes') from the current hierarchy.
  for (const NodeId v : dirty) {
    const ClassId cur = index->nodes_[v].cls;
    const bool root = dag.is_root(v);
    if (cur == kInteriorClass) {
      if (root) index->Reassign(v, index->InternClass({}, true));
      continue;
    }
    if (index->classes_[cur].is_root == root) continue;
    std::vector<uint64_t> row = index->classes_[cur].row;
    index->Reassign(v, row.empty() && !root
                           ? kInteriorClass
                           : index->InternClass(std::move(row), root));
  }
  // A changed row changes what v's *descendants* inherit; callers pass
  // DescendantsOf(v) in `affected`, which includes v itself.

  // Budget aborts are sticky: without previous labels there is nothing
  // to scope the rebuild against, and a topology that blew the budget
  // once will blow it again — callers stay on the classic engine.
  if (!previous->ready()) {
    index->ready_ = false;
    index->DropLabels();
  } else {
    index->ready_ =
        index->ComputeLabels(dag, dirty, previous.get(), workers);
    if (!index->ready_) {
      index->DropLabels();
      if constexpr (obs::kEnabled) Metrics().budget_aborts.Inc();
    }
  }
  if constexpr (obs::kEnabled) {
    ReachMetrics& m = Metrics();
    m.incremental.Inc();
    m.rebuild_ns.Observe(obs::NowNs() - start_ns);
    m.affected.Observe(dirty.size());
  }
  index->PublishMetrics();
  return index;
}

}  // namespace ucr::graph
