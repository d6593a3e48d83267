// Unit tests for the reachability index (src/graph/reachability.h,
// DESIGN.md §12) and boolean reachability (src/graph/reach_query.h):
// ReachQuery::Reaches() against a BFS oracle on both answer paths
// (2-hop labels and the interval-filtered traversal), supernode
// folding on the paper's Fig. 7b diamond stacks, incremental-rebuild
// equivalence with a from-scratch build under randomized hierarchy and
// row churn (through label-pool repacks, with older generations
// dropped under the newest), budget-abort stickiness, and the
// million-node layered generator's shape contract.

#include "graph/reachability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "graph/dag.h"
#include "graph/reach_query.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ucr::graph {

/// Runs the label DP on a chosen pool, so the serial and the
/// level-parallel paths can be compared on one input.
struct ReachabilityIndexTestPeer {
  static std::shared_ptr<const ReachabilityIndex> Build(
      const Dag& dag, std::span<const ReachLabeledRow> rows,
      const ReachabilityOptions& options, ThreadPool& workers) {
    return ReachabilityIndex::BuildOn(dag, 1, rows, options, &workers);
  }
  static std::shared_ptr<const ReachabilityIndex> Rebuild(
      const Dag& dag, const std::shared_ptr<const ReachabilityIndex>& prev,
      std::span<const NodeId> affected,
      std::span<const ReachLabeledRow> changed_rows, ThreadPool& workers) {
    return ReachabilityIndex::RebuildIncrementalOn(dag, 2, prev, affected,
                                                   changed_rows, &workers);
  }
};

namespace {

ReachLabeledRow Row(NodeId node, std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return ReachLabeledRow{node, std::move(keys)};
}

/// BFS oracle: every node reachable from `a` along child edges.
std::vector<uint8_t> ReachableFrom(const Dag& dag, NodeId a) {
  std::vector<uint8_t> seen(dag.node_count(), 0);
  std::vector<NodeId> queue{a};
  seen[a] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId c : dag.children(queue[head])) {
      if (!seen[c]) {
        seen[c] = 1;
        queue.push_back(c);
      }
    }
  }
  return seen;
}

void ExpectReachesMatchesOracle(const Dag& dag, const ReachQuery& query) {
  ASSERT_EQ(query.node_count(), dag.node_count());
  for (NodeId a = 0; a < dag.node_count(); ++a) {
    const std::vector<uint8_t> oracle = ReachableFrom(dag, a);
    for (NodeId b = 0; b < dag.node_count(); ++b) {
      ASSERT_EQ(query.Reaches(a, b), oracle[b] != 0)
          << dag.name(a) << " -> " << dag.name(b);
    }
  }
}

TEST(ReachabilityTest, ReachesMatchesBfsOracleViaTwoHopLabels) {
  Random rng(7);
  LayeredDagOptions shape;
  shape.layers = 6;
  shape.nodes_per_layer = 9;
  shape.skip_edge_probability = 0.2;
  auto dag = GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  const ReachQuery query(*dag);
  ASSERT_TRUE(query.two_hop_ready());
  EXPECT_GT(query.two_hop_entries(), 0u);
  ExpectReachesMatchesOracle(*dag, query);
}

TEST(ReachabilityTest, ReachesMatchesBfsOracleViaTraversalFallback) {
  Random rng(8);
  LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 8;
  shape.skip_edge_probability = 0.25;
  auto dag = GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  // Above the (zeroed) 2-hop gate: interval fast-accept + filtered DFS.
  ReachQueryOptions options;
  options.two_hop_max_nodes = 0;
  const ReachQuery query(*dag, options);
  ASSERT_FALSE(query.two_hop_ready());
  EXPECT_EQ(query.two_hop_entries(), 0u);
  ExpectReachesMatchesOracle(*dag, query);
}

TEST(ReachabilityTest, DiamondStackFoldsToOneInteriorRegion) {
  // Fig. 7b worst case: 2^k root-to-sink paths over 3k+1 nodes. Every
  // node but the (labeled) root is label-equivalent pure interior, so
  // the summary collapses to a single supernode class and the label
  // pool stays linear in k while the path count is exponential.
  constexpr size_t k = 40;
  auto dag = GenerateDiamondStack(k);
  ASSERT_TRUE(dag.ok());
  const std::vector<ReachLabeledRow> rows = {Row(0, {42})};
  auto idx = ReachabilityIndex::Build(*dag, 1, rows);
  ASSERT_TRUE(idx->ready());

  const ReachabilityIndex::IndexStats stats = idx->stats();
  EXPECT_EQ(stats.supernodes, 1u);           // The labeled root class.
  EXPECT_EQ(stats.folded_nodes, 3 * k);      // Everything else.
  EXPECT_LE(stats.label_entries, 4 * k + 4);  // Polynomial, not 2^k.

  // The sink's whole compressed profile is one entry carrying the
  // exact (saturating) path count: 2^k paths of length 2k.
  const NodeId sink = dag->FindNode("Dsink");
  ASSERT_NE(sink, kInvalidNode);
  const auto label = idx->label(sink);
  ASSERT_EQ(label.size(), 1u);
  EXPECT_EQ(label[0].cls, idx->class_of(0));
  EXPECT_EQ(label[0].dis, 2 * k);
  EXPECT_EQ(label[0].count, uint64_t{1} << k);
}

// Decoded profile entry: the class id is replaced by its (row,
// root-ness) content so labels from independently built indexes (whose
// interned ids may differ) compare structurally.
using DecodedEntry = std::tuple<std::vector<uint64_t>, bool, uint32_t,
                                uint64_t>;

std::vector<DecodedEntry> DecodedLabel(const ReachabilityIndex& idx,
                                       NodeId v) {
  std::vector<DecodedEntry> out;
  for (const ReachabilityIndex::ProfileEntry& e : idx.label(v)) {
    const ReachabilityIndex::ClassInfo info = idx.class_info(e.cls);
    out.emplace_back(std::vector<uint64_t>(info.row.begin(), info.row.end()),
                     info.is_root, e.dis, e.count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReachLabeledRow> RowsOf(
    const std::map<NodeId, std::vector<uint64_t>>& rows) {
  std::vector<ReachLabeledRow> out;
  for (const auto& [node, row] : rows) out.push_back(Row(node, row));
  return out;
}

void ExpectIndexesEquivalent(const Dag& dag, const ReachabilityIndex& a,
                             const ReachabilityIndex& b) {
  ASSERT_EQ(a.ready(), b.ready());
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    SCOPED_TRACE("node " + dag.name(v));
    // Class content (not id) must agree, interior-ness included.
    const bool a_interior =
        a.class_of(v) == ReachabilityIndex::kInteriorClass;
    const bool b_interior =
        b.class_of(v) == ReachabilityIndex::kInteriorClass;
    ASSERT_EQ(a_interior, b_interior);
    if (!a_interior) {
      const auto ia = a.class_info(a.class_of(v));
      const auto ib = b.class_info(b.class_of(v));
      ASSERT_EQ(ia.is_root, ib.is_root);
      ASSERT_TRUE(std::equal(ia.row.begin(), ia.row.end(), ib.row.begin(),
                             ib.row.end()));
    }
    ASSERT_EQ(DecodedLabel(a, v), DecodedLabel(b, v));
  }
}

/// Every label of `idx`, entry by entry (class ids included) — for
/// checking that a generation's labels survive dropping the others.
std::vector<std::vector<ReachabilityIndex::ProfileEntry>> RawLabels(
    const ReachabilityIndex& idx) {
  std::vector<std::vector<ReachabilityIndex::ProfileEntry>> out;
  for (NodeId v = 0; v < idx.node_count(); ++v) {
    const auto l = idx.label(v);
    out.emplace_back(l.begin(), l.end());
  }
  return out;
}

bool SameEntries(
    const std::vector<std::vector<ReachabilityIndex::ProfileEntry>>& a,
    const std::vector<std::vector<ReachabilityIndex::ProfileEntry>>& b) {
  const auto same = [](const ReachabilityIndex::ProfileEntry& x,
                       const ReachabilityIndex::ProfileEntry& y) {
    return x.cls == y.cls && x.dis == y.dis && x.count == y.count;
  };
  if (a.size() != b.size()) return false;
  for (size_t v = 0; v < a.size(); ++v) {
    if (!std::equal(a[v].begin(), a[v].end(), b[v].begin(), b[v].end(),
                    same)) {
      return false;
    }
  }
  return true;
}

TEST(ReachabilityTest, IncrementalRebuildMatchesFullBuildUnderChurn) {
  Random rng(33);
  LayeredDagOptions shape;
  shape.layers = 6;
  shape.nodes_per_layer = 8;
  shape.skip_edge_probability = 0.2;
  auto built = GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  Dag dag = std::move(built).value();

  // Sparse initial rows from a small key alphabet.
  const uint64_t alphabet[] = {3, 7, 11, 19};
  std::map<NodeId, std::vector<uint64_t>> rows;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    if (!rng.Bernoulli(0.3)) continue;
    std::vector<uint64_t> row;
    for (const uint64_t key : alphabet) {
      if (rng.Bernoulli(0.5)) row.push_back(key);
    }
    if (!row.empty()) rows[v] = row;
  }

  uint64_t epoch = 1;
  // Every generation stays alive until the end, so pools shared
  // between them are exercised while several owners hold them.
  std::vector<std::shared_ptr<const ReachabilityIndex>> generations = {
      ReachabilityIndex::Build(dag, epoch, RowsOf(rows))};
  ASSERT_TRUE(generations.back()->ready());

  size_t repacks = 0;
  for (int step = 0; step < 96; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<NodeId> affected;
    std::vector<ReachLabeledRow> changed;
    const uint64_t choice = rng.Uniform(4);
    if (choice == 0) {
      // Insert a random edge (skip the step on cycle/duplicate).
      const NodeId p = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      const NodeId c = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      if (p == c || !dag.InsertEdge(p, c, &affected).ok()) continue;
    } else if (choice == 1) {
      // Erase some node's first parent edge — the child may become a
      // root, exercising the class root-ness fix-up.
      const NodeId c = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      if (dag.parents(c).empty()) continue;
      ASSERT_TRUE(dag.EraseEdge(dag.parents(c).front(), c, &affected).ok());
    } else if (choice == 2) {
      // Grow the hierarchy: a brand-new node under a random parent.
      const NodeId p = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      const NodeId c = dag.EnsureNode("extra" + std::to_string(step));
      ASSERT_TRUE(dag.InsertEdge(p, c, &affected).ok());
    } else {
      // Rewrite a random subject's row (possibly to empty).
      const NodeId v = static_cast<NodeId>(rng.Uniform(dag.node_count()));
      std::vector<uint64_t> row;
      for (const uint64_t key : alphabet) {
        if (rng.Bernoulli(0.4)) row.push_back(key);
      }
      if (row.empty()) {
        rows.erase(v);
      } else {
        rows[v] = row;
      }
      changed.push_back(Row(v, rows.count(v) ? rows[v] : std::vector<uint64_t>{}));
      affected = dag.DescendantsOf(v);
      ++epoch;
    }

    const size_t pools_before = generations.back()->stats().label_pools;
    generations.push_back(ReachabilityIndex::RebuildIncremental(
        dag, epoch, generations.back(), affected, changed));
    const ReachabilityIndex& incremental = *generations.back();
    ASSERT_TRUE(incremental.ready());
    const ReachabilityIndex::IndexStats stats = incremental.stats();
    if (pools_before > 1 && stats.label_pools == 1) ++repacks;
    const auto fresh = ReachabilityIndex::Build(dag, epoch, RowsOf(rows));
    ASSERT_TRUE(fresh->ready());
    ExpectIndexesEquivalent(dag, incremental, *fresh);
    // The incrementally kept counters match a from-scratch count (pool
    // layout — bytes and pool count — legitimately differs).
    const ReachabilityIndex::IndexStats fresh_stats = fresh->stats();
    EXPECT_EQ(stats.ready, fresh_stats.ready);
    EXPECT_EQ(stats.supernodes, fresh_stats.supernodes);
    EXPECT_EQ(stats.folded_nodes, fresh_stats.folded_nodes);
    EXPECT_EQ(stats.label_entries, fresh_stats.label_entries);
    size_t folded = 0;
    for (NodeId v = 0; v < dag.node_count(); ++v) {
      folded += incremental.class_of(v) == ReachabilityIndex::kInteriorClass;
    }
    EXPECT_EQ(stats.folded_nodes, folded);
    ASSERT_EQ(incremental.dag_generation(), dag.generation());
    // Boolean reachability is built on demand from the same graph.
    ExpectReachesMatchesOracle(dag, ReachQuery(dag));
  }
  EXPECT_GT(repacks, 0u);

  // Drop every older generation: the newest must not depend on a pool
  // only they kept alive (asan reports a read of a freed pool).
  std::shared_ptr<const ReachabilityIndex> newest = generations.back();
  const auto labels = RawLabels(*newest);
  generations.clear();
  EXPECT_TRUE(SameEntries(RawLabels(*newest), labels));
  const auto fresh = ReachabilityIndex::Build(dag, epoch, RowsOf(rows));
  ExpectIndexesEquivalent(dag, *newest, *fresh);

  // A memberwise copy shares the pools and outlives its source.
  const ReachabilityIndex copy(*newest);
  newest.reset();
  EXPECT_TRUE(SameEntries(RawLabels(copy), labels));
}

TEST(ReachabilityTest, LabelBudgetAbortIsStickyAcrossIncrementalRebuilds) {
  Random rng(55);
  LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 6;
  auto built = GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  Dag dag = std::move(built).value();

  // Every node gets a distinct row -> every node is its own class and
  // the label pool is super-linear; a mean budget of 1 entry per node
  // must abort the build.
  std::vector<ReachLabeledRow> rows;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    rows.push_back(Row(v, {uint64_t{100} + v}));
  }
  ReachabilityOptions tight;
  tight.max_mean_label_entries = 1;
  auto idx = ReachabilityIndex::Build(dag, 1, rows, tight);
  EXPECT_FALSE(idx->ready());
  EXPECT_EQ(idx->stats().label_entries, 0u);
  EXPECT_EQ(idx->stats().label_pools, 0u);

  // A later mutation cannot resurrect the labels from nothing: the
  // abort is sticky and callers keep the classic engine.
  std::vector<NodeId> affected;
  const NodeId last = static_cast<NodeId>(dag.node_count() - 1);
  ASSERT_TRUE(dag.EraseEdge(dag.parents(last).front(), last, &affected).ok());
  const auto rebuilt = ReachabilityIndex::RebuildIncremental(
      dag, 2, idx, affected, {});
  EXPECT_FALSE(rebuilt->ready());
  EXPECT_EQ(rebuilt->dag_generation(), dag.generation());
}

/// Labels, classes and counters of `a` and `b` are identical, class
/// ids included; only how the labels are spread over pools may differ.
void ExpectSameIndex(const Dag& dag, const ReachabilityIndex& a,
                     const ReachabilityIndex& b) {
  ASSERT_EQ(a.ready(), b.ready());
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.class_count(), b.class_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    ASSERT_EQ(a.class_of(v), b.class_of(v)) << "node " << v;
  }
  EXPECT_TRUE(SameEntries(RawLabels(a), RawLabels(b)));
  const ReachabilityIndex::IndexStats sa = a.stats();
  const ReachabilityIndex::IndexStats sb = b.stats();
  EXPECT_EQ(sa.ready, sb.ready);
  EXPECT_EQ(sa.supernodes, sb.supernodes);
  EXPECT_EQ(sa.folded_nodes, sb.folded_nodes);
  EXPECT_EQ(sa.label_entries, sb.label_entries);
  EXPECT_EQ(sa.label_bytes, sb.label_bytes);
}

TEST(ReachabilityTest, LevelParallelLabelsMatchTheSerialPass) {
  // 2^15 nodes in 8 layers: every level is 4096 nodes wide, past the
  // width at which the DP goes parallel. Rows from a few templates on
  // the top half keep labels varied but bounded.
  Random rng(2026);
  ScaleLayeredDagOptions shape;
  shape.nodes = size_t{1} << 15;
  shape.layers = 8;
  shape.parents_per_node = 2;
  auto built = GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(built.ok());
  Dag dag = std::move(built).value();
  const size_t n = dag.node_count();
  std::map<NodeId, std::vector<uint64_t>> rows;
  for (NodeId v = 0; v < n / 2; ++v) {
    if (rng.Bernoulli(v < n / 8 ? 0.3 : 0.01)) {
      rows[v] = {uint64_t{10} + rng.Uniform(3), uint64_t{20} + rng.Uniform(2)};
    }
  }

  ThreadPool inline_pool(0);
  ThreadPool three(3);
  const ReachabilityOptions defaults;
  const auto serial = ReachabilityIndexTestPeer::Build(dag, RowsOf(rows),
                                                       defaults, inline_pool);
  const auto parallel =
      ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), defaults, three);
  ASSERT_TRUE(serial->ready());
  ExpectSameIndex(dag, *serial, *parallel);
  // The parallel path ran: each wide level's labels got a pool.
  EXPECT_EQ(serial->stats().label_pools, 1u);
  EXPECT_GT(parallel->stats().label_pools, 1u);

  // A wide grant: new rows on a tenth of the roots relabel most of the
  // hierarchy through the same level-parallel routine.
  std::vector<ReachLabeledRow> changed;
  std::vector<NodeId> affected;
  for (NodeId v = 0; v < n / 8; v += 10) {
    rows[v] = {uint64_t{30} + v % 2};
    changed.push_back(Row(v, rows[v]));
    const std::vector<NodeId> below = dag.DescendantsOf(v);
    affected.insert(affected.end(), below.begin(), below.end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  ASSERT_GT(affected.size(), n / 2);
  const auto serial_next = ReachabilityIndexTestPeer::Rebuild(
      dag, serial, affected, changed, inline_pool);
  const auto parallel_next = ReachabilityIndexTestPeer::Rebuild(
      dag, parallel, affected, changed, three);
  ASSERT_TRUE(serial_next->ready());
  ExpectSameIndex(dag, *serial_next, *parallel_next);
  ExpectIndexesEquivalent(
      dag, *serial_next,
      *ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), defaults, three));

  // Budgets that trip inside a level abort both paths alike. Labels
  // per level of the current rows, in the DP's level order (layer =
  // longest-path depth here, since every edge descends exactly one
  // layer):
  std::vector<size_t> level_entries(shape.layers, 0);
  size_t widest = 0;
  for (NodeId v = 0; v < n; ++v) {
    level_entries[v * shape.layers / n] += serial_next->label(v).size();
    widest = std::max(widest, serial_next->label(v).size());
  }
  const size_t total = serial_next->stats().label_entries;
  // Mean budget: the largest whole-number mean the labels exceed.
  ReachabilityOptions mean = defaults;
  mean.max_mean_label_entries = (total - 1) / n;
  const size_t budget = n * mean.max_mean_label_entries;
  size_t before = 0;
  size_t level = 0;
  while (before + level_entries[level] <= budget) {
    before += level_entries[level++];
  }
  EXPECT_GT(budget, before) << "budget should trip mid-level";
  // Per-node cap: one below the widest label.
  ReachabilityOptions cap = defaults;
  cap.max_node_label_entries = widest - 1;
  for (const ReachabilityOptions& tight : {mean, cap}) {
    const auto s = ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), tight,
                                                    inline_pool);
    const auto p =
        ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), tight, three);
    EXPECT_FALSE(s->ready());
    ExpectSameIndex(dag, *s, *p);
    EXPECT_EQ(p->stats().label_pools, 0u);
  }
  // One more entry of room and both build.
  ++mean.max_mean_label_entries;
  ++cap.max_node_label_entries;
  for (const ReachabilityOptions& roomy : {mean, cap}) {
    const auto s = ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), roomy,
                                                    inline_pool);
    const auto p =
        ReachabilityIndexTestPeer::Build(dag, RowsOf(rows), roomy, three);
    EXPECT_TRUE(s->ready());
    ExpectSameIndex(dag, *s, *p);
  }
}

TEST(ReachabilityTest, ScaleLayeredGeneratorShapeContract) {
  Random rng(77);
  ScaleLayeredDagOptions shape;
  shape.nodes = 1000;
  shape.layers = 10;
  shape.parents_per_node = 3;
  auto dag = GenerateScaleLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  ASSERT_EQ(dag->node_count(), 1000u);

  // Layer-contiguous ids; every non-first-layer node has 1..3 parents,
  // all in the layer directly above.
  auto layer_of = [&](NodeId v) { return (v * shape.layers) / shape.nodes; };
  for (NodeId v = 0; v < dag->node_count(); ++v) {
    if (layer_of(v) == 0) {
      EXPECT_TRUE(dag->parents(v).empty());
      continue;
    }
    const auto parents = dag->parents(v);
    ASSERT_GE(parents.size(), 1u);
    ASSERT_LE(parents.size(), shape.parents_per_node);
    for (const NodeId p : parents) {
      EXPECT_EQ(layer_of(p) + 1, layer_of(v));
    }
  }

  EXPECT_FALSE(GenerateScaleLayeredDag({1, 1, 1}, rng).ok());
  EXPECT_FALSE(GenerateScaleLayeredDag({4, 9, 1}, rng).ok());
  EXPECT_FALSE(GenerateScaleLayeredDag({4, 2, 0}, rng).ok());
}

}  // namespace
}  // namespace ucr::graph
