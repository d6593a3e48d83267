// Differential tests for the allocation-free hot path (DESIGN.md §7):
// the scratch-arena + flat-propagation + streaming-resolve engine must
// produce decisions, traces, and propagation stats bit-identical to
// the classic aggregated engine — and both must agree with the
// paper-literal tuple engine — for all 48 canonical strategies, all
// three propagation modes, on the paper's Fig. 1 example and on
// randomized hierarchies with random sparse explicit matrices.

#include <gtest/gtest.h>

#include <vector>

#include "acm/acm.h"
#include "core/batch_resolver.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "paper/effective_matrix.h"
#include "paper/literal.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;

constexpr PropagationMode kAllModes[] = {PropagationMode::kBoth,
                                         PropagationMode::kFirstWins,
                                         PropagationMode::kSecondWins};

const char* ModeName(PropagationMode mode) {
  switch (mode) {
    case PropagationMode::kBoth: return "both";
    case PropagationMode::kFirstWins: return "first-wins";
    case PropagationMode::kSecondWins: return "second-wins";
  }
  return "?";
}

struct Column {
  acm::ObjectId object;
  acm::RightId right;
};

/// Scatters a random sparse (object, right) column over the hierarchy.
/// `label_rate` may be 1.0 to label every subject — the adversarial
/// case for the first-wins/second-wins suppression logic.
Column MakeRandomColumn(acm::ExplicitAcm& eacm, const graph::Dag& dag,
                        const char* object, const char* right,
                        double label_rate, Random& rng) {
  const acm::ObjectId o = eacm.InternObject(object).value();
  const acm::RightId r = eacm.InternRight(right).value();
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    if (!rng.Bernoulli(label_rate)) continue;
    const Mode mode =
        rng.Bernoulli(0.4) ? Mode::kNegative : Mode::kPositive;
    EXPECT_TRUE(eacm.Set(v, o, r, mode).ok());
  }
  return {o, r};
}

void ExpectTraceEq(const ResolveTrace& fast, const ResolveTrace& classic) {
  ASSERT_EQ(fast.c1, classic.c1);
  ASSERT_EQ(fast.c2, classic.c2);
  ASSERT_EQ(fast.auth_computed, classic.auth_computed);
  ASSERT_EQ(fast.auth_has_positive, classic.auth_has_positive);
  ASSERT_EQ(fast.auth_has_negative, classic.auth_has_negative);
  ASSERT_EQ(fast.returned_line, classic.returned_line);
  ASSERT_EQ(fast.result, classic.result);
}

/// Resolves every ⟨subject, column⟩ under every canonical strategy and
/// every propagation mode through the fast path, the classic
/// aggregated path, and (optionally — it is exponential on dense
/// shapes) the paper-literal tuple engine, asserting identical
/// decisions, traces, and work counters.
void ExpectEnginesAgree(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                        const Column& column, bool check_literal) {
  for (const PropagationMode mode : kAllModes) {
    ResolveAccessOptions fast;
    fast.propagation_mode = mode;
    ResolveAccessOptions classic = fast;
    classic.use_fast_path = false;
    for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
      for (const Strategy& strategy : AllStrategies()) {
        SCOPED_TRACE(std::string(strategy.ToMnemonic()) + " mode " +
                     ModeName(mode) + " subject " + dag.name(v));
        ResolveTrace fast_trace, classic_trace;
        PropagateStats fast_stats, classic_stats;
        const auto fast_mode =
            ResolveAccess(dag, eacm, v, column.object, column.right, strategy,
                          fast, &fast_trace, &fast_stats);
        const auto classic_mode =
            ResolveAccess(dag, eacm, v, column.object, column.right, strategy,
                          classic, &classic_trace, &classic_stats);
        ASSERT_TRUE(fast_mode.ok());
        ASSERT_TRUE(classic_mode.ok());
        ASSERT_EQ(*fast_mode, *classic_mode);
        ExpectTraceEq(fast_trace, classic_trace);
        // The flat kernel counts the same (dis, mode) group merges and
        // reaches the same max distance as the classic engine.
        ASSERT_EQ(fast_stats.tuples_processed, classic_stats.tuples_processed);
        ASSERT_EQ(fast_stats.max_distance, classic_stats.max_distance);
        if (check_literal) {
          ResolveTrace literal_trace;
          const auto literal_mode =
              ResolveLiteral(dag, eacm, v, column.object, column.right,
                             strategy, mode, UINT64_MAX, &literal_trace);
          ASSERT_TRUE(literal_mode.ok());
          ASSERT_EQ(*fast_mode, *literal_mode);
          ExpectTraceEq(fast_trace, literal_trace);
        }
      }
    }
  }
}

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S1", "obj", "write").ok());
  return system;
}

TEST(HotPathDifferentialTest, PaperExampleAllStrategiesAllEngines) {
  AccessControlSystem system = MakePaperSystem();
  for (const char* right : {"read", "write"}) {
    const Column column{system.eacm().FindObject("obj").value(),
                        system.eacm().FindRight(right).value()};
    ExpectEnginesAgree(system.dag(), system.eacm(), column,
                       /*check_literal=*/true);
  }
}

TEST(HotPathDifferentialTest, RandomLayeredDagsAgree) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed);
    graph::LayeredDagOptions shape;
    shape.layers = 4;
    shape.nodes_per_layer = 8;
    shape.skip_edge_probability = 0.15;
    auto dag = graph::GenerateLayeredDag(shape, rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const Column sparse =
        MakeRandomColumn(eacm, *dag, "doc", "read", 0.15, rng);
    const Column dense =
        MakeRandomColumn(eacm, *dag, "doc", "write", 0.5, rng);
    ExpectEnginesAgree(*dag, eacm, sparse, /*check_literal=*/true);
    ExpectEnginesAgree(*dag, eacm, dense, /*check_literal=*/true);
  }
}

TEST(HotPathDifferentialTest, AdversarialShapesAgree) {
  Random rng(9);
  // Diamond stack: 2^k paths with 3k+1 nodes (worst case for the
  // literal engine, distance ties everywhere for locality).
  auto diamonds = graph::GenerateDiamondStack(5);
  // Complete random DAG: maximal edge density, every distance present.
  auto kdag = graph::GenerateKDag(10, rng);
  ASSERT_TRUE(diamonds.ok());
  ASSERT_TRUE(kdag.ok());
  for (const graph::Dag* dag : {&*diamonds, &*kdag}) {
    acm::ExplicitAcm eacm;
    const Column column = MakeRandomColumn(eacm, *dag, "o", "r", 0.35, rng);
    ExpectEnginesAgree(*dag, eacm, column, /*check_literal=*/true);
  }
}

TEST(HotPathDifferentialTest, TreeAndDegenerateColumnsAgree) {
  Random rng(13);
  auto tree = graph::GenerateRandomTree(40, rng);
  ASSERT_TRUE(tree.ok());
  acm::ExplicitAcm eacm;
  // Empty column: pure default propagation (only 'd' markers flow).
  const acm::ObjectId o = eacm.InternObject("empty").value();
  const acm::RightId r = eacm.InternRight("col").value();
  ExpectEnginesAgree(*tree, eacm, {o, r}, /*check_literal=*/true);
  // Fully labeled column: every node labeled — first-wins suppresses
  // everything below the roots, second-wins stops every label at the
  // first labeled descendant.
  const Column full = MakeRandomColumn(eacm, *tree, "full", "col", 1.0, rng);
  ExpectEnginesAgree(*tree, eacm, full, /*check_literal=*/true);
}

TEST(HotPathDifferentialTest, ResolveEntriesMatchesResolveOnPropagatedBags) {
  Random rng(21);
  graph::LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 6;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const Column column = MakeRandomColumn(eacm, *dag, "o", "r", 0.3, rng);
  const auto labels =
      eacm.ExtractLabels(dag->node_count(), column.object, column.right);
  for (const PropagationMode mode : kAllModes) {
    PropagateOptions options;
    options.propagation_mode = mode;
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      const graph::AncestorSubgraph sub(*dag, v);
      const RightsBag bag = PropagateAggregated(sub, labels, options);
      for (const Strategy& strategy : AllStrategies()) {
        SCOPED_TRACE(std::string(strategy.ToMnemonic()) + " mode " +
                     ModeName(mode) + " subject " + dag->name(v));
        ResolveTrace vector_trace, streaming_trace;
        const Mode vector_mode = Resolve(bag, strategy, &vector_trace);
        const Mode streaming_mode =
            ResolveEntries(bag.entries(), strategy, &streaming_trace);
        ASSERT_EQ(streaming_mode, vector_mode);
        ExpectTraceEq(streaming_trace, vector_trace);
      }
    }
  }
}

TEST(HotPathDifferentialTest, SnapshotTablesMatchClassic) {
  Random rng(27);
  graph::LayeredDagOptions shape;
  shape.layers = 5;
  shape.nodes_per_layer = 10;
  shape.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const Column column = MakeRandomColumn(eacm, *dag, "o", "r", 0.2, rng);
  std::vector<BatchResolver::Query> queries;
  for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
    queries.push_back({v, column.object, column.right});
  }
  for (const PropagationMode mode : kAllModes) {
    ResolveAccessOptions classic;
    classic.propagation_mode = mode;
    classic.use_fast_path = false;
    // The snapshot's miss path has two sub-paths: composition from the
    // snapshot's reachability index and scratch-arena extraction plus
    // flat propagation (no index, or kSecondWins, which the index
    // cannot express). Exercise both, each with and without the
    // decision table.
    for (const bool with_index : {true, false}) {
      for (const bool resolution_table : {true, false}) {
        SnapshotReadOptions read;
        read.use_resolution_table = resolution_table;
        const auto snapshot = BuildSnapshot(
            *dag, eacm, Strategy{}, mode, /*epoch=*/1, /*previous=*/nullptr,
            /*resolution_capacity=*/1 << 14,
            with_index ? graph::ReachabilityIndex::Build(*dag, eacm.epoch(),
                                                         eacm.ReachRows())
                       : nullptr);
        ASSERT_EQ(snapshot->reach_index != nullptr, with_index);
        ASSERT_TRUE(!with_index || snapshot->reach_index->ready());
        for (const Strategy& strategy : AllStrategies()) {
          for (const BatchResolver::Query& q : queries) {
            const auto fast = SnapshotResolveAccess(
                *snapshot, q.subject, q.object, q.right, strategy, read);
            const auto want = ResolveAccess(*dag, eacm, q.subject, q.object,
                                            q.right, strategy, classic);
            ASSERT_TRUE(fast.ok());
            ASSERT_TRUE(want.ok());
            ASSERT_EQ(*fast, *want)
                << strategy.ToMnemonic() << " mode " << ModeName(mode)
                << (with_index ? " indexed" : " scratch-views")
                << (resolution_table ? " memo" : " no-memo");
          }
        }
      }
    }
    // The batch engine over a fresh snapshot, warm across strategies.
    const auto snapshot =
        BuildSnapshot(*dag, eacm, Strategy{}, mode, /*epoch=*/1,
                      /*previous=*/nullptr, /*resolution_capacity=*/1 << 14);
    BatchResolver batch(*snapshot);
    for (const Strategy& strategy : AllStrategies()) {
      const auto batched = batch.ResolveBatch(queries, strategy);
      ASSERT_TRUE(batched.ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto want =
            ResolveAccess(*dag, eacm, queries[i].subject, queries[i].object,
                          queries[i].right, strategy, classic);
        ASSERT_TRUE(want.ok());
        ASSERT_EQ((*batched)[i], *want)
            << strategy.ToMnemonic() << " mode " << ModeName(mode);
      }
    }
  }
}

TEST(HotPathDifferentialTest, EffectiveMatrixMatchesClassicResolve) {
  AccessControlSystem system = MakePaperSystem();
  ResolveAccessOptions classic;
  classic.use_fast_path = false;
  for (const Strategy& strategy : AllStrategies()) {
    auto matrix = EffectiveMatrix::Materialize(system, strategy);
    ASSERT_TRUE(matrix.ok());
    for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
      for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
        for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
          const auto expected = ResolveAccess(system.dag(), system.eacm(), v,
                                              o, r, strategy, classic);
          ASSERT_TRUE(expected.ok());
          ASSERT_EQ(matrix->Lookup(v, o, r).value(), *expected)
              << strategy.ToMnemonic() << " subject " << system.dag().name(v)
              << " object " << o << " right " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ucr::core
