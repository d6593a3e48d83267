// Differential tests for the epoch snapshot read path (DESIGN.md §11):
// `SnapshotResolveAccess` over a published `HierarchySnapshot` must
// produce decisions, traces, and propagation stats bit-identical to
// the PR 2 fast path and to the classic aggregated oracle — for all 48
// canonical strategies, all three propagation modes, on the paper's
// Fig. 1 example and on randomized hierarchies — and the facade's
// `CheckAccessSnapshot` must keep agreeing with `CheckAccess` across
// live mutations (each of which publishes a fresh epoch).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"
#include "workload/enterprise.h"

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

void ExpectTraceEq(const ResolveTrace& snapshot, const ResolveTrace& oracle) {
  ASSERT_EQ(snapshot.c1, oracle.c1);
  ASSERT_EQ(snapshot.c2, oracle.c2);
  ASSERT_EQ(snapshot.auth_computed, oracle.auth_computed);
  ASSERT_EQ(snapshot.auth_has_positive, oracle.auth_has_positive);
  ASSERT_EQ(snapshot.auth_has_negative, oracle.auth_has_negative);
  ASSERT_EQ(snapshot.returned_line, oracle.returned_line);
  ASSERT_EQ(snapshot.result, oracle.result);
}

/// Resolves every ⟨subject, object, right⟩ under every canonical
/// strategy through (a) the snapshot path with derivation out-params
/// (table-bypassing), (b) the snapshot path twice with the tables in
/// play (miss-then-hit), (c) the PR 2 fast path, and (d) the classic
/// oracle — asserting identical decisions everywhere and identical
/// traces/stats where derivations are reported.
void ExpectSnapshotAgrees(const HierarchySnapshot& snapshot) {
  ResolveAccessOptions fast;
  fast.propagation_mode = snapshot.propagation_mode;
  ResolveAccessOptions classic = fast;
  classic.use_fast_path = false;
  for (graph::NodeId v = 0; v < snapshot.dag.node_count(); ++v) {
    for (size_t o = 0; o < snapshot.eacm.object_count(); ++o) {
      for (size_t r = 0; r < snapshot.eacm.right_count(); ++r) {
        const auto object = static_cast<acm::ObjectId>(o);
        const auto right = static_cast<acm::RightId>(r);
        for (const Strategy& strategy : AllStrategies()) {
          SCOPED_TRACE(std::string(strategy.ToMnemonic()) + " mode " +
                       ModeName(snapshot.propagation_mode) + " subject " +
                       snapshot.dag.name(v) + " column " + std::to_string(o) +
                       "/" + std::to_string(r));
          ResolveTrace snap_trace, fast_trace, classic_trace;
          PropagateStats snap_stats, fast_stats, classic_stats;
          const auto snap_mode =
              SnapshotResolveAccess(snapshot, v, object, right, strategy, {},
                                    &snap_trace, &snap_stats);
          const auto fast_mode =
              ResolveAccess(snapshot.dag, snapshot.eacm, v, object, right,
                            strategy, fast, &fast_trace, &fast_stats);
          const auto classic_mode =
              ResolveAccess(snapshot.dag, snapshot.eacm, v, object, right,
                            strategy, classic, &classic_trace, &classic_stats);
          ASSERT_TRUE(snap_mode.ok()) << snap_mode.status().ToString();
          ASSERT_TRUE(fast_mode.ok());
          ASSERT_TRUE(classic_mode.ok());
          ASSERT_EQ(*snap_mode, *fast_mode);
          ASSERT_EQ(*snap_mode, *classic_mode);
          ExpectTraceEq(snap_trace, fast_trace);
          ExpectTraceEq(snap_trace, classic_trace);
          ASSERT_EQ(snap_stats.tuples_processed, fast_stats.tuples_processed);
          ASSERT_EQ(snap_stats.max_distance, fast_stats.max_distance);
          ASSERT_EQ(snap_stats.tuples_processed,
                    classic_stats.tuples_processed);
          ASSERT_EQ(snap_stats.max_distance, classic_stats.max_distance);
          // Memoized path: the first call may store, the second must
          // hit (or re-derive identically when the store was skipped);
          // either way the decision cannot change.
          const auto stored =
              SnapshotResolveAccess(snapshot, v, object, right, strategy);
          const auto memo =
              SnapshotResolveAccess(snapshot, v, object, right, strategy);
          ASSERT_TRUE(stored.ok());
          ASSERT_TRUE(memo.ok());
          ASSERT_EQ(*stored, *snap_mode);
          ASSERT_EQ(*memo, *snap_mode);
        }
      }
    }
  }
}

TEST(SnapshotDifferentialTest, PaperExampleAllStrategiesAllModes) {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.Grant("S4", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S1", "obj", "write").ok());
  for (const PropagationMode mode : kAllModes) {
    const auto snapshot =
        BuildSnapshot(system.dag(), system.eacm(), system.strategy(), mode,
                      /*epoch=*/1, /*previous=*/nullptr,
                      /*resolution_capacity=*/1 << 12);
    ExpectSnapshotAgrees(*snapshot);
  }
}

TEST(SnapshotDifferentialTest, RandomLayeredDagsAgree) {
  for (const uint64_t seed : {7u, 11u}) {
    Random rng(seed);
    graph::LayeredDagOptions shape;
    shape.layers = 4;
    shape.nodes_per_layer = 6;
    shape.skip_edge_probability = 0.15;
    auto dag = graph::GenerateLayeredDag(shape, rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("doc").value();
    const acm::RightId r = eacm.InternRight("read").value();
    const acm::RightId w = eacm.InternRight("write").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(eacm.Set(v, o, r,
                             rng.Bernoulli(0.4) ? Mode::kNegative
                                                : Mode::kPositive)
                        .ok());
      }
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(eacm.Set(v, o, w,
                             rng.Bernoulli(0.4) ? Mode::kNegative
                                                : Mode::kPositive)
                        .ok());
      }
    }
    for (const PropagationMode mode : kAllModes) {
      const auto snapshot =
          BuildSnapshot(*dag, eacm, Strategy{}, mode, /*epoch=*/1,
                        /*previous=*/nullptr, /*resolution_capacity=*/1 << 12);
      ExpectSnapshotAgrees(*snapshot);
    }
  }
}

/// The facade path: every mutation publishes a new epoch warmed by
/// carry-over from the previous one; after each batch the snapshot
/// decisions must equal the classic oracle's and the facade's for every
/// triple under every canonical strategy. The second input is a system
/// whose reachability build trips its label budget: every publication
/// then carries a not-ready index, and every snapshot miss takes the
/// scratch-extraction fallback.
TEST(SnapshotDifferentialTest, FacadeAgreesAcrossMutations) {
  for (const bool budget_tripped : {false, true}) {
    SCOPED_TRACE(budget_tripped ? "budget-tripped index" : "indexed");
    SystemOptions options;
    if (budget_tripped) options.reachability_options.max_mean_label_entries = 0;
    PaperExample ex = MakePaperExample();
    AccessControlSystem system(std::move(ex.dag), options);
    ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
    ASSERT_TRUE(system.Grant("S4", "obj", "read").ok());
    ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
    system.EnableSnapshotReads();
    ASSERT_TRUE(system.snapshot_reads_enabled());
    ASSERT_NE(system.snapshots(), nullptr);

    ResolveAccessOptions classic_options;
    classic_options.use_fast_path = false;
    const auto expect_all_agree = [&] {
      ASSERT_NE(system.reachability_index(), nullptr);
      ASSERT_EQ(system.reachability_index()->ready(), !budget_tripped);
      ASSERT_EQ(system.snapshots()->Pin()->reach_index->ready(),
                !budget_tripped);
      for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
        for (size_t o = 0; o < system.eacm().object_count(); ++o) {
          for (size_t r = 0; r < system.eacm().right_count(); ++r) {
            const auto object = static_cast<acm::ObjectId>(o);
            const auto right = static_cast<acm::RightId>(r);
            for (const Strategy& strategy : AllStrategies()) {
              SCOPED_TRACE(std::string(strategy.ToMnemonic()) + " subject " +
                           system.dag().name(v));
              const auto snap =
                  system.CheckAccessSnapshot(v, object, right, strategy);
              const auto facade =
                  system.CheckAccess(v, object, right, strategy);
              const auto classic =
                  ResolveAccess(system.dag(), system.eacm(), v, object, right,
                                strategy, classic_options);
              ASSERT_TRUE(snap.ok()) << snap.status().ToString();
              ASSERT_TRUE(facade.ok());
              ASSERT_TRUE(classic.ok());
              ASSERT_EQ(*snap, *classic);
              ASSERT_EQ(*snap, *facade);
            }
          }
        }
      }
    };

    expect_all_agree();
    const uint64_t epoch_before = system.snapshots()->current_epoch();

    // Rights edit: lapses one column, carries the rest. (Revoke, not
    // deny: SetMode rejects a deny over the existing grant as a
    // contradicting explicit authorization.)
    ASSERT_TRUE(system.Revoke("S2", "obj", "read").ok());
    expect_all_agree();

    // Hierarchy edit batch: one publication for the whole batch.
    std::vector<AccessControlSystem::MutationOp> ops;
    ops.push_back(AccessControlSystem::MutationOp::AddMember("S1", "S6"));
    ops.push_back(
        AccessControlSystem::MutationOp::Grant("S6", "obj", "write"));
    ops.push_back(
        AccessControlSystem::MutationOp::Deny("S2", "obj", "read"));
    AccessControlSystem::MutationBatchStats stats;
    ASSERT_TRUE(system.ApplyMutations(ops, &stats).ok());
    EXPECT_EQ(stats.applied, 3u);
    expect_all_agree();

    // Strategy change publishes too (the snapshot carries the session
    // strategy, so the no-strategy overload must follow it).
    system.SetStrategy(ParseStrategy("D+LP-").value());
    for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
      const auto snap = system.CheckAccessSnapshot(
          v, acm::ObjectId{0}, acm::RightId{0});
      const auto classic = system.CheckAccess(v, acm::ObjectId{0},
                                              acm::RightId{0},
                                              system.strategy());
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(classic.ok());
      ASSERT_EQ(*snap, *classic);
    }
    EXPECT_GT(system.snapshots()->current_epoch(), epoch_before);

    // Name-based entry point resolves against the pinned snapshot.
    const auto by_name =
        system.CheckAccessSnapshotByName("S6", "obj", "write");
    const auto by_name_classic =
        system.CheckAccessByName("S6", "obj", "write");
    ASSERT_TRUE(by_name.ok());
    ASSERT_TRUE(by_name_classic.ok());
    EXPECT_EQ(*by_name, *by_name_classic);
    EXPECT_FALSE(
        system.CheckAccessSnapshotByName("nobody", "obj", "read").ok());
  }
}

/// Every decision-table entry of `snapshot`, keyed by packed triple and
/// strategy.
struct TableEntry {
  graph::NodeId subject;
  acm::ObjectId object;
  acm::RightId right;
  uint8_t strategy;
  Mode mode;
};

std::vector<TableEntry> TableEntries(const HierarchySnapshot& snapshot) {
  std::vector<TableEntry> entries;
  snapshot.resolution.ForEach([&](graph::NodeId s, acm::ObjectId o,
                                  acm::RightId r, uint8_t strategy, Mode m) {
    entries.push_back({s, o, r, strategy, m});
  });
  return entries;
}

/// Asserts the carry-over from `previous` into `next` was exact: an
/// entry is dropped iff `dropped(entry)`, and every other entry is in
/// `next` with its decision unchanged.
template <typename DroppedFn>
void ExpectExactCarryOver(const HierarchySnapshot& previous,
                          const HierarchySnapshot& next,
                          const SnapshotBuildStats& stats,
                          const DroppedFn& dropped) {
  size_t expected_dropped = 0;
  size_t expected_carried = 0;
  for (const TableEntry& e : TableEntries(previous)) {
    const std::optional<Mode> carried =
        next.resolution.Lookup(e.subject, e.object, e.right, e.strategy);
    if (dropped(e)) {
      ++expected_dropped;
      EXPECT_FALSE(carried.has_value())
          << "stale entry carried for subject " << previous.dag.name(e.subject);
    } else {
      ++expected_carried;
      ASSERT_TRUE(carried.has_value())
          << "entry lost for subject " << previous.dag.name(e.subject);
      EXPECT_EQ(*carried, e.mode);
    }
  }
  EXPECT_GT(expected_dropped, 0u);
  EXPECT_GT(expected_carried, 0u);
  EXPECT_EQ(stats.resolution_dropped, expected_dropped);
  EXPECT_EQ(stats.resolution_carried, expected_carried);
  EXPECT_EQ(next.resolution.size(), expected_carried);
}

/// Carry-over correctness: decisions warmed into epoch N+1 from epoch
/// N's table must be exactly the still-derivable ones — a rights edit
/// on one column drops that column's entries and nothing else.
TEST(SnapshotDifferentialTest, CarryOverOnlyKeepsDerivableState) {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S1", "doc", "write").ok());

  auto first = BuildSnapshot(system.dag(), system.eacm(), system.strategy(),
                             PropagationMode::kBoth, /*epoch=*/1, nullptr,
                             /*resolution_capacity=*/1 << 12);
  // Warm every triple under the default strategy.
  for (graph::NodeId v = 0; v < first->dag.node_count(); ++v) {
    for (size_t o = 0; o < first->eacm.object_count(); ++o) {
      for (size_t r = 0; r < first->eacm.right_count(); ++r) {
        ASSERT_TRUE(SnapshotResolveAccess(*first, v,
                                          static_cast<acm::ObjectId>(o),
                                          static_cast<acm::RightId>(r),
                                          first->default_strategy)
                        .ok());
      }
    }
  }
  ASSERT_GT(first->resolution.size(), 0u);

  // Mutate one column ("obj", "read"): exactly its entries must drop,
  // every other column's must carry.
  ASSERT_TRUE(system.DenyAccess("S4", "obj", "read").ok());
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  SnapshotBuildStats stats;
  auto second = BuildSnapshot(system.dag(), system.eacm(), system.strategy(),
                              PropagationMode::kBoth, /*epoch=*/2, first.get(),
                              /*resolution_capacity=*/1 << 12,
                              /*reach_index=*/nullptr, &stats);
  ExpectExactCarryOver(*first, *second, stats, [&](const TableEntry& e) {
    return e.object == obj && e.right == read;
  });
  // Whatever carried must still produce oracle-identical decisions.
  ExpectSnapshotAgrees(*second);
}

/// Carry-over scoping of a hierarchy edit: one leaf membership edit on
/// an enterprise hierarchy drops exactly the affected set's entries,
/// carries every other one, and the edited subject resolves to its new
/// decision in the next epoch.
TEST(SnapshotDifferentialTest, LeafMembershipEditDropsExactlyAffectedEntries) {
  Random rng(7);
  workload::EnterpriseOptions shape;
  shape.individuals = 300;
  shape.groups = 700;
  shape.top_level_groups = 10;
  shape.target_edges = 2600;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  ASSERT_TRUE(dag.ok());
  AccessControlSystem system(std::move(dag).value());
  Random labels(8);
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    if (!labels.Bernoulli(0.02)) continue;
    const std::string& name = system.dag().name(v);
    ASSERT_TRUE((labels.Bernoulli(0.3) ? system.DenyAccess(name, "doc", "read")
                                       : system.Grant(name, "doc", "read"))
                    .ok());
  }
  const acm::ObjectId doc = system.eacm().FindObject("doc").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  const Strategy strategy = ParseStrategy("D+LP-").value();

  // A leaf (sink with a parent) whose edit flips its decision, found
  // by trying each detach on the master state and undoing it — before
  // the first snapshot, so the probes' generation stamps predate it.
  graph::NodeId leaf = graph::kInvalidNode;
  std::string parent;
  for (graph::NodeId v = 0;
       v < system.dag().node_count() && leaf == graph::kInvalidNode; ++v) {
    if (!system.dag().children(v).empty()) continue;
    const std::string child = system.dag().name(v);
    const Mode was = system.CheckAccess(v, doc, read, strategy).value();
    const std::vector<graph::NodeId> parents(system.dag().parents(v).begin(),
                                             system.dag().parents(v).end());
    for (const graph::NodeId p : parents) {
      const std::string name = system.dag().name(p);
      ASSERT_TRUE(system.RemoveMembership(name, child).ok());
      const bool flips =
          system.CheckAccess(v, doc, read, strategy).value() != was;
      ASSERT_TRUE(system.AddMembership(name, child).ok());
      if (flips) {
        leaf = v;
        parent = name;
        break;
      }
    }
  }
  ASSERT_NE(leaf, graph::kInvalidNode) << "no decision-flipping leaf edit";

  // Warm every subject under two strategies.
  auto first = BuildSnapshot(system.dag(), system.eacm(), strategy,
                             PropagationMode::kBoth, /*epoch=*/1, nullptr,
                             /*resolution_capacity=*/1 << 14);
  for (graph::NodeId v = 0; v < first->dag.node_count(); ++v) {
    for (const char* mnemonic : {"D+LP-", "MP+"}) {
      ASSERT_TRUE(SnapshotResolveAccess(*first, v, doc, read,
                                        ParseStrategy(mnemonic).value())
                      .ok());
    }
  }
  ASSERT_EQ(first->resolution.size(), 2 * first->dag.node_count());
  const Mode before = *first->resolution.Lookup(
      leaf, doc, read, strategy.Canonical().CanonicalIndex());

  std::vector<graph::NodeId> affected;
  ASSERT_TRUE(
      system.RemoveMembership(parent, system.dag().name(leaf), &affected)
          .ok());
  ASSERT_EQ(affected, std::vector<graph::NodeId>{leaf});

  SnapshotBuildStats stats;
  auto second = BuildSnapshot(system.dag(), system.eacm(), strategy,
                              PropagationMode::kBoth, /*epoch=*/2, first.get(),
                              /*resolution_capacity=*/1 << 14,
                              /*reach_index=*/nullptr, &stats);
  ExpectExactCarryOver(*first, *second, stats, [&](const TableEntry& e) {
    return e.subject == leaf;
  });

  const auto after = SnapshotResolveAccess(*second, leaf, doc, read, strategy);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, before);
  ResolveAccessOptions classic;
  classic.use_fast_path = false;
  EXPECT_EQ(*after, *ResolveAccess(system.dag(), system.eacm(), leaf, doc,
                                   read, strategy, classic));
}

}  // namespace
}  // namespace ucr::core
