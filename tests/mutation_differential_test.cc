// Mutation-interleaving differential suite (DESIGN.md §10): randomized
// Grant/Deny/Revoke/AddMembership/RemoveMembership streams interleaved
// with queries, on the paper's Fig. 1 topology and on an enterprise
// hierarchy. After every round the in-place-mutated hierarchy is
// compared against an independent model (names + edge set maintained
// alongside the ops) and a from-scratch DagBuilder rebuild of that
// model; every decision of the incremental write path — the facade,
// the allocation-free fast path, the published snapshot (whose
// decision table is carried over edit by edit), and the multi-threaded
// BatchResolver over a pinned epoch — must be bit-identical (decision,
// majority counters, Auth flags, returned line) to the classic engines
// resolving over the rebuilt oracle.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acm/mode.h"
#include "core/batch_resolver.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "obs/shadow.h"
#include "paper/paper_example.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace ucr::core {
namespace {

using acm::Mode;

/// Independent record of what the hierarchy should look like,
/// maintained op by op next to the system's in-place mutations. Kept
/// as names (not ids) so a node-interning bug in the write path cannot
/// silently re-align the model with the corruption it should expose.
struct HierarchyModel {
  std::vector<std::string> names;  ///< In id order.
  std::vector<std::pair<std::string, std::string>> edges;

  void EnsureName(const std::string& name) {
    for (const std::string& existing : names) {
      if (existing == name) return;
    }
    names.push_back(name);
  }

  bool EraseEdge(const std::string& parent, const std::string& child) {
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].first == parent && edges[i].second == child) {
        edges.erase(edges.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
};

HierarchyModel SeedModel(const graph::Dag& dag) {
  HierarchyModel model;
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    model.names.push_back(dag.name(v));
  }
  for (graph::NodeId parent = 0; parent < dag.node_count(); ++parent) {
    for (graph::NodeId child : dag.children(parent)) {
      model.edges.emplace_back(dag.name(parent), dag.name(child));
    }
  }
  return model;
}

/// The from-scratch oracle: a DagBuilder rebuild of the model, with
/// nodes added in id order so oracle ids coincide with the live
/// hierarchy's.
graph::Dag RebuildOracle(const HierarchyModel& model) {
  graph::DagBuilder builder;
  for (const std::string& name : model.names) builder.AddNode(name);
  for (const auto& [parent, child] : model.edges) {
    EXPECT_TRUE(builder.AddEdge(parent, child).ok())
        << parent << " -> " << child;
  }
  auto dag = std::move(builder).Build();
  EXPECT_TRUE(dag.ok());
  return std::move(dag).value();
}

/// Structural differential: the in-place-mutated hierarchy must match
/// the model exactly — same nodes in the same id order, same edge set,
/// and a valid topological order (acyclicity survived the splices).
void ExpectStructureMatches(const graph::Dag& dag,
                            const HierarchyModel& model, size_t round) {
  ASSERT_EQ(dag.node_count(), model.names.size()) << "round " << round;
  ASSERT_EQ(dag.edge_count(), model.edges.size()) << "round " << round;
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    EXPECT_EQ(dag.name(v), model.names[v]) << "round " << round;
  }
  for (const auto& [parent, child] : model.edges) {
    EXPECT_TRUE(dag.HasEdge(dag.FindNode(parent), dag.FindNode(child)))
        << "round " << round << ": missing " << parent << " -> " << child;
  }
  EXPECT_EQ(dag.TopologicalOrder().size(), dag.node_count())
      << "round " << round;
}

void ExpectTracesEqual(const ResolveTrace& got, const ResolveTrace& want,
                       size_t round, size_t strategy_index) {
  EXPECT_EQ(got.result, want.result) << "round " << round;
  EXPECT_EQ(got.c1, want.c1) << "round " << round;
  EXPECT_EQ(got.c2, want.c2) << "round " << round;
  EXPECT_EQ(got.auth_computed, want.auth_computed) << "round " << round;
  EXPECT_EQ(got.auth_has_positive, want.auth_has_positive)
      << "round " << round;
  EXPECT_EQ(got.auth_has_negative, want.auth_has_negative)
      << "round " << round;
  EXPECT_EQ(got.returned_line, want.returned_line)
      << "round " << round << " strategy " << strategy_index;
}

/// One randomized mutation applied to the system and mirrored into
/// the model on success.
void ApplyRandomOp(AccessControlSystem& system, HierarchyModel& model,
                   Random& rng, const std::string& object,
                   const std::string& right, size_t* fresh_counter) {
  const auto random_name = [&] {
    return model.names[rng.Uniform(model.names.size())];
  };
  switch (rng.Uniform(6)) {
    // Setting a triple that already carries a label is rejected
    // (Set, not Overwrite), so rights edits revoke first — the op
    // then always lands and keeps the column epoch churning.
    case 0: {
      const std::string subject = random_name();
      (void)system.Revoke(subject, object, right);
      ASSERT_TRUE(system.Grant(subject, object, right).ok());
      break;
    }
    case 1: {
      const std::string subject = random_name();
      (void)system.Revoke(subject, object, right);
      ASSERT_TRUE(system.DenyAccess(subject, object, right).ok());
      break;
    }
    case 2:
      // Revoking an absent label may report NotFound; both outcomes
      // leave the column's epoch guard consistent.
      (void)system.Revoke(random_name(), object, right);
      break;
    case 3: {
      // Random pair: duplicates, self-loops, and would-be cycles are
      // rejected with the hierarchy unchanged.
      const std::string parent = random_name();
      const std::string child = random_name();
      if (system.AddMembership(parent, child).ok()) {
        model.edges.emplace_back(parent, child);
      }
      break;
    }
    case 4: {
      // New hire: a fresh sink joining an existing group can never
      // cycle, so this op must succeed and grow the node set.
      const std::string parent = random_name();
      const std::string child = "hire" + std::to_string((*fresh_counter)++);
      ASSERT_TRUE(system.AddMembership(parent, child).ok());
      model.EnsureName(parent);
      model.EnsureName(child);
      model.edges.emplace_back(parent, child);
      break;
    }
    default: {
      if (!model.edges.empty() && rng.Bernoulli(0.8)) {
        const auto& edge = model.edges[rng.Uniform(model.edges.size())];
        const std::string parent = edge.first;
        const std::string child = edge.second;
        ASSERT_TRUE(system.RemoveMembership(parent, child).ok());
        ASSERT_TRUE(model.EraseEdge(parent, child));
      } else {
        // Random pair: usually absent; NotFound leaves state unchanged.
        const std::string parent = random_name();
        const std::string child = random_name();
        if (system.RemoveMembership(parent, child).ok()) {
          ASSERT_TRUE(model.EraseEdge(parent, child));
        }
      }
      break;
    }
  }
}

/// The differential driver: `rounds` rounds of 1–2 random mutations,
/// each followed by a structural check, a from-scratch oracle rebuild,
/// and a sweep of queries comparing the facade, the fast path (with
/// its Fig. 4 trace), the published snapshot (read twice — a memo miss,
/// then a hit — on a decision table carried over edit by edit), and —
/// every fourth round — a multi-threaded BatchResolver batch over the
/// pinned epoch against the classic engines on the oracle. Strategies
/// rotate through all 48 canonical instances.
void RunDifferential(AccessControlSystem& system, const std::string& object,
                     const std::string& right, uint64_t seed, size_t rounds,
                     size_t queries_per_round) {
  HierarchyModel model = SeedModel(system.dag());
  system.EnableSnapshotReads();
  const std::vector<Strategy>& strategies = AllStrategies();
  Random rng(seed);
  size_t fresh_counter = 0;
  size_t strategy_index = 0;

  const auto object_id = system.eacm().FindObject(object);
  const auto right_id = system.eacm().FindRight(right);
  ASSERT_TRUE(object_id.ok() && right_id.ok());

  ResolveAccessOptions classic;
  classic.use_fast_path = false;

  for (size_t round = 0; round < rounds; ++round) {
    const size_t ops = 1 + rng.Uniform(2);
    for (size_t i = 0; i < ops; ++i) {
      ApplyRandomOp(system, model, rng, object, right, &fresh_counter);
      if (::testing::Test::HasFatalFailure()) return;
    }

    ExpectStructureMatches(system.dag(), model, round);
    if (::testing::Test::HasFatalFailure()) return;
    const graph::Dag oracle = RebuildOracle(model);
    ASSERT_EQ(oracle.node_count(), system.dag().node_count());

    for (size_t q = 0; q < queries_per_round; ++q) {
      const graph::NodeId subject =
          static_cast<graph::NodeId>(rng.Uniform(system.dag().node_count()));
      const Strategy& strategy =
          strategies[strategy_index++ % strategies.size()];

      ResolveTrace classic_trace;
      const auto want = ResolveAccess(oracle, system.eacm(), subject,
                                      *object_id, *right_id, strategy,
                                      classic, &classic_trace);
      ASSERT_TRUE(want.ok()) << "round " << round;

      // The facade over the in-place-mutated master state ...
      const auto facade =
          system.CheckAccess(subject, *object_id, *right_id, strategy);
      ASSERT_TRUE(facade.ok()) << "round " << round;
      EXPECT_EQ(*facade, *want)
          << "round " << round << " subject "
          << system.dag().name(subject) << " strategy "
          << strategy.CanonicalIndex();

      // ... the published snapshot, memo miss then memo hit ...
      for (int read = 0; read < 2; ++read) {
        const auto snap = system.CheckAccessSnapshot(subject, *object_id,
                                                     *right_id, strategy);
        ASSERT_TRUE(snap.ok()) << "round " << round;
        EXPECT_EQ(*snap, *want)
            << "round " << round << " read " << read << " subject "
            << system.dag().name(subject) << " strategy "
            << strategy.CanonicalIndex();
      }

      // ... and the fast path over the in-place-mutated hierarchy must
      // both match the classic rebuild, derivation included.
      ResolveTrace fast_trace;
      const auto fast =
          ResolveAccess(system.dag(), system.eacm(), subject, *object_id,
                        *right_id, strategy, {}, &fast_trace);
      ASSERT_TRUE(fast.ok()) << "round " << round;
      EXPECT_EQ(*fast, *want) << "round " << round;
      ExpectTracesEqual(fast_trace, classic_trace, round,
                        strategy.CanonicalIndex());
    }

    if (round % 4 == 3) {
      const Strategy& strategy =
          strategies[strategy_index++ % strategies.size()];
      std::vector<BatchResolver::Query> batch;
      for (size_t i = 0; i < 16; ++i) {
        batch.push_back({static_cast<graph::NodeId>(
                             rng.Uniform(system.dag().node_count())),
                         *object_id, *right_id});
      }
      const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
      BatchResolverOptions batch_options;
      batch_options.threads = 2;
      BatchResolver resolver(*pin, batch_options);
      const auto results = resolver.ResolveBatch(batch, strategy);
      ASSERT_TRUE(results.ok()) << "round " << round;
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto want =
            ResolveAccess(oracle, system.eacm(), batch[i].subject,
                          *object_id, *right_id, strategy, classic);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ((*results)[i], *want)
            << "round " << round << " batch query " << i << " subject "
            << system.dag().name(batch[i].subject);
      }
    }
  }
}

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag), {});
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  return system;
}

AccessControlSystem MakeEnterpriseSystem() {
  Random rng(11);
  workload::EnterpriseOptions shape;
  shape.individuals = 250;
  shape.groups = 550;
  shape.top_level_groups = 8;
  shape.target_edges = 2100;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  EXPECT_TRUE(dag.ok());
  AccessControlSystem system(std::move(dag).value());
  Random labels(12);
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    if (!labels.Bernoulli(0.03)) continue;
    const std::string& name = system.dag().name(v);
    const Status status = labels.Bernoulli(0.3)
                              ? system.DenyAccess(name, "doc", "read")
                              : system.Grant(name, "doc", "read");
    EXPECT_TRUE(status.ok());
  }
  return system;
}

TEST(MutationDifferentialTest, PaperTopologyChurnMatchesFromScratchRebuild) {
  AccessControlSystem system = MakePaperSystem();
  RunDifferential(system, "obj", "read", /*seed=*/101, /*rounds=*/120,
                  /*queries_per_round=*/4);
}

TEST(MutationDifferentialTest,
     EnterpriseTopologyChurnMatchesFromScratchRebuild) {
  AccessControlSystem system = MakeEnterpriseSystem();
  RunDifferential(system, "doc", "read", /*seed=*/202, /*rounds=*/40,
                  /*queries_per_round=*/6);
}

// Carry-over must be observationally identical to starting cold:
// drive a snapshot-publishing system through randomized ApplyMutations
// batches and compare every decision its published epoch serves (warm
// table, carried edit by edit) with a snapshot built cold from the
// same master state.
TEST(MutationDifferentialTest, CarriedAndColdSnapshotsAgreeUnderChurn) {
  AccessControlSystem incremental = MakeEnterpriseSystem();
  incremental.EnableSnapshotReads();

  const auto object = incremental.eacm().FindObject("doc");
  const auto right = incremental.eacm().FindRight("read");
  ASSERT_TRUE(object.ok() && right.ok());
  const std::vector<Strategy>& strategies = AllStrategies();

  using Op = AccessControlSystem::MutationOp;
  Random rng(303);
  // A hot set queried every round under one fixed strategy, so the
  // carried table actually serves hits across membership-only batches.
  std::vector<graph::NodeId> hot;
  for (size_t i = 0; i < 32; ++i) {
    hot.push_back(static_cast<graph::NodeId>(
        rng.Uniform(incremental.dag().node_count())));
  }
  const Strategy fixed = ParseStrategy("D+LP-").value();
  size_t fresh = 0;
  for (size_t round = 0; round < 30; ++round) {
    std::vector<Op> ops;
    const size_t batch_size = 1 + rng.Uniform(3);
    for (size_t i = 0; i < batch_size; ++i) {
      const std::string a =
          incremental.dag().name(static_cast<graph::NodeId>(
              rng.Uniform(incremental.dag().node_count())));
      const std::string b =
          incremental.dag().name(static_cast<graph::NodeId>(
              rng.Uniform(incremental.dag().node_count())));
      switch (rng.Uniform(5)) {
        case 0:
          ops.push_back(Op::Grant(a, "doc", "read"));
          break;
        case 1:
          ops.push_back(Op::Deny(a, "doc", "read"));
          break;
        case 2:
          ops.push_back(
              Op::AddMember(a, "batchhire" + std::to_string(fresh++)));
          break;
        case 3:
          ops.push_back(Op::AddMember(a, b));
          break;
        default:
          ops.push_back(Op::RemoveMember(a, b));
          break;
      }
    }
    // A batch may abort midway (e.g. on a duplicate edge); whatever
    // applied is published either way.
    (void)incremental.ApplyMutations(ops);

    const SnapshotManager::ReadPin carried = incremental.snapshots()->Pin();
    const auto cold = BuildSnapshot(
        incremental.dag(), incremental.eacm(), incremental.strategy(),
        incremental.propagation_mode(), carried->epoch, /*previous=*/nullptr,
        /*resolution_capacity=*/1 << 14);
    const Strategy& rotating = strategies[round % strategies.size()];
    for (size_t q = 0; q < 8; ++q) {
      const graph::NodeId subject = hot[rng.Uniform(hot.size())];
      for (const Strategy* strategy : {&fixed, &rotating}) {
        const auto warm = SnapshotResolveAccess(*carried, subject, *object,
                                                *right, *strategy);
        const auto from_cold = SnapshotResolveAccess(*cold, subject, *object,
                                                     *right, *strategy);
        ASSERT_TRUE(warm.ok() && from_cold.ok()) << "round " << round;
        EXPECT_EQ(*warm, *from_cold)
            << "round " << round << " subject "
            << incremental.dag().name(subject);
      }
    }
  }
}

#if UCR_METRICS_ENABLED

// The online guarantee: with shadow verification at interval 1, every
// snapshot-table miss after a membership edit is re-resolved by the
// classic oracle over the published epoch's hierarchy — zero
// divergences means the incremental write path never serves a
// decision the from-scratch engines would not.
TEST(MutationDifferentialTest, ShadowVerificationSeesNoDivergenceUnderChurn) {
  obs::ShadowVerifier& shadow = obs::ShadowVerifier::Global();
  const uint64_t checks_before = shadow.checks_total();
  const uint64_t mismatches_before = shadow.mismatch_total();
  shadow.SetInterval(1);

  AccessControlSystem system = MakeEnterpriseSystem();
  const auto object = system.eacm().FindObject("doc");
  const auto right = system.eacm().FindRight("read");
  ASSERT_TRUE(object.ok() && right.ok());
  const Strategy strategy = ParseStrategy("D+LP-").value();

  system.EnableSnapshotReads();
  BatchResolverOptions batch_options;
  batch_options.threads = 2;
  Random rng(404);
  size_t fresh = 0;
  for (size_t round = 0; round < 12; ++round) {
    const std::string parent = system.dag().name(static_cast<graph::NodeId>(
        rng.Uniform(system.dag().node_count())));
    ASSERT_TRUE(system
                    .AddMembership(parent,
                                   "shadowhire" + std::to_string(fresh++))
                    .ok());

    std::vector<BatchResolver::Query> batch;
    for (size_t i = 0; i < 16; ++i) {
      batch.push_back({static_cast<graph::NodeId>(
                           rng.Uniform(system.dag().node_count())),
                       *object, *right});
    }
    const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
    BatchResolver resolver(*pin, batch_options);
    ASSERT_TRUE(resolver.ResolveBatch(batch, strategy).ok());
  }

  shadow.SetInterval(0);
  EXPECT_GT(shadow.checks_total(), checks_before)
      << "shadowing never engaged — the guarantee was not exercised";
  EXPECT_EQ(shadow.mismatch_total(), mismatches_before);
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::core
