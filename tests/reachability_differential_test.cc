// Differential tests for the indexed query path (DESIGN.md §12): sink
// bags composed from the reachability index must yield decisions and
// traces bit-identical to classic ancestor-sub-graph extraction for
// all 48 canonical strategies — on the paper's example, on enterprise
// and random hierarchies, across propagation modes (second-wins
// falling back by design), under randomized `ApplyMutations`
// interleavings with incremental index rebuilds, and through the
// snapshot read path. Also covers the grant/deny conflict policy
// (`GrantConflictPolicy`) on both its reject and overwrite paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "paper/paper_example.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace ucr::core {
namespace {

using acm::Mode;

struct Column {
  acm::ObjectId object;
  acm::RightId right;
};

Column MakeRandomColumn(acm::ExplicitAcm& eacm, const graph::Dag& dag,
                        const char* object, const char* right,
                        double label_rate, Random& rng) {
  const acm::ObjectId o = eacm.InternObject(object).value();
  const acm::RightId r = eacm.InternRight(right).value();
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    if (!rng.Bernoulli(label_rate)) continue;
    const Mode mode = rng.Bernoulli(0.4) ? Mode::kNegative : Mode::kPositive;
    EXPECT_TRUE(eacm.Set(v, o, r, mode).ok());
  }
  return {o, r};
}

void ExpectTraceEq(const ResolveTrace& indexed, const ResolveTrace& classic) {
  ASSERT_EQ(indexed.c1, classic.c1);
  ASSERT_EQ(indexed.c2, classic.c2);
  ASSERT_EQ(indexed.auth_computed, classic.auth_computed);
  ASSERT_EQ(indexed.auth_has_positive, classic.auth_has_positive);
  ASSERT_EQ(indexed.auth_has_negative, classic.auth_has_negative);
  ASSERT_EQ(indexed.returned_line, classic.returned_line);
  ASSERT_EQ(indexed.result, classic.result);
}

/// Indexed vs classic decisions and traces, every canonical strategy,
/// every propagation mode (second-wins exercises the fallback gate:
/// its per-column path gating is not indexable, so the indexed call
/// must transparently serve the classic answer).
void ExpectIndexedAgrees(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                         const Column& column,
                         std::span<const graph::NodeId> subjects) {
  for (const PropagationMode mode :
       {PropagationMode::kBoth, PropagationMode::kFirstWins,
        PropagationMode::kSecondWins}) {
    const auto index =
        graph::ReachabilityIndex::Build(dag, eacm.epoch(), eacm.ReachRows());
    ASSERT_TRUE(index->ready());
    ResolveAccessOptions indexed_options;
    indexed_options.propagation_mode = mode;
    ResolveAccessOptions classic_options = indexed_options;
    classic_options.use_reachability_index = false;
    for (const graph::NodeId v : subjects) {
      for (const Strategy& strategy : AllStrategies()) {
        SCOPED_TRACE(std::string(strategy.ToMnemonic()) + " subject " +
                     dag.name(v) + " mode " + std::to_string(int(mode)));
        ResolveTrace indexed_trace, classic_trace;
        const auto indexed_mode =
            ResolveAccess(dag, eacm, v, column.object, column.right, strategy,
                          indexed_options, &indexed_trace, nullptr,
                          index.get());
        const auto classic_mode =
            ResolveAccess(dag, eacm, v, column.object, column.right, strategy,
                          classic_options, &classic_trace);
        ASSERT_TRUE(indexed_mode.ok());
        ASSERT_TRUE(classic_mode.ok());
        ASSERT_EQ(*indexed_mode, *classic_mode);
        ExpectTraceEq(indexed_trace, classic_trace);
      }
    }
  }
}

std::vector<graph::NodeId> AllSubjects(const graph::Dag& dag) {
  std::vector<graph::NodeId> out(dag.node_count());
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) out[v] = v;
  return out;
}

TEST(ReachabilityDifferentialTest, PaperExampleAllStrategies) {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  ASSERT_TRUE(system.Grant("S2", "obj", "read").ok());
  ASSERT_TRUE(system.Grant("S4", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("S1", "obj", "write").ok());
  for (const char* right : {"read", "write"}) {
    const Column column{system.eacm().FindObject("obj").value(),
                        system.eacm().FindRight(right).value()};
    ExpectIndexedAgrees(system.dag(), system.eacm(), column,
                        AllSubjects(system.dag()));
  }
}

TEST(ReachabilityDifferentialTest, RandomLayeredDagsAllStrategies) {
  for (const uint64_t seed : {101u, 102u, 103u}) {
    Random rng(seed);
    graph::LayeredDagOptions shape;
    shape.layers = 5;
    shape.nodes_per_layer = 7;
    shape.skip_edge_probability = 0.2;
    auto dag = graph::GenerateLayeredDag(shape, rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const Column sparse = MakeRandomColumn(eacm, *dag, "doc", "read", 0.2, rng);
    const Column dense = MakeRandomColumn(eacm, *dag, "doc", "write", 0.6, rng);
    ExpectIndexedAgrees(*dag, eacm, sparse, AllSubjects(*dag));
    ExpectIndexedAgrees(*dag, eacm, dense, AllSubjects(*dag));
  }
}

TEST(ReachabilityDifferentialTest, EnterpriseHierarchySampledSubjects) {
  Random rng(11);
  workload::EnterpriseOptions shape;
  shape.individuals = 150;
  shape.groups = 300;
  shape.top_level_groups = 8;
  shape.target_edges = 1200;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const Column column = MakeRandomColumn(eacm, *dag, "vault", "open", 0.05, rng);
  std::vector<graph::NodeId> sample;
  for (size_t i = 0; i < 80; ++i) {
    sample.push_back(static_cast<graph::NodeId>(rng.Uniform(dag->node_count())));
  }
  ExpectIndexedAgrees(*dag, eacm, column, sample);
}

/// Two systems fed identical mutation interleavings — one composing
/// from the incrementally maintained index, one forced classic — must
/// agree on every decision after every batch.
TEST(ReachabilityDifferentialTest, MutationChurnKeepsIndexBitIdentical) {
  Random rng(202);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 6;
  shape.skip_edge_probability = 0.15;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  SystemOptions indexed_options;
  indexed_options.use_reachability_index = true;
  indexed_options.mutation_conflict_policy = GrantConflictPolicy::kOverwrite;
  SystemOptions classic_options = indexed_options;
  classic_options.use_reachability_index = false;
  AccessControlSystem indexed(*dag, indexed_options);
  AccessControlSystem classic(*dag, classic_options);

  const char* objects[] = {"doc", "vault"};
  const char* rights[] = {"read", "write"};
  auto random_name = [&](Random& r) {
    return std::string("L") + std::to_string(r.Uniform(shape.layers)) + "N" +
           std::to_string(r.Uniform(shape.nodes_per_layer));
  };

  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // One randomized batch of grants/denies/revokes/membership edits.
    std::vector<AccessControlSystem::MutationOp> ops;
    for (int i = 0; i < 6; ++i) {
      const std::string subject = random_name(rng);
      const std::string object = objects[rng.Uniform(2)];
      const std::string right = rights[rng.Uniform(2)];
      switch (rng.Uniform(5)) {
        case 0:
          ops.push_back(
              AccessControlSystem::MutationOp::Grant(subject, object, right));
          break;
        case 1:
          ops.push_back(
              AccessControlSystem::MutationOp::Deny(subject, object, right));
          break;
        case 2:
          ops.push_back(
              AccessControlSystem::MutationOp::Revoke(subject, object, right));
          break;
        case 3:
          ops.push_back(AccessControlSystem::MutationOp::AddMember(
              subject, random_name(rng)));
          break;
        default:
          ops.push_back(AccessControlSystem::MutationOp::RemoveMember(
              subject, random_name(rng)));
          break;
      }
    }
    // Both systems see the identical interleaving; individual ops may
    // fail (duplicate edge, cycle, missing edge) but must fail the
    // same way on both sides.
    const Status a = indexed.ApplyMutations(ops);
    const Status b = classic.ApplyMutations(ops);
    ASSERT_EQ(a.code(), b.code()) << a.message() << " vs " << b.message();

    // The indexed system must actually be serving from the index.
    const graph::ReachabilityIndex* index = indexed.reachability_index();
    ASSERT_NE(index, nullptr);
    ASSERT_TRUE(index->ready());
    ASSERT_EQ(index->dag_generation(), indexed.dag().generation());

    for (const char* object : objects) {
      for (const char* right : rights) {
        const auto o = indexed.eacm().FindObject(object);
        const auto r = indexed.eacm().FindRight(right);
        if (!o.ok() || !r.ok()) continue;
        for (graph::NodeId v = 0; v < indexed.dag().node_count(); ++v) {
          for (const Strategy& strategy : AllStrategies()) {
            const auto lhs = indexed.CheckAccess(v, *o, *r, strategy);
            const auto rhs = classic.CheckAccess(v, *o, *r, strategy);
            ASSERT_TRUE(lhs.ok());
            ASSERT_TRUE(rhs.ok());
            ASSERT_EQ(*lhs, *rhs)
                << strategy.ToMnemonic() << " subject "
                << indexed.dag().name(v) << " " << object << "/" << right;
          }
        }
      }
    }
  }
}

TEST(ReachabilityDifferentialTest, SnapshotReadsComposeFromSnapshotIndex) {
  Random rng(303);
  graph::LayeredDagOptions shape;
  shape.layers = 4;
  shape.nodes_per_layer = 5;
  auto dag = graph::GenerateLayeredDag(shape, rng);
  ASSERT_TRUE(dag.ok());

  SystemOptions options;
  options.use_reachability_index = true;
  AccessControlSystem indexed(*dag, options);
  SystemOptions classic_options = options;
  classic_options.use_reachability_index = false;
  AccessControlSystem classic(*dag, classic_options);
  indexed.EnableSnapshotReads();

  for (int round = 0; round < 6; ++round) {
    const std::string subject =
        "L" + std::to_string(rng.Uniform(shape.layers)) + "N" +
        std::to_string(rng.Uniform(shape.nodes_per_layer));
    const bool deny = rng.Bernoulli(0.4);
    const Status a = deny ? indexed.DenyAccess(subject, "doc", "read")
                          : indexed.Grant(subject, "doc", "read");
    const Status b = deny ? classic.DenyAccess(subject, "doc", "read")
                          : classic.Grant(subject, "doc", "read");
    ASSERT_EQ(a.code(), b.code());
  }
  // The published snapshot carries its own immutable index view.
  ASSERT_NE(indexed.snapshots(), nullptr);
  const auto o = indexed.eacm().FindObject("doc");
  const auto r = indexed.eacm().FindRight("read");
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(r.ok());
  for (graph::NodeId v = 0; v < indexed.dag().node_count(); ++v) {
    for (const Strategy& strategy : AllStrategies()) {
      const auto snap = indexed.CheckAccessSnapshot(v, *o, *r, strategy);
      const auto oracle = classic.CheckAccess(v, *o, *r, strategy);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(*snap, *oracle)
          << strategy.ToMnemonic() << " subject " << indexed.dag().name(v);
    }
  }
}

// -- GrantConflictPolicy (grant/deny vs existing opposite entries) ----

graph::Dag TwoNodeDag() {
  graph::DagBuilder builder;
  builder.AddNode("team");
  builder.AddNode("alice");
  EXPECT_TRUE(builder.AddEdge("team", "alice").ok());
  return std::move(builder).Build().value();
}

TEST(ReachabilityDifferentialTest, ConflictPolicyRejectKeepsMatrixUnchanged) {
  AccessControlSystem system(TwoNodeDag());  // Default: kReject.
  ASSERT_TRUE(system.Grant("alice", "doc", "read").ok());

  const Status conflict = system.DenyAccess("alice", "doc", "read");
  EXPECT_EQ(conflict.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(conflict.message().find("opposite"), std::string::npos);
  // The matrix is untouched: the grant still decides.
  EXPECT_EQ(system.CheckAccessByName("alice", "doc", "read").value(),
            Mode::kPositive);
  // Re-granting the same mode is an idempotent no-op, not a conflict.
  EXPECT_TRUE(system.Grant("alice", "doc", "read").ok());
  // Revoke-then-deny is the sanctioned flip under kReject.
  ASSERT_TRUE(system.Revoke("alice", "doc", "read").ok());
  ASSERT_TRUE(system.DenyAccess("alice", "doc", "read").ok());
  EXPECT_EQ(system.CheckAccessByName("alice", "doc", "read").value(),
            Mode::kNegative);
}

TEST(ReachabilityDifferentialTest, ConflictPolicyOverwriteReplacesInPlace) {
  SystemOptions options;
  options.mutation_conflict_policy = GrantConflictPolicy::kOverwrite;
  AccessControlSystem system(TwoNodeDag(), options);
  ASSERT_TRUE(system.Grant("alice", "doc", "read").ok());
  ASSERT_TRUE(system.DenyAccess("alice", "doc", "read").ok());
  EXPECT_EQ(system.CheckAccessByName("alice", "doc", "read").value(),
            Mode::kNegative);
  ASSERT_TRUE(system.Grant("alice", "doc", "read").ok());
  EXPECT_EQ(system.CheckAccessByName("alice", "doc", "read").value(),
            Mode::kPositive);
}

TEST(ReachabilityDifferentialTest, ConflictPolicyAppliesToMutationBatches) {
  using Op = AccessControlSystem::MutationOp;
  {
    AccessControlSystem system(TwoNodeDag());  // kReject.
    const std::vector<Op> ops = {
        Op::Grant("team", "doc", "read"),
        Op::Deny("team", "doc", "read"),    // Conflicts: stops the batch.
        Op::Grant("alice", "doc", "write"),  // Never applied.
    };
    AccessControlSystem::MutationBatchStats stats;
    const Status status = system.ApplyMutations(ops, &stats);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(stats.applied, 1u);  // Prior ops stay applied.
    EXPECT_EQ(system.CheckAccessByName("team", "doc", "read").value(),
              Mode::kPositive);
    EXPECT_FALSE(system.eacm().FindRight("write").ok());
  }
  {
    SystemOptions options;
    options.mutation_conflict_policy = GrantConflictPolicy::kOverwrite;
    AccessControlSystem system(TwoNodeDag(), options);
    const std::vector<Op> ops = {
        Op::Grant("team", "doc", "read"),
        Op::Deny("team", "doc", "read"),  // Overwrites in place.
        Op::Grant("alice", "doc", "write"),
    };
    AccessControlSystem::MutationBatchStats stats;
    ASSERT_TRUE(system.ApplyMutations(ops, &stats).ok());
    EXPECT_EQ(stats.applied, 3u);
    EXPECT_EQ(system.CheckAccessByName("team", "doc", "read").value(),
              Mode::kNegative);
    EXPECT_EQ(system.CheckAccessByName("alice", "doc", "write").value(),
              Mode::kPositive);
  }
}

}  // namespace
}  // namespace ucr::core
