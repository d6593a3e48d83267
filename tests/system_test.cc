#include "core/system.h"

#include <gtest/gtest.h>

#include "core/batch_resolver.h"
#include "graph/dag.h"
#include "paper/effective_matrix.h"
#include "paper/paper_example.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

AccessControlSystem MakePaperSystem() {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag));
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  return system;
}

/// Resolves `queries` with a `BatchResolver` of `threads` executors
/// bound to the system's currently published snapshot.
StatusOr<std::vector<Mode>> ResolveOnSnapshot(
    const AccessControlSystem& system,
    std::span<const BatchResolver::Query> queries, const Strategy& strategy,
    size_t threads) {
  const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
  BatchResolverOptions options;
  options.threads = threads;
  BatchResolver resolver(*pin, options);
  return resolver.ResolveBatch(queries, strategy);
}

TEST(SystemTest, CheckAccessUnderExplicitStrategy) {
  AccessControlSystem system = MakePaperSystem();
  auto granted = system.CheckAccessByName("User", "obj", "read", S("D+LMP+"));
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(*granted, Mode::kPositive);
  auto denied = system.CheckAccessByName("User", "obj", "read", S("D+LP-"));
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(*denied, Mode::kNegative);
}

TEST(SystemTest, SessionStrategySwitchWithoutReinstall) {
  // The paper's headline: same data, reconfigured strategy, different
  // decision — no rebuild of anything.
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);
  system.SetStrategy(S("D+GP-"));
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
}

TEST(SystemTest, UnknownNamesAreReported) {
  AccessControlSystem system = MakePaperSystem();
  EXPECT_EQ(system.CheckAccessByName("ghost", "obj", "read").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system.CheckAccessByName("User", "ghost", "read").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(system.Grant("ghost", "obj", "read").code(),
            StatusCode::kNotFound);
}

TEST(SystemTest, ContradictingGrantRejected) {
  AccessControlSystem system = MakePaperSystem();
  EXPECT_EQ(system.Grant("S5", "obj", "read").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SystemTest, RevokeChangesDecision) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);
  // Removing S5's denial leaves '+' alone at the closest distance.
  ASSERT_TRUE(system.Revoke("S5", "obj", "read").ok());
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
}

TEST(SystemTest, EffectiveColumnMatchesPerSubjectResolution) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  const Strategy s = S("D-LMP+");
  auto column = MaterializeEffectiveColumn(system, obj, read, s);
  ASSERT_TRUE(column.ok());
  ASSERT_EQ(column->size(), system.dag().node_count());
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    EXPECT_EQ((*column)[v], system.CheckAccess(v, obj, read, s).value())
        << system.dag().name(v);
  }
}

TEST(SystemTest, EffectiveColumnValidatesIds) {
  AccessControlSystem system = MakePaperSystem();
  EXPECT_EQ(MaterializeEffectiveColumn(system, 99, 0, S("P-")).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SystemTest, AddMembershipChangesDerivedAccess) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D-LP-"));
  // S7 sits under S4 ('+' labeled): granted via inheritance.
  EXPECT_EQ(system.CheckAccessByName("S7", "obj", "read").value(),
            Mode::kPositive);
  // Put S7 also under S5 ('-' labeled, distance 1): the denial is now
  // equally specific and the closed preference denies.
  ASSERT_TRUE(system.AddMembership("S5", "S7").ok());
  EXPECT_EQ(system.CheckAccessByName("S7", "obj", "read").value(),
            Mode::kNegative);
}

TEST(SystemTest, AddMembershipCreatesNewSubjects) {
  AccessControlSystem system = MakePaperSystem();
  ASSERT_TRUE(system.AddMembership("S2", "newhire").ok());
  EXPECT_EQ(
      system.CheckAccessByName("newhire", "obj", "read", S("LP-")).value(),
      Mode::kPositive)
      << "inherits S2's grant";
  // Existing ids must be stable: old decisions unchanged.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read", S("D+LP-"))
                .value(),
            Mode::kNegative);
}

TEST(SystemTest, MembershipCycleRejectedAtomically) {
  AccessControlSystem system = MakePaperSystem();
  const size_t edges_before = system.dag().edge_count();
  EXPECT_FALSE(system.AddMembership("User", "S2").ok())
      << "S2 -> User -> S2 would be a cycle";
  EXPECT_EQ(system.dag().edge_count(), edges_before) << "rollback";
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read", S("D+LP-"))
                .value(),
            Mode::kNegative);
}

TEST(SystemTest, RemoveMembershipChangesDerivedAccess) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("LP-"));
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);
  // Leaving S5 removes the nearest denial; S2's grant remains.
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
  EXPECT_EQ(system.RemoveMembership("S5", "User").code(),
            StatusCode::kNotFound);
}

TEST(SystemTest, PropagationModeOptionFlowsThroughFacade) {
  // r(+) -> m(-) -> s: under kSecondWins m's denial blocks r's grant.
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("r", "m").ok());
  ASSERT_TRUE(b.AddEdge("m", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  SystemOptions options;
  options.propagation_mode = PropagationMode::kSecondWins;
  AccessControlSystem system(std::move(dag).value(), options);
  ASSERT_TRUE(system.Grant("r", "obj", "read").ok());
  ASSERT_TRUE(system.DenyAccess("m", "obj", "read").ok());
  EXPECT_EQ(system.CheckAccessByName("s", "obj", "read", S("GP+")).value(),
            Mode::kNegative)
      << "r's grant never reaches s under kSecondWins";
  // The effective column and the batch path agree with the mode.
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  auto column = MaterializeEffectiveColumn(system, obj, read, S("GP+"));
  ASSERT_TRUE(column.ok());
  EXPECT_EQ((*column)[system.dag().FindNode("s")], Mode::kNegative);
  system.EnableSnapshotReads();
  const std::vector<BatchResolver::Query> queries{
      {system.dag().FindNode("s"), obj, read}};
  for (const size_t threads : {1u, 4u}) {
    EXPECT_EQ(ResolveOnSnapshot(system, queries, S("GP+"), threads)->front(),
              Mode::kNegative)
        << threads << " threads";
  }
}

TEST(SystemTest, BatchMatchesIndividualQueries) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  std::vector<BatchResolver::Query> queries;
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    queries.push_back({v, obj, read});
  }
  const Strategy s = S("D-LMP+");
  system.EnableSnapshotReads();
  auto serial = ResolveOnSnapshot(system, queries, s, /*threads=*/1);
  auto parallel = ResolveOnSnapshot(system, queries, s, /*threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Mode individual =
        system.CheckAccess(queries[i].subject, obj, read, s).value();
    EXPECT_EQ((*serial)[i], individual) << i;
    EXPECT_EQ((*parallel)[i], individual) << i;
  }
}

TEST(SystemTest, BatchValidatesUpFront) {
  AccessControlSystem system = MakePaperSystem();
  system.EnableSnapshotReads();
  const std::vector<BatchResolver::Query> bad{{999, 0, 0}};
  for (const size_t threads : {1u, 4u}) {
    EXPECT_EQ(ResolveOnSnapshot(system, bad, S("P-"), threads).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_TRUE(ResolveOnSnapshot(system, {}, S("P-"), threads)->empty());
  }
}

TEST(SystemTest, ExplicitLabelAlwaysWinsUnderMostSpecific) {
  AccessControlSystem system = MakePaperSystem();
  // User's own explicit label is at distance 0: under most-specific it
  // dominates everything above.
  ASSERT_TRUE(system.Grant("User", "obj", "read").ok());
  EXPECT_EQ(
      system.CheckAccessByName("User", "obj", "read", S("D-LP-")).value(),
      Mode::kPositive);
}

}  // namespace
}  // namespace ucr::core
