// Scale-level integration checks on a Livelink-shaped hierarchy: the
// consistency properties that must survive thousands of subjects —
// batch parallelism, whole-graph materialization, the snapshot memo,
// and the persistence round trip all agreeing with scalar resolution.

#include <gtest/gtest.h>

#include "acm/assignment.h"
#include "core/batch_resolver.h"
#include "core/storage.h"
#include "graph/io.h"
#include "core/system.h"
#include "paper/effective_matrix.h"
#include "util/random.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

namespace ucr {
namespace {

using acm::Mode;
using core::Strategy;

core::AccessControlSystem MakeScaleSystem() {
  Random rng(2026);
  workload::EnterpriseOptions shape;
  shape.individuals = 500;
  shape.groups = 1700;
  shape.top_level_groups = 20;
  shape.target_edges = 6000;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  EXPECT_TRUE(dag.ok());
  core::AccessControlSystem system(std::move(dag).value());

  acm::ExplicitAcm seed;
  const acm::ObjectId o = seed.InternObject("vault").value();
  const acm::RightId r = seed.InternRight("open").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.008;
  assign.negative_fraction = 0.35;
  EXPECT_TRUE(
      acm::AssignRandomAuthorizations(system.dag(), o, r, assign, rng, &seed)
          .ok());
  for (const auto& e : seed.SortedEntries()) {
    const std::string& name = system.dag().name(e.subject);
    const Status status = e.mode == Mode::kPositive
                              ? system.Grant(name, "vault", "open")
                              : system.DenyAccess(name, "vault", "open");
    EXPECT_TRUE(status.ok());
  }
  return system;
}

TEST(EnterpriseScaleTest, ParallelBatchEqualsSerialOnRealWorkload) {
  core::AccessControlSystem system = MakeScaleSystem();
  workload::QueryStreamOptions stream_opt;
  stream_opt.count = 600;
  stream_opt.distribution = workload::SubjectDistribution::kZipf;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream_opt);
  ASSERT_TRUE(queries.ok());

  const Strategy s = core::ParseStrategy("D+LP-").value();
  system.EnableSnapshotReads();
  const core::SnapshotManager::ReadPin pin = system.snapshots()->Pin();
  core::BatchResolverOptions serial_options;
  core::BatchResolverOptions parallel_options;
  parallel_options.threads = 8;
  auto serial =
      core::BatchResolver(*pin, serial_options).ResolveBatch(*queries, s);
  auto parallel =
      core::BatchResolver(*pin, parallel_options).ResolveBatch(*queries, s);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
}

TEST(EnterpriseScaleTest, EffectiveColumnAgreesWithScalarQueries) {
  core::AccessControlSystem system = MakeScaleSystem();
  const acm::ObjectId o = system.eacm().FindObject("vault").value();
  const acm::RightId r = system.eacm().FindRight("open").value();
  for (const char* mnemonic : {"D-GMP+", "MLP-", "D+LP-"}) {
    const Strategy s = core::ParseStrategy(mnemonic).value();
    auto column = core::MaterializeEffectiveColumn(system, o, r, s);
    ASSERT_TRUE(column.ok());
    // Sample every 37th subject (full sweep is the benches' job).
    for (graph::NodeId v = 0; v < system.dag().node_count(); v += 37) {
      EXPECT_EQ((*column)[v], system.CheckAccess(v, o, r, s).value())
          << mnemonic << " " << system.dag().name(v);
    }
  }
}

// The memoized read path (snapshot decision table, carried over each
// rights edit) against an unmemoized system rebuilt from the same
// state, under matrix churn.
TEST(EnterpriseScaleTest, SnapshotAndRebuiltFacadeAgreeUnderChurn) {
  core::AccessControlSystem memoized = MakeScaleSystem();
  core::AccessControlSystem uncached = MakeScaleSystem();
  // (Same seed => identical systems; `uncached` is re-created through
  // the text round trip so the two share no in-memory state.)
  core::AccessControlSystem uncached_rebuilt(
      graph::FromEdgeListText(graph::ToEdgeListText(uncached.dag())).value());
  for (const auto& e : uncached.eacm().SortedEntries()) {
    const std::string& name = uncached.dag().name(e.subject);
    ASSERT_TRUE((e.mode == Mode::kPositive
                     ? uncached_rebuilt.Grant(name, "vault", "open")
                     : uncached_rebuilt.DenyAccess(name, "vault", "open"))
                    .ok());
  }
  memoized.EnableSnapshotReads();

  const Strategy s = core::ParseStrategy("LMP-").value();
  const acm::ObjectId o = memoized.eacm().FindObject("vault").value();
  const acm::RightId r = memoized.eacm().FindRight("open").value();
  Random rng(99);
  const auto sinks = memoized.dag().Sinks();
  for (int round = 0; round < 4; ++round) {
    // Query a sample twice (to exercise table hits), then churn the
    // matrix.
    for (int i = 0; i < 50; ++i) {
      const graph::NodeId v = sinks[rng.Uniform(sinks.size())];
      auto a = memoized.CheckAccessSnapshot(v, o, r, s);
      auto b = uncached_rebuilt.CheckAccessByName(memoized.dag().name(v),
                                                  "vault", "open", s);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(*a, *b) << memoized.dag().name(v);
    }
    const graph::NodeId target = static_cast<graph::NodeId>(
        rng.Uniform(memoized.dag().node_count()));
    const std::string name = memoized.dag().name(target);
    (void)memoized.Revoke(name, "vault", "open");
    (void)uncached_rebuilt.Revoke(name, "vault", "open");
    ASSERT_TRUE(memoized.Grant(name, "vault", "open").ok());
    ASSERT_TRUE(uncached_rebuilt.Grant(name, "vault", "open").ok());
  }
}

TEST(EnterpriseScaleTest, PersistenceRoundTripAtScale) {
  core::AccessControlSystem original = MakeScaleSystem();
  original.SetStrategy(core::ParseStrategy("D-MLP+").value());
  const std::string text = core::SaveSystemToText(original);
  auto loaded = core::LoadSystemFromText(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dag().node_count(), original.dag().node_count());
  EXPECT_EQ(loaded->eacm().size(), original.eacm().size());

  Random rng(7);
  const auto sinks = original.dag().Sinks();
  for (int i = 0; i < 60; ++i) {
    const graph::NodeId v = sinks[rng.Uniform(sinks.size())];
    const std::string& name = original.dag().name(v);
    EXPECT_EQ(loaded->CheckAccessByName(name, "vault", "open").value(),
              original.CheckAccessByName(name, "vault", "open").value())
        << name;
  }
}

}  // namespace
}  // namespace ucr
