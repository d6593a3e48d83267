// Differential tests for the parallel query-evaluation layer: every
// parallel path (EffectiveMatrix::Materialize/Refresh with threads,
// BatchResolver over a pinned snapshot) must produce
// decisions bit-identical to the serial engines — for all 48 canonical
// strategies, on the paper's Fig. 1 example and on a generated
// enterprise hierarchy.

#include <gtest/gtest.h>

#include <vector>

#include "core/batch_resolver.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "paper/effective_matrix.h"
#include "paper/paper_example.h"
#include "util/random.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

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
  EXPECT_TRUE(system.DenyAccess("S1", "obj", "write").ok());
  return system;
}

// A mid-sized enterprise hierarchy with explicit labels scattered over
// three (object, right) columns at realistic (sparse) rates.
AccessControlSystem MakeEnterpriseSystem() {
  Random rng(7);
  workload::EnterpriseOptions shape;
  shape.individuals = 200;
  shape.groups = 600;
  shape.top_level_groups = 8;
  shape.target_edges = 2200;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  EXPECT_TRUE(dag.ok());
  AccessControlSystem system(std::move(dag).value());

  const struct {
    const char* object;
    const char* right;
  } columns[] = {{"vault", "open"}, {"vault", "audit"}, {"wiki", "edit"}};
  for (const auto& column : columns) {
    for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
      if (!rng.Bernoulli(0.02)) continue;
      const std::string& name = system.dag().name(v);
      const Status status =
          rng.Bernoulli(0.3)
              ? system.DenyAccess(name, column.object, column.right)
              : system.Grant(name, column.object, column.right);
      EXPECT_TRUE(status.ok());
    }
  }
  return system;
}

void ExpectMatrixMatchesSerial(AccessControlSystem& system) {
  for (const Strategy& strategy : AllStrategies()) {
    auto serial = EffectiveMatrix::Materialize(system, strategy);
    auto parallel = EffectiveMatrix::Materialize(system, strategy, 4);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
      for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
        for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
          ASSERT_EQ(parallel->Lookup(v, o, r).value(),
                    serial->Lookup(v, o, r).value())
              << strategy.ToMnemonic() << " subject "
              << system.dag().name(v) << " object " << o << " right " << r;
        }
      }
    }
  }
}

void ExpectBatchMatchesSerial(AccessControlSystem& system,
                              std::span<const BatchResolver::Query> queries) {
  system.EnableSnapshotReads();
  const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
  BatchResolverOptions options;
  options.threads = 4;
  BatchResolver resolver(*pin, options);
  for (const Strategy& strategy : AllStrategies()) {
    auto batched = resolver.ResolveBatch(queries, strategy);
    ASSERT_TRUE(batched.ok());
    ASSERT_EQ(batched->size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ((*batched)[i],
                system
                    .CheckAccess(queries[i].subject, queries[i].object,
                                 queries[i].right, strategy)
                    .value())
          << strategy.ToMnemonic() << " query " << i << " subject "
          << system.dag().name(queries[i].subject);
    }
  }
}

TEST(ParallelDifferentialTest, MaterializeAllStrategiesPaperExample) {
  AccessControlSystem system = MakePaperSystem();
  ExpectMatrixMatchesSerial(system);
}

TEST(ParallelDifferentialTest, MaterializeAllStrategiesEnterprise) {
  AccessControlSystem system = MakeEnterpriseSystem();
  ExpectMatrixMatchesSerial(system);
}

TEST(ParallelDifferentialTest, BatchResolverAllStrategiesPaperExample) {
  AccessControlSystem system = MakePaperSystem();
  // Every triple of the paper example is a query.
  std::vector<BatchResolver::Query> queries;
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    for (acm::ObjectId o = 0; o < system.eacm().object_count(); ++o) {
      for (acm::RightId r = 0; r < system.eacm().right_count(); ++r) {
        queries.push_back({v, o, r});
      }
    }
  }
  ExpectBatchMatchesSerial(system, queries);
}

TEST(ParallelDifferentialTest, BatchResolverAllStrategiesEnterprise) {
  AccessControlSystem system = MakeEnterpriseSystem();
  workload::QueryStreamOptions stream;
  stream.count = 300;
  stream.seed = 11;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream);
  ASSERT_TRUE(queries.ok());
  ExpectBatchMatchesSerial(system, *queries);
}

TEST(ParallelDifferentialTest, ParallelRefreshMatchesSerialRefresh) {
  AccessControlSystem serial_system = MakeEnterpriseSystem();
  AccessControlSystem parallel_system = MakeEnterpriseSystem();
  const Strategy strategy = S("D+LP-");
  auto serial = EffectiveMatrix::Materialize(serial_system, strategy);
  auto parallel = EffectiveMatrix::Materialize(parallel_system, strategy, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  // The same administrative burst hits both systems: an update to an
  // existing column and a brand-new column.
  for (AccessControlSystem* system : {&serial_system, &parallel_system}) {
    ASSERT_TRUE(
        system->Grant(system->dag().name(0), "vault", "open").ok());
    ASSERT_TRUE(
        system->DenyAccess(system->dag().name(1), "ledger", "close").ok());
  }
  auto serial_refreshed = serial->Refresh(serial_system);
  auto parallel_refreshed = parallel->Refresh(parallel_system, 4);
  ASSERT_TRUE(serial_refreshed.ok());
  ASSERT_TRUE(parallel_refreshed.ok());
  EXPECT_EQ(*parallel_refreshed, *serial_refreshed);

  for (acm::ObjectId o = 0; o < serial_system.eacm().object_count(); ++o) {
    for (acm::RightId r = 0; r < serial_system.eacm().right_count(); ++r) {
      for (graph::NodeId v = 0; v < serial_system.dag().node_count(); ++v) {
        ASSERT_EQ(parallel->Lookup(v, o, r).value(),
                  serial->Lookup(v, o, r).value());
      }
    }
  }
}

#if UCR_METRICS_ENABLED

TEST(ParallelDifferentialTest, BatchResolverTableStaysWarmAcrossBatches) {
  AccessControlSystem system = MakeEnterpriseSystem();
  workload::QueryStreamOptions stream;
  stream.count = 400;
  stream.seed = 31;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream);
  ASSERT_TRUE(queries.ok());
  system.EnableSnapshotReads();
  const SnapshotManager::ReadPin pin = system.snapshots()->Pin();
  BatchResolverOptions options;
  options.threads = 4;
  BatchResolver resolver(*pin, options);
  obs::Counter& hits = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_hits_total", "");
  obs::Counter& misses = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_misses_total", "");
  ASSERT_TRUE(resolver.ResolveBatch(*queries, S("D+LP-")).ok());
  const uint64_t misses_after_first = misses.Value();
  const uint64_t hits_after_first = hits.Value();
  ASSERT_TRUE(resolver.ResolveBatch(*queries, S("D+LP-")).ok());
  EXPECT_EQ(misses.Value(), misses_after_first)
      << "replaying the same batch must be all table hits";
  EXPECT_EQ(hits.Value() - hits_after_first, queries->size());
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::core
