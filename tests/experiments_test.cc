#include "paper/experiments.h"

#include <gtest/gtest.h>

namespace ucr::workload {
namespace {

TEST(KdagSweepTest, ProducesFullGrid) {
  KdagSweepOptions opt;
  opt.sizes = {8, 10};
  opt.rate_min = 0.02;
  opt.rate_max = 0.10;
  opt.rate_step = 0.04;
  opt.repetitions = 3;
  auto rows = RunKdagSweep(opt);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u * 3u);  // 2 sizes x 3 rate points.
  for (const KdagSweepRow& row : *rows) {
    EXPECT_GT(row.mean_tuples, 0.0);
    EXPECT_GE(row.mean_us, 0.0);
    EXPECT_EQ(row.repetitions, 3u);
    EXPECT_GE(row.mean_labeled, 1.0);
  }
}

TEST(KdagSweepTest, WorkGrowsWithRate) {
  // The paper's Fig. 6 claim: Propagate() work is roughly linear in
  // the authorization rate. Check monotone growth of the tuple count
  // (time is too noisy for a unit test).
  KdagSweepOptions opt;
  opt.sizes = {14};
  opt.rate_min = 0.01;
  opt.rate_max = 0.10;
  opt.rate_step = 0.03;
  opt.repetitions = 10;
  auto rows = RunKdagSweep(opt);
  ASSERT_TRUE(rows.ok());
  ASSERT_GE(rows->size(), 3u);
  EXPECT_LT((*rows)[0].mean_tuples, rows->back().mean_tuples);
}

TEST(KdagSweepTest, ValidatesOptions) {
  KdagSweepOptions opt;
  opt.rate_step = 0.0;
  EXPECT_FALSE(RunKdagSweep(opt).ok());
  opt = KdagSweepOptions{};
  opt.repetitions = 0;
  EXPECT_FALSE(RunKdagSweep(opt).ok());
  opt = KdagSweepOptions{};
  opt.rate_min = 0.2;
  opt.rate_max = 0.1;
  EXPECT_FALSE(RunKdagSweep(opt).ok());
}

EnterpriseExperimentOptions SmallEnterpriseRun() {
  EnterpriseExperimentOptions opt;
  opt.enterprise.individuals = 60;
  opt.enterprise.groups = 150;
  opt.enterprise.top_level_groups = 6;
  opt.enterprise.max_group_depth = 5;
  opt.enterprise.target_edges = 450;
  opt.authorization_rate = 0.02;
  opt.max_sinks = 25;
  opt.timing_reps = 1;
  return opt;
}

TEST(EnterpriseExperimentTest, ProducesPerSinkRows) {
  auto result = RunEnterpriseExperiment(SmallEnterpriseRun());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 25u);
  for (const SinkMeasurement& m : result->rows) {
    EXPECT_GT(m.subgraph_nodes, 0u);
    EXPECT_GT(m.d, 0u) << "roots always seed, so d >= depth >= 1";
    EXPECT_GE(m.resolve_us, 0.0);
    EXPECT_GE(m.dominance_us, 0.0);
  }
  EXPECT_GT(result->resolve_mean_us, 0.0);
  EXPECT_GT(result->dominance_mean_us, 0.0);
  EXPECT_EQ(result->hierarchy_stats.nodes, 210u);
}

TEST(EnterpriseExperimentTest, RejectsIncomparableStrategy) {
  EnterpriseExperimentOptions opt = SmallEnterpriseRun();
  opt.strategy = core::ParseStrategy("D+LMP-").value();  // Majority: no.
  EXPECT_FALSE(RunEnterpriseExperiment(opt).ok());
  opt.strategy = core::ParseStrategy("D+GP-").value();  // Globality: no.
  EXPECT_FALSE(RunEnterpriseExperiment(opt).ok());
}

TEST(EnterpriseExperimentTest, AcceptsWholeDlpFamily) {
  EnterpriseExperimentOptions opt = SmallEnterpriseRun();
  opt.max_sinks = 5;
  for (const char* mnemonic : {"D+LP+", "D-LP-", "LP+", "LP-"}) {
    opt.strategy = core::ParseStrategy(mnemonic).value();
    EXPECT_TRUE(RunEnterpriseExperiment(opt).ok()) << mnemonic;
  }
}

TEST(EnterpriseExperimentTest, RequiresNegativeFractions) {
  EnterpriseExperimentOptions opt = SmallEnterpriseRun();
  opt.negative_fractions = {};
  EXPECT_FALSE(RunEnterpriseExperiment(opt).ok());
}

TEST(EnterpriseExperimentTest, DeterministicRowsForSeed) {
  auto a = RunEnterpriseExperiment(SmallEnterpriseRun());
  auto b = RunEnterpriseExperiment(SmallEnterpriseRun());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->rows.size(), b->rows.size());
  for (size_t i = 0; i < a->rows.size(); ++i) {
    EXPECT_EQ(a->rows[i].sink, b->rows[i].sink);
    EXPECT_EQ(a->rows[i].d, b->rows[i].d);
    EXPECT_EQ(a->rows[i].subgraph_nodes, b->rows[i].subgraph_nodes);
    EXPECT_EQ(a->rows[i].resolve_mode, b->rows[i].resolve_mode);
  }
}

}  // namespace
}  // namespace ucr::workload
