#include "paper/dominance.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/resolve.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;
using graph::Dag;

using Labels = std::vector<std::optional<Mode>>;

TEST(DominanceTest, NearestLabelWins) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("top", "mid").ok());
  ASSERT_TRUE(b.AddEdge("mid", "leaf").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(3);
  labels[dag->FindNode("top")] = Mode::kPositive;
  labels[dag->FindNode("mid")] = Mode::kNegative;
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("leaf"),
                      DefaultRule::kPositive, PreferenceRule::kPositive),
            Mode::kNegative)
      << "mid's '-' is more specific than top's '+'";
}

TEST(DominanceTest, OwnLabelBeatsEverything) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(2);
  labels[dag->FindNode("g")] = Mode::kNegative;
  labels[dag->FindNode("u")] = Mode::kPositive;
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("u"),
                      DefaultRule::kNegative, PreferenceRule::kNegative),
            Mode::kPositive);
}

TEST(DominanceTest, MixedNearestLevelFallsToPreference) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("a", "s").ok());
  ASSERT_TRUE(b.AddEdge("b", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(3);
  labels[dag->FindNode("a")] = Mode::kPositive;
  labels[dag->FindNode("b")] = Mode::kNegative;
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("s"), DefaultRule::kNone,
                      PreferenceRule::kNegative),
            Mode::kNegative);
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("s"), DefaultRule::kNone,
                      PreferenceRule::kPositive),
            Mode::kPositive);
}

TEST(DominanceTest, UnlabeledRootsTakeDefault) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("root", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  const Labels labels(2);
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("s"),
                      DefaultRule::kPositive, PreferenceRule::kNegative),
            Mode::kPositive);
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("s"),
                      DefaultRule::kNegative, PreferenceRule::kPositive),
            Mode::kNegative);
}

TEST(DominanceTest, NoLabelsNoDefaultFallsToPreference) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("root", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  const Labels labels(2);
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("s"), DefaultRule::kNone,
                      PreferenceRule::kPositive),
            Mode::kPositive);
}

TEST(DominanceTest, EarlyExitOnPreferredLabel) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(2);
  labels[dag->FindNode("u")] = Mode::kNegative;
  DominanceStats stats;
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("u"), DefaultRule::kNone,
                      PreferenceRule::kNegative, &stats),
            Mode::kNegative);
  EXPECT_TRUE(stats.early_exit);
  EXPECT_EQ(stats.nodes_visited, 1u);  // Never looked at g.
}

TEST(DominanceTest, NonPreferredLevelCompletesScan) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(2);
  labels[dag->FindNode("u")] = Mode::kPositive;
  DominanceStats stats;
  EXPECT_EQ(Dominance(*dag, labels, dag->FindNode("u"), DefaultRule::kNone,
                      PreferenceRule::kNegative, &stats),
            Mode::kPositive);
  EXPECT_FALSE(stats.early_exit);
}

TEST(DominanceTest, PaperExampleMatchesPublishedDLPRows) {
  // Table 2: D+LP+ = '+', D+LP- = '-', D-LP+ = '+', D-LP- = '-'.
  const PaperExample ex = MakePaperExample();
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);
  EXPECT_EQ(Dominance(ex.dag, labels, ex.user, DefaultRule::kPositive,
                      PreferenceRule::kPositive),
            Mode::kPositive);
  EXPECT_EQ(Dominance(ex.dag, labels, ex.user, DefaultRule::kPositive,
                      PreferenceRule::kNegative),
            Mode::kNegative);
  EXPECT_EQ(Dominance(ex.dag, labels, ex.user, DefaultRule::kNegative,
                      PreferenceRule::kPositive),
            Mode::kPositive);
  EXPECT_EQ(Dominance(ex.dag, labels, ex.user, DefaultRule::kNegative,
                      PreferenceRule::kNegative),
            Mode::kNegative);
}

struct DlpParam {
  DefaultRule default_rule;
  PreferenceRule preference;
  const char* mnemonic;
};

class DominanceEquivalenceTest : public ::testing::TestWithParam<DlpParam> {};

INSTANTIATE_TEST_SUITE_P(
    DlpFamily, DominanceEquivalenceTest,
    ::testing::Values(
        DlpParam{DefaultRule::kPositive, PreferenceRule::kPositive, "D+LP+"},
        DlpParam{DefaultRule::kPositive, PreferenceRule::kNegative, "D+LP-"},
        DlpParam{DefaultRule::kNegative, PreferenceRule::kPositive, "D-LP+"},
        DlpParam{DefaultRule::kNegative, PreferenceRule::kNegative, "D-LP-"},
        DlpParam{DefaultRule::kNone, PreferenceRule::kPositive, "LP+"},
        DlpParam{DefaultRule::kNone, PreferenceRule::kNegative, "LP-"}),
    [](const auto& param_info) {
      std::string name = param_info.param.mnemonic;
      for (char& c : name) {
        if (c == '+') c = 'p';
        if (c == '-') c = 'm';
      }
      return name;
    });

// The paper's implicit claim: Dominance() computes exactly what
// Resolve() computes for the D*LP* family. Checked on random DAGs
// with random label placements, for every node (not just sinks).
TEST_P(DominanceEquivalenceTest, AgreesWithResolveOnRandomGraphs) {
  const DlpParam param = GetParam();
  auto strategy = ParseStrategy(param.mnemonic);
  ASSERT_TRUE(strategy.ok());

  Random rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    graph::LayeredDagOptions opt;
    opt.layers = 2 + static_cast<size_t>(rng.Uniform(4));
    opt.nodes_per_layer = 2 + static_cast<size_t>(rng.Uniform(5));
    opt.skip_edge_probability = 0.2;
    auto dag = graph::GenerateLayeredDag(opt, rng);
    ASSERT_TRUE(dag.ok());

    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("obj").value();
    const acm::RightId r = eacm.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.25)) {
        ASSERT_TRUE(eacm.Set(v, o, r,
                             rng.Bernoulli(0.5) ? Mode::kPositive
                                                : Mode::kNegative)
                        .ok());
      }
    }
    const auto labels = eacm.ExtractLabels(dag->node_count(), o, r);

    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      const Mode dominance = Dominance(*dag, labels, v, param.default_rule,
                                       param.preference);
      auto resolve = ResolveAccess(*dag, eacm, v, o, r, *strategy);
      ASSERT_TRUE(resolve.ok());
      EXPECT_EQ(dominance, *resolve)
          << "trial " << trial << " node " << dag->name(v) << " strategy "
          << param.mnemonic;
    }
  }
}

// --- DominancePathwise: the reconstructed Fig. 7(a) baseline -------

TEST(DominancePathwiseTest, StopsAtFirstLabelPerPath) {
  // r(+) -> m(-) -> s: the path stops at m; r's '+' is never seen.
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("r", "m").ok());
  ASSERT_TRUE(b.AddEdge("m", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(3);
  labels[dag->FindNode("r")] = Mode::kPositive;
  labels[dag->FindNode("m")] = Mode::kNegative;
  auto mode = DominancePathwise(*dag, labels, dag->FindNode("s"),
                                DefaultRule::kPositive,
                                PreferenceRule::kPositive);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kNegative);
}

TEST(DominancePathwiseTest, PreferredOnAnyPathWins) {
  // Two paths: one ends at '+', one at '-'. Preference decides, in
  // both directions.
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("a", "s").ok());
  ASSERT_TRUE(b.AddEdge("b", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels labels(3);
  labels[dag->FindNode("a")] = Mode::kPositive;
  labels[dag->FindNode("b")] = Mode::kNegative;
  EXPECT_EQ(*DominancePathwise(*dag, labels, dag->FindNode("s"),
                               DefaultRule::kNone, PreferenceRule::kNegative),
            Mode::kNegative);
  EXPECT_EQ(*DominancePathwise(*dag, labels, dag->FindNode("s"),
                               DefaultRule::kNone, PreferenceRule::kPositive),
            Mode::kPositive);
}

TEST(DominancePathwiseTest, ShortCircuitIsPlacementDependent) {
  // A wide fan of parents: with the preferred label on the first
  // parent the scan prunes; with it on the last parent it visits all.
  graph::DagBuilder b;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AddEdge("p" + std::to_string(i), "s").ok());
  }
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  Labels early(51);
  early[dag->FindNode("p0")] = Mode::kNegative;
  Labels late(51);
  late[dag->FindNode("p49")] = Mode::kNegative;

  DominanceStats stats_early;
  ASSERT_TRUE(DominancePathwise(*dag, early, dag->FindNode("s"),
                                DefaultRule::kNone, PreferenceRule::kNegative,
                                &stats_early)
                  .ok());
  DominanceStats stats_late;
  ASSERT_TRUE(DominancePathwise(*dag, late, dag->FindNode("s"),
                                DefaultRule::kNone, PreferenceRule::kNegative,
                                &stats_late)
                  .ok());
  EXPECT_LT(stats_early.nodes_visited * 10, stats_late.nodes_visited)
      << "early preferred label must prune the scan hard";
}

TEST(DominancePathwiseTest, StepBudgetTrips) {
  auto dag = graph::GenerateDiamondStack(30);  // 2^30 upward paths.
  ASSERT_TRUE(dag.ok());
  const Labels labels(dag->node_count());
  auto result = DominancePathwise(*dag, labels, dag->FindNode("Dsink"),
                                  DefaultRule::kPositive,
                                  PreferenceRule::kNegative, nullptr,
                                  /*max_steps=*/10'000);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// On trees every ancestor is reached by exactly one path, so per-path
// most-specific coincides with the global most-specific rule: the
// pathwise baseline must agree with Resolve's D*LP* family (and with
// the level-BFS Dominance) exactly.
TEST(DominancePathwiseTest, AgreesWithResolveOnTrees) {
  Random rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    auto dag = graph::GenerateRandomTree(30, rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("obj").value();
    const acm::RightId r = eacm.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE(eacm.Set(v, o, r,
                             rng.Bernoulli(0.5) ? Mode::kPositive
                                                : Mode::kNegative)
                        .ok());
      }
    }
    const auto labels = eacm.ExtractLabels(dag->node_count(), o, r);
    for (const char* mnemonic : {"D+LP-", "D-LP+", "LP-", "LP+"}) {
      auto strategy = ParseStrategy(mnemonic);
      ASSERT_TRUE(strategy.ok());
      for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
        auto pathwise = DominancePathwise(*dag, labels, v,
                                          strategy->default_rule,
                                          strategy->preference_rule);
        ASSERT_TRUE(pathwise.ok());
        auto resolve = ResolveAccess(*dag, eacm, v, o, r, *strategy);
        ASSERT_TRUE(resolve.ok());
        EXPECT_EQ(*pathwise, *resolve)
            << "trial " << trial << " node " << dag->name(v) << " "
            << mnemonic;
      }
    }
  }
}

TEST(DominanceAccessTest, EndToEndConvenience) {
  const PaperExample ex = MakePaperExample();
  auto mode = DominanceAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read,
                              DefaultRule::kPositive,
                              PreferenceRule::kNegative);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kNegative);
  EXPECT_EQ(DominanceAccess(ex.dag, ex.eacm, 999, ex.obj, ex.read,
                            DefaultRule::kNone, PreferenceRule::kNegative)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ucr::core
