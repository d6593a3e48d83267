#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;
using acm::PropagatedMode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

const Contribution* FindSource(const Explanation& e, const graph::Dag& dag,
                               const char* name) {
  for (const Contribution& c : e.contributions) {
    if (dag.name(c.source) == name) return &c;
  }
  return nullptr;
}

TEST(ExplainTest, PaperExampleContributions) {
  const PaperExample ex = MakePaperExample();
  auto explanation =
      ExplainAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("D+LP-"));
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();

  // Sources: S2 (+), S5 (-), defaults on S1 and S6 — four of them.
  ASSERT_EQ(explanation->contributions.size(), 4u);
  const Contribution* s2 = FindSource(*explanation, ex.dag, "S2");
  const Contribution* s5 = FindSource(*explanation, ex.dag, "S5");
  const Contribution* s1 = FindSource(*explanation, ex.dag, "S1");
  const Contribution* s6 = FindSource(*explanation, ex.dag, "S6");
  ASSERT_NE(s2, nullptr);
  ASSERT_NE(s5, nullptr);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s6, nullptr);

  EXPECT_EQ(s2->mode, PropagatedMode::kPositive);
  EXPECT_EQ(s2->min_distance, 1u);
  EXPECT_EQ(s2->max_distance, 3u);
  EXPECT_EQ(s2->tuple_count, 2u);  // Two paths (Table 1 rows 1+, 3+).
  EXPECT_EQ(s5->mode, PropagatedMode::kNegative);
  EXPECT_EQ(s5->tuple_count, 1u);
  EXPECT_EQ(s1->mode, PropagatedMode::kDefault);
  EXPECT_EQ(s6->mode, PropagatedMode::kDefault);
  EXPECT_EQ(s6->tuple_count, 2u);  // Direct and via S5.
}

TEST(ExplainTest, LocalityFilterSurvivorsMarked) {
  const PaperExample ex = MakePaperExample();
  auto explanation =
      ExplainAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("D+LP-"));
  ASSERT_TRUE(explanation.ok());
  // Most specific: distance-1 tuples survive — S2, S5, S6; S1's only
  // path has length 3.
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S2")->survived_filters);
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S5")->survived_filters);
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S6")->survived_filters);
  EXPECT_FALSE(FindSource(*explanation, ex.dag, "S1")->survived_filters);
  EXPECT_EQ(explanation->decision, Mode::kNegative);
  EXPECT_EQ(explanation->deciding_policy, "preference");
}

TEST(ExplainTest, GlobalitySurvivors) {
  const PaperExample ex = MakePaperExample();
  auto explanation =
      ExplainAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("D+GP-"));
  ASSERT_TRUE(explanation.ok());
  // Farthest distance is 3: S2 (via S3,S5) and S1 survive.
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S2")->survived_filters);
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S1")->survived_filters);
  EXPECT_FALSE(FindSource(*explanation, ex.dag, "S5")->survived_filters);
  EXPECT_FALSE(FindSource(*explanation, ex.dag, "S6")->survived_filters);
  EXPECT_EQ(explanation->deciding_policy, "locality");
  EXPECT_EQ(explanation->decision, Mode::kPositive);
}

TEST(ExplainTest, DroppedDefaultsUnderNoDefaultRule) {
  const PaperExample ex = MakePaperExample();
  auto explanation =
      ExplainAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("MP-"));
  ASSERT_TRUE(explanation.ok());
  EXPECT_FALSE(FindSource(*explanation, ex.dag, "S1")->survived_filters);
  EXPECT_FALSE(FindSource(*explanation, ex.dag, "S6")->survived_filters);
  EXPECT_TRUE(FindSource(*explanation, ex.dag, "S2")->survived_filters);
  EXPECT_EQ(explanation->deciding_policy, "majority");
}

TEST(ExplainTest, DefaultPolicyNamedWhenOnlyDefaultsSurvive) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("root", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId o = eacm.InternObject("obj").value();
  const acm::RightId r = eacm.InternRight("read").value();
  auto explanation =
      ExplainAccess(*dag, eacm, dag->FindNode("u"), o, r, S("D+P-"));
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->decision, Mode::kPositive);
  EXPECT_EQ(explanation->deciding_policy, "default");
}

TEST(ExplainTest, UnanimityNamedForSingleExplicitMode) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId o = eacm.InternObject("obj").value();
  const acm::RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(dag->FindNode("g"), o, r, Mode::kPositive).ok());
  auto explanation =
      ExplainAccess(*dag, eacm, dag->FindNode("u"), o, r, S("P-"));
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->decision, Mode::kPositive);
  EXPECT_EQ(explanation->deciding_policy, "unanimity");
}

TEST(ExplainTest, RenderedReportMentionsEverything) {
  const PaperExample ex = MakePaperExample();
  auto explanation =
      ExplainAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("D+LMP+"));
  ASSERT_TRUE(explanation.ok());
  const std::string report = explanation->ToString(ex.dag);
  EXPECT_NE(report.find("GRANTED"), std::string::npos);
  EXPECT_NE(report.find("majority"), std::string::npos);
  EXPECT_NE(report.find("S5"), std::string::npos);
  EXPECT_NE(report.find("c1=2"), std::string::npos);
}

// The explanation's decision must equal ResolveAccess for every
// strategy on randomized hierarchies — provenance must not perturb
// semantics.
TEST(ExplainTest, DecisionMatchesResolveEverywhere) {
  Random rng(606);
  for (int trial = 0; trial < 10; ++trial) {
    auto dag = graph::GenerateLayeredDag(
        {.layers = 3, .nodes_per_layer = 5, .skip_edge_probability = 0.2},
        rng);
    ASSERT_TRUE(dag.ok());
    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("obj").value();
    const acm::RightId r = eacm.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(eacm.Set(v, o, r,
                             rng.Bernoulli(0.5) ? Mode::kPositive
                                                : Mode::kNegative)
                        .ok());
      }
    }
    for (graph::NodeId sink : dag->Sinks()) {
      for (const Strategy& s : AllStrategies()) {
        auto explanation = ExplainAccess(*dag, eacm, sink, o, r, s);
        ASSERT_TRUE(explanation.ok());
        auto resolved = ResolveAccess(*dag, eacm, sink, o, r, s);
        ASSERT_TRUE(resolved.ok());
        EXPECT_EQ(explanation->decision, *resolved)
            << s.ToMnemonic() << " at " << dag->name(sink);
        // Trace agreement too: same deciding line and counters.
        ResolveTrace reference;
        (void)ResolveAccess(*dag, eacm, sink, o, r, s, {}, &reference);
        EXPECT_EQ(explanation->trace.returned_line, reference.returned_line);
        EXPECT_EQ(explanation->trace.C1ToString(), reference.C1ToString());
      }
    }
  }
}

TEST(ExplainTest, ValidatesIds) {
  const PaperExample ex = MakePaperExample();
  EXPECT_FALSE(ExplainAccess(ex.dag, ex.eacm, 999, ex.obj, ex.read, S("P-"))
                   .ok());
  EXPECT_FALSE(ExplainAccess(ex.dag, ex.eacm, ex.user, 99, ex.read, S("P-"))
                   .ok());
}

}  // namespace
}  // namespace ucr::core
