#include "paper/weak_strong.h"

#include <gtest/gtest.h>

#include "acm/acm.h"
#include "core/resolve.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;

graph::Dag Chain() {
  graph::DagBuilder b;
  EXPECT_TRUE(b.AddEdge("root", "mid").ok());
  EXPECT_TRUE(b.AddEdge("mid", "leaf").ok());
  auto dag = std::move(b).Build();
  EXPECT_TRUE(dag.ok());
  return std::move(dag).value();
}

TEST(WeakStrongTest, StrongOverridesCloserWeak) {
  const graph::Dag dag = Chain();
  const std::vector<WeakStrongAuthorization> auths{
      {dag.FindNode("root"), Mode::kNegative, /*strong=*/true},
      {dag.FindNode("mid"), Mode::kPositive, /*strong=*/false},
  };
  // The weak '+' is more specific, but strong is unconditional.
  auto mode = WeakStrongDecide(dag, auths, dag.FindNode("leaf"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kNegative);
}

TEST(WeakStrongTest, WeakSpecificityWinsWithoutStrong) {
  const graph::Dag dag = Chain();
  const std::vector<WeakStrongAuthorization> auths{
      {dag.FindNode("root"), Mode::kNegative, false},
      {dag.FindNode("mid"), Mode::kPositive, false},
  };
  auto mode = WeakStrongDecide(dag, auths, dag.FindNode("leaf"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kPositive);
}

TEST(WeakStrongTest, OpenDefaultWhenNothingReaches) {
  const graph::Dag dag = Chain();
  auto mode = WeakStrongDecide(dag, {}, dag.FindNode("leaf"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kPositive) << "Bertino's model is open by default";
}

TEST(WeakStrongTest, EquidistantWeakConflictDenies) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("a", "s").ok());
  ASSERT_TRUE(b.AddEdge("b", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  const std::vector<WeakStrongAuthorization> auths{
      {dag->FindNode("a"), Mode::kPositive, false},
      {dag->FindNode("b"), Mode::kNegative, false},
  };
  auto mode = WeakStrongDecide(*dag, auths, dag->FindNode("s"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kNegative) << "denial takes precedence on ties";
}

TEST(WeakStrongTest, ConflictingStrongIsAnError) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("a", "s").ok());
  ASSERT_TRUE(b.AddEdge("b", "s").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  const std::vector<WeakStrongAuthorization> auths{
      {dag->FindNode("a"), Mode::kPositive, true},
      {dag->FindNode("b"), Mode::kNegative, true},
  };
  EXPECT_EQ(WeakStrongDecide(*dag, auths, dag->FindNode("s")).status().code(),
            StatusCode::kFailedPrecondition);
  // A subject reached by only one of them is still fine.
  // (b alone reaches nothing else here, so query a's side via s being
  // the only sink — instead check the roots themselves.)
  EXPECT_EQ(WeakStrongDecide(*dag, auths, dag->FindNode("a")).value(),
            Mode::kPositive);
}

TEST(WeakStrongTest, SameSubjectContradictionRejected) {
  const graph::Dag dag = Chain();
  const std::vector<WeakStrongAuthorization> auths{
      {dag.FindNode("root"), Mode::kPositive, false},
      {dag.FindNode("root"), Mode::kNegative, false},
  };
  EXPECT_EQ(WeakStrongDecide(dag, auths, dag.FindNode("leaf"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The §5 claim, verified: with no strong authorizations the
// weak/strong model coincides with strategy instance D+LP- on
// randomized DAGs, for every subject.
TEST(WeakStrongTest, WeakOnlyModelEqualsDPlusLPMinus) {
  Random rng(1999);  // Bertino et al.'s publication year.
  const Strategy d_plus_lp_minus = ParseStrategy("D+LP-").value();
  for (int trial = 0; trial < 25; ++trial) {
    auto dag = graph::GenerateLayeredDag(
        {.layers = 2 + static_cast<size_t>(rng.Uniform(4)),
         .nodes_per_layer = 2 + static_cast<size_t>(rng.Uniform(5)),
         .skip_edge_probability = 0.2},
        rng);
    ASSERT_TRUE(dag.ok());

    std::vector<WeakStrongAuthorization> auths;
    acm::ExplicitAcm eacm;
    const acm::ObjectId o = eacm.InternObject("obj").value();
    const acm::RightId r = eacm.InternRight("read").value();
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      if (rng.Bernoulli(0.25)) {
        const Mode mode =
            rng.Bernoulli(0.5) ? Mode::kPositive : Mode::kNegative;
        auths.push_back({v, mode, /*strong=*/false});
        ASSERT_TRUE(eacm.Set(v, o, r, mode).ok());
      }
    }
    for (graph::NodeId v = 0; v < dag->node_count(); ++v) {
      auto weak_strong = WeakStrongDecide(*dag, auths, v);
      ASSERT_TRUE(weak_strong.ok());
      auto unified = ResolveAccess(*dag, eacm, v, o, r, d_plus_lp_minus);
      ASSERT_TRUE(unified.ok());
      EXPECT_EQ(*weak_strong, *unified)
          << "trial " << trial << " subject " << dag->name(v);
    }
  }
}

TEST(WeakStrongTest, PaperExampleUnderWeakStrong) {
  const PaperExample ex = MakePaperExample();
  std::vector<WeakStrongAuthorization> auths;
  for (const auto& e : ex.eacm.SortedEntries()) {
    auths.push_back({e.subject, e.mode, /*strong=*/false});
  }
  // All weak => D+LP-, and Table 2 says D+LP- denies User.
  EXPECT_EQ(WeakStrongDecide(ex.dag, auths, ex.user).value(),
            Mode::kNegative);
  // Making S2's grant strong flips the outcome: it is unconditional.
  for (auto& a : auths) {
    if (a.subject == ex.dag.FindNode("S2")) a.strong = true;
  }
  EXPECT_EQ(WeakStrongDecide(ex.dag, auths, ex.user).value(),
            Mode::kPositive);
}

}  // namespace
}  // namespace ucr::core
