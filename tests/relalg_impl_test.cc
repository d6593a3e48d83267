// Differential tests of the paper-literal relational-algebra
// implementation (Figs. 4–5 transcribed onto ucr::relalg) against the
// native engines. Agreement across random hierarchies and all 48
// strategies is the strongest evidence that the native implementation
// faithfully realizes the published pseudocode.

#include "paper/relalg_impl.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;
using graph::AncestorSubgraph;
using graph::Dag;

TEST(RelalgImplTest, BuildSdagRelationHasOneRowPerEdge) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation sdag = BuildSdagRelation(ex.dag);
  EXPECT_EQ(sdag.size(), ex.dag.edge_count());
  EXPECT_EQ(sdag.schema().IndexOf("subject"), 0u);
  EXPECT_EQ(sdag.schema().IndexOf("child"), 1u);
}

TEST(RelalgImplTest, BuildEacmRelationHasOneRowPerAuthorization) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation eacm = BuildEacmRelation(ex.eacm, ex.dag);
  EXPECT_EQ(eacm.size(), 3u);  // S2+, S4+, S5-.
}

TEST(RelalgImplTest, AncestorsFixpointOnPaperExample) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation sdag = BuildSdagRelation(ex.dag);
  auto anc = AncestorsRelalg(sdag, "User");
  ASSERT_TRUE(anc.ok());
  EXPECT_EQ(anc->size(), 6u);  // S1, S2, S3, S5, S6, User.
  auto self = AncestorsRelalg(sdag, "S1");
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->size(), 1u);  // Roots are their own only ancestor.
}

TEST(RelalgImplTest, PropagateMatchesTable1) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation sdag = BuildSdagRelation(ex.dag);
  const relalg::Relation eacm = BuildEacmRelation(ex.eacm, ex.dag);
  auto all_rights = PropagateRelalg(sdag, eacm, "User", "obj", "read");
  ASSERT_TRUE(all_rights.ok()) << all_rights.status().ToString();
  EXPECT_EQ(all_rights->size(), 6u);  // Table 1 has six tuples.

  auto bag = RelationToRightsBag(*all_rights);
  ASSERT_TRUE(bag.ok());
  const AncestorSubgraph sub(ex.dag, ex.user);
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);
  EXPECT_EQ(*bag, PropagateAggregated(sub, labels));
}

TEST(RelalgImplTest, FullPMatchesTable4RowCount) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation sdag = BuildSdagRelation(ex.dag);
  const relalg::Relation eacm = BuildEacmRelation(ex.eacm, ex.dag);
  auto p = PropagateRelalgFullP(sdag, eacm, "User", "obj", "read");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 15u);  // Table 4 has fifteen tuples.
}

TEST(RelalgImplTest, IsolatedSubjectGetsDefaultViaNodeSetFix) {
  // The documented Fig. 5 deviation: an ancestor-less subject must
  // still be seeded (with its explicit label, or the 'd' marker).
  graph::DagBuilder b;
  b.AddNode("lonely");
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId o = eacm.InternObject("obj").value();
  const acm::RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(dag->FindNode("g"), o, r, Mode::kPositive).ok());

  const relalg::Relation sdag = BuildSdagRelation(*dag);
  const relalg::Relation eacm_rel = BuildEacmRelation(eacm, *dag);
  auto all_rights = PropagateRelalg(sdag, eacm_rel, "lonely", "obj", "read");
  ASSERT_TRUE(all_rights.ok());
  ASSERT_EQ(all_rights->size(), 1u);
  auto bag = RelationToRightsBag(*all_rights);
  ASSERT_TRUE(bag.ok());
  EXPECT_EQ(bag->entries()[0].mode, acm::PropagatedMode::kDefault);
  EXPECT_EQ(bag->entries()[0].dis, 0u);
}

TEST(RelalgImplTest, SinkOwnExplicitLabelIsSeeded) {
  graph::DagBuilder b;
  ASSERT_TRUE(b.AddEdge("g", "u").ok());
  auto dag = std::move(b).Build();
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId o = eacm.InternObject("obj").value();
  const acm::RightId r = eacm.InternRight("read").value();
  ASSERT_TRUE(eacm.Set(dag->FindNode("u"), o, r, Mode::kNegative).ok());

  auto all_rights = PropagateRelalg(BuildSdagRelation(*dag),
                                    BuildEacmRelation(eacm, *dag), "u", "obj",
                                    "read");
  ASSERT_TRUE(all_rights.ok());
  auto bag = RelationToRightsBag(*all_rights);
  ASSERT_TRUE(bag.ok());
  // u's own '-' at distance 0 plus g's 'd' at distance 1.
  ASSERT_EQ(bag->GroupCount(), 2u);
  EXPECT_EQ(bag->entries()[0].dis, 0u);
  EXPECT_EQ(bag->entries()[0].mode, acm::PropagatedMode::kNegative);
}

TEST(RelalgImplTest, ResolveRelalgMatchesNativeOnPaperBag) {
  const PaperExample ex = MakePaperExample();
  const relalg::Relation sdag = BuildSdagRelation(ex.dag);
  const relalg::Relation eacm = BuildEacmRelation(ex.eacm, ex.dag);
  auto all_rights = PropagateRelalg(sdag, eacm, "User", "obj", "read");
  ASSERT_TRUE(all_rights.ok());
  auto bag = RelationToRightsBag(*all_rights);
  ASSERT_TRUE(bag.ok());

  for (const Strategy& s : AllStrategies()) {
    ResolveTrace relalg_trace;
    auto relalg_mode = ResolveRelalg(*all_rights, s, &relalg_trace);
    ASSERT_TRUE(relalg_mode.ok()) << s.ToMnemonic();
    ResolveTrace native_trace;
    const Mode native_mode = Resolve(*bag, s, &native_trace);
    EXPECT_EQ(*relalg_mode, native_mode) << s.ToMnemonic();
    EXPECT_EQ(relalg_trace.returned_line, native_trace.returned_line)
        << s.ToMnemonic();
    EXPECT_EQ(relalg_trace.C1ToString(), native_trace.C1ToString())
        << s.ToMnemonic();
    EXPECT_EQ(relalg_trace.C2ToString(), native_trace.C2ToString())
        << s.ToMnemonic();
  }
}

// The heavyweight differential property: on random layered DAGs with
// random labels, the full relational pipeline and the native pipeline
// agree for every sink and every strategy.
TEST(RelalgImplTest, EndToEndMatchesNativeOnRandomHierarchies) {
  Random rng(987);
  for (int trial = 0; trial < 6; ++trial) {
    graph::LayeredDagOptions opt;
    opt.layers = 3;
    opt.nodes_per_layer = 4;
    opt.edge_probability = 0.4;
    opt.skip_edge_probability = 0.2;
    auto dag = graph::GenerateLayeredDag(opt, rng);
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
      for (size_t si = 0; si < AllStrategies().size(); si += 5) {
        const Strategy& s = AllStrategies()[si];
        auto relalg_mode = ResolveAccessRelalg(*dag, eacm, sink, o, r, s);
        ASSERT_TRUE(relalg_mode.ok());
        auto native_mode = ResolveAccess(*dag, eacm, sink, o, r, s);
        ASSERT_TRUE(native_mode.ok());
        EXPECT_EQ(*relalg_mode, *native_mode)
            << "trial " << trial << " sink " << dag->name(sink)
            << " strategy " << s.ToMnemonic();
      }
    }
  }
}

TEST(RelalgImplTest, RelationToRightsBagValidatesSchemaAndContent) {
  relalg::Relation bad{relalg::Schema({{"x", relalg::ValueType::kInt}})};
  EXPECT_FALSE(RelationToRightsBag(bad).ok());

  relalg::Relation negative_dis{relalg::Schema(
      {{"dis", relalg::ValueType::kInt}, {"mode", relalg::ValueType::kString}})};
  negative_dis.AppendUnchecked(
      {relalg::Value(int64_t{-1}), relalg::Value("+")});
  EXPECT_FALSE(RelationToRightsBag(negative_dis).ok());

  relalg::Relation bad_mode{relalg::Schema(
      {{"dis", relalg::ValueType::kInt}, {"mode", relalg::ValueType::kString}})};
  bad_mode.AppendUnchecked({relalg::Value(int64_t{1}), relalg::Value("?")});
  EXPECT_FALSE(RelationToRightsBag(bad_mode).ok());
}

}  // namespace
}  // namespace ucr::core
