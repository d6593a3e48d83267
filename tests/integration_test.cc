// End-to-end integration tests across modules: serialization round
// trips feeding live queries, strategy reconfiguration on a realistic
// organization, propagation-mode extensions through the public entry
// points, and cross-engine agreement on a generated enterprise.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acm/acm.h"
#include "acm/assignment.h"
#include "core/resolve.h"
#include "core/system.h"
#include "graph/io.h"
#include "paper/dominance.h"
#include "paper/effective_matrix.h"
#include "paper/literal.h"
#include "paper/relalg_impl.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace ucr {
namespace {

using acm::Mode;
using core::ParseStrategy;
using core::Strategy;

// A small org: engineering and security teams, one contractor in both.
constexpr const char* kOrgText =
    "# demo organization\n"
    "edge company engineering\n"
    "edge company security\n"
    "edge engineering backend\n"
    "edge engineering frontend\n"
    "edge backend alice\n"
    "edge backend contractor\n"
    "edge security contractor\n"
    "edge frontend bob\n";

TEST(IntegrationTest, SerializedOrgAnswersQueries) {
  auto dag = graph::FromEdgeListText(kOrgText);
  ASSERT_TRUE(dag.ok());

  core::AccessControlSystem system(std::move(dag).value());
  ASSERT_TRUE(system.Grant("engineering", "repo", "push").ok());
  ASSERT_TRUE(system.DenyAccess("security", "repo", "push").ok());

  // The contractor inherits '+' via backend (distance 2) and '-' via
  // security (distance 1): most-specific denies, most-general depends
  // on the root default.
  EXPECT_EQ(system
                .CheckAccessByName("contractor", "repo", "push",
                                   ParseStrategy("LP+").value())
                .value(),
            Mode::kNegative);
  EXPECT_EQ(system
                .CheckAccessByName("contractor", "repo", "push",
                                   ParseStrategy("D+GP-").value())
                .value(),
            Mode::kPositive)
      << "company root defaults '+' at the greatest distance";
  // Alice only inherits the engineering grant.
  EXPECT_EQ(system
                .CheckAccessByName("alice", "repo", "push",
                                   ParseStrategy("LP-").value())
                .value(),
            Mode::kPositive);
}

TEST(IntegrationTest, AcmRoundTripPreservesDecisions) {
  auto dag = graph::FromEdgeListText(kOrgText);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId repo = eacm.InternObject("repo").value();
  const acm::RightId push = eacm.InternRight("push").value();
  ASSERT_TRUE(
      eacm.Set(dag->FindNode("engineering"), repo, push, Mode::kPositive)
          .ok());
  ASSERT_TRUE(
      eacm.Set(dag->FindNode("security"), repo, push, Mode::kNegative).ok());

  const std::string acm_text = acm::ToText(eacm, *dag);
  auto reread = acm::FromText(acm_text, *dag);
  ASSERT_TRUE(reread.ok());

  const graph::NodeId contractor = dag->FindNode("contractor");
  for (const Strategy& s : core::AllStrategies()) {
    auto a = core::ResolveAccess(*dag, eacm, contractor, repo, push, s);
    auto b = core::ResolveAccess(*dag, *reread, contractor,
                                 reread->FindObject("repo").value(),
                                 reread->FindRight("push").value(), s);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << s.ToMnemonic();
  }
}

TEST(IntegrationTest, PropagationModesChangeOutcomes) {
  auto dag = graph::FromEdgeListText(kOrgText);
  ASSERT_TRUE(dag.ok());
  acm::ExplicitAcm eacm;
  const acm::ObjectId repo = eacm.InternObject("repo").value();
  const acm::RightId push = eacm.InternRight("push").value();
  // company grants; security denies. contractor: company's '+' passes
  // through unlabeled engineering/backend but is blocked by labeled
  // security under kSecondWins.
  ASSERT_TRUE(
      eacm.Set(dag->FindNode("company"), repo, push, Mode::kPositive).ok());
  ASSERT_TRUE(
      eacm.Set(dag->FindNode("security"), repo, push, Mode::kNegative).ok());
  const graph::NodeId contractor = dag->FindNode("contractor");
  const Strategy gp_minus = ParseStrategy("GP-").value();

  core::ResolveAccessOptions both;  // Paper default.
  auto mode_both = core::ResolveAccess(*dag, eacm, contractor, repo, push,
                                       gp_minus, both);
  ASSERT_TRUE(mode_both.ok());
  // Farthest tuple: company's '+' at distance 3 via backend.
  EXPECT_EQ(*mode_both, Mode::kPositive);

  core::ResolveAccessOptions second;
  second.propagation_mode = core::PropagationMode::kSecondWins;
  auto mode_second = core::ResolveAccess(*dag, eacm, contractor, repo, push,
                                         gp_minus, second);
  ASSERT_TRUE(mode_second.ok());
  EXPECT_EQ(*mode_second, Mode::kPositive)
      << "company '+' still reaches via the unlabeled backend chain";

  // Deny engineering instead: now every path from company to the
  // contractor crosses a labeled node, so under kSecondWins only the
  // near labels survive and the globality decision flips.
  eacm.Overwrite(dag->FindNode("engineering"), repo, push, Mode::kNegative);
  auto flipped = core::ResolveAccess(*dag, eacm, contractor, repo, push,
                                     gp_minus, second);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(*flipped, Mode::kNegative);
  auto unflipped = core::ResolveAccess(*dag, eacm, contractor, repo, push,
                                       gp_minus, both);
  ASSERT_TRUE(unflipped.ok());
  EXPECT_EQ(*unflipped, Mode::kPositive)
      << "kBoth still lets company's '+' through at distance 3";
}

TEST(IntegrationTest, EnterpriseCrossEngineAgreement) {
  Random rng(31337);
  workload::EnterpriseOptions opt;
  opt.individuals = 40;
  opt.groups = 120;
  opt.top_level_groups = 5;
  opt.max_group_depth = 5;
  opt.target_edges = 360;
  auto dag = workload::GenerateEnterpriseHierarchy(opt, rng);
  ASSERT_TRUE(dag.ok());

  acm::ExplicitAcm eacm;
  const acm::ObjectId o = eacm.InternObject("vault").value();
  const acm::RightId r = eacm.InternRight("open").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.05;
  assign.negative_fraction = 0.4;
  ASSERT_TRUE(
      acm::AssignRandomAuthorizations(*dag, o, r, assign, rng, &eacm).ok());

  // Native aggregated vs literal vs Dominance on the D*LP* family,
  // across a sample of sinks.
  const auto sinks = dag->Sinks();
  for (size_t i = 0; i < sinks.size(); i += 4) {
    const graph::NodeId sink = sinks[i];
    for (const char* mnemonic : {"D+LP-", "D-LP+", "LP-"}) {
      const Strategy s = ParseStrategy(mnemonic).value();
      auto aggregated = core::ResolveAccess(*dag, eacm, sink, o, r, s);
      auto literal = core::ResolveLiteral(*dag, eacm, sink, o, r, s);
      auto dominance = core::DominanceAccess(*dag, eacm, sink, o, r,
                                             s.default_rule,
                                             s.preference_rule);
      ASSERT_TRUE(aggregated.ok());
      ASSERT_TRUE(literal.ok());
      ASSERT_TRUE(dominance.ok());
      EXPECT_EQ(*aggregated, *literal) << mnemonic;
      EXPECT_EQ(*aggregated, *dominance) << mnemonic;
    }
  }
}

TEST(IntegrationTest, EffectiveColumnConsistentWithRelalgReference) {
  auto dag = graph::FromEdgeListText(kOrgText);
  ASSERT_TRUE(dag.ok());
  core::AccessControlSystem system(std::move(dag).value());
  ASSERT_TRUE(system.Grant("company", "wiki", "edit").ok());
  ASSERT_TRUE(system.DenyAccess("frontend", "wiki", "edit").ok());

  const acm::ObjectId wiki = system.eacm().FindObject("wiki").value();
  const acm::RightId edit = system.eacm().FindRight("edit").value();
  const Strategy s = ParseStrategy("D-LP-").value();
  auto column = core::MaterializeEffectiveColumn(system, wiki, edit, s);
  ASSERT_TRUE(column.ok());

  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    auto reference = core::ResolveAccessRelalg(system.dag(), system.eacm(),
                                               v, wiki, edit, s);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ((*column)[v], *reference) << system.dag().name(v);
  }
}

}  // namespace
}  // namespace ucr
