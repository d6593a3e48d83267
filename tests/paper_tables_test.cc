// Golden tests reproducing every table of the paper from the Fig. 1
// fixture: Table 1 (allRights of User), Table 2 (all 48 strategy
// outcomes), Table 3 (Resolve() traces), and Table 4 (the full
// propagation relation P). These are the strongest fidelity checks in
// the suite: a semantic drift in propagation or resolution breaks an
// exact published artifact.

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <algorithm>

#include <gtest/gtest.h>

#include "acm/mode.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/ancestor_subgraph.h"
#include "paper/paper_example.h"

namespace ucr::core {
namespace {

using acm::Mode;
using acm::PropagatedMode;

class PaperTablesTest : public ::testing::Test {
 protected:
  PaperTablesTest() : ex_(MakePaperExample()), sub_(ex_.dag, ex_.user) {
    labels_ = ex_.eacm.ExtractLabels(ex_.dag.node_count(), ex_.obj, ex_.read);
  }

  RightsBag UserAllRights() {
    return PropagateAggregated(sub_, labels_);
  }

  PaperExample ex_;
  graph::AncestorSubgraph sub_;
  std::vector<std::optional<Mode>> labels_;
};

// Figure 3: the sub-hierarchy of User contains exactly
// {S1, S2, S3, S5, S6, User} with S1, S2, S6 as roots.
TEST_F(PaperTablesTest, Figure3SubgraphShape) {
  EXPECT_EQ(sub_.member_count(), 6u);
  EXPECT_EQ(sub_.edge_count(), 7u);
  std::vector<std::string> member_names;
  for (graph::LocalId v = 0; v < sub_.member_count(); ++v) {
    member_names.push_back(ex_.dag.name(sub_.global_id(v)));
  }
  std::sort(member_names.begin(), member_names.end());
  EXPECT_EQ(member_names, (std::vector<std::string>{"S1", "S2", "S3", "S5",
                                                    "S6", "User"}));
  std::vector<std::string> root_names;
  for (graph::LocalId r : sub_.roots()) {
    root_names.push_back(ex_.dag.name(sub_.global_id(r)));
  }
  std::sort(root_names.begin(), root_names.end());
  EXPECT_EQ(root_names, (std::vector<std::string>{"S1", "S2", "S6"}));
  EXPECT_EQ(ex_.dag.name(sub_.global_id(sub_.sink())), "User");
}

// Table 1: all read authorizations of User on obj.
TEST_F(PaperTablesTest, Table1AllRightsOfUser) {
  RightsBag expected;
  expected.Add(1, PropagatedMode::kNegative);  // S5's '-' at distance 1.
  expected.Add(1, PropagatedMode::kDefault);   // S6 direct.
  expected.Add(2, PropagatedMode::kDefault);   // S6 via S5.
  expected.Add(1, PropagatedMode::kPositive);  // S2 direct.
  expected.Add(3, PropagatedMode::kPositive);  // S2 via S3, S5.
  expected.Add(3, PropagatedMode::kDefault);   // S1 via S3, S5.
  expected.Normalize();
  EXPECT_EQ(UserAllRights(), expected)
      << "got " << UserAllRights().ToString();
}

// Table 1 must come out identically from the literal engine.
TEST_F(PaperTablesTest, Table1LiteralEngineAgrees) {
  auto literal = PropagateLiteral(sub_, labels_);
  ASSERT_TRUE(literal.ok()) << literal.status().ToString();
  EXPECT_EQ(*literal, UserAllRights());
}

// Table 4: the entire propagation relation P over the sub-hierarchy.
TEST_F(PaperTablesTest, Table4FullPropagationRelation) {
  auto all = PropagateLiteralAll(sub_, labels_);
  ASSERT_TRUE(all.ok());

  // (subject, dis, mode) -> multiplicity; Table 4 lists 15 tuples, all
  // with multiplicity 1.
  std::map<std::tuple<std::string, uint32_t, char>, uint64_t> got;
  for (graph::LocalId v = 0; v < sub_.member_count(); ++v) {
    const std::string name = ex_.dag.name(sub_.global_id(v));
    for (const RightsEntry& e : (*all)[v].entries()) {
      got[{name, e.dis, acm::PropagatedModeToChar(e.mode)}] += e.multiplicity;
    }
  }

  const std::vector<std::tuple<std::string, uint32_t, char>> expected = {
      {"S2", 0, '+'},   {"S5", 0, '-'},   {"S1", 0, 'd'},  {"S6", 0, 'd'},
      {"User", 1, '+'}, {"S3", 1, '+'},   {"User", 1, '-'}, {"S3", 1, 'd'},
      {"User", 1, 'd'}, {"S5", 1, 'd'},   {"S5", 2, '+'},  {"S5", 2, 'd'},
      {"User", 2, 'd'}, {"User", 3, '+'}, {"User", 3, 'd'},
  };
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& key : expected) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << "missing tuple (" << std::get<0>(key) << ", " << std::get<1>(key)
        << ", " << std::get<2>(key) << ")";
    EXPECT_EQ(it->second, 1u);
  }
}

// Table 2: the resolved mode of <User, obj, read> for each of the 48
// strategy instances.
TEST_F(PaperTablesTest, Table2AllFortyEightStrategies) {
  const std::vector<std::pair<std::string, char>> expected = {
      // Column 1 of Table 2.
      {"D+LMP+", '+'}, {"D+LMP-", '+'}, {"D-LMP+", '-'}, {"D-LMP-", '-'},
      {"D+GMP+", '+'}, {"D+GMP-", '+'}, {"D-GMP+", '+'}, {"D-GMP-", '-'},
      {"D+MP+", '+'},  {"D+MP-", '+'},  {"D-MP+", '-'},  {"D-MP-", '-'},
      // Column 2.
      {"D+LP+", '+'},  {"D+LP-", '-'},  {"D-LP+", '+'},  {"D-LP-", '-'},
      {"D+GP+", '+'},  {"D+GP-", '+'},  {"D-GP+", '+'},  {"D-GP-", '-'},
      {"D+P+", '+'},   {"D+P-", '-'},   {"D-P+", '+'},   {"D-P-", '-'},
      // Column 3.
      {"LMP+", '+'},   {"LMP-", '-'},   {"GMP+", '+'},   {"GMP-", '+'},
      {"MP+", '+'},    {"MP-", '+'},    {"LP+", '+'},    {"LP-", '-'},
      {"GP+", '+'},    {"GP-", '+'},    {"P+", '+'},     {"P-", '-'},
      // Column 4.
      {"D+MLP+", '+'}, {"D+MLP-", '+'}, {"D-MLP+", '-'}, {"D-MLP-", '-'},
      {"D+MGP+", '+'}, {"D+MGP-", '+'}, {"D-MGP+", '-'}, {"D-MGP-", '-'},
      {"MLP+", '+'},   {"MLP-", '+'},   {"MGP+", '+'},   {"MGP-", '+'},
  };
  ASSERT_EQ(expected.size(), 48u);

  const RightsBag bag = UserAllRights();
  for (const auto& [mnemonic, want] : expected) {
    auto strategy = ParseStrategy(mnemonic);
    ASSERT_TRUE(strategy.ok()) << mnemonic;
    const Mode got = Resolve(bag, *strategy);
    EXPECT_EQ(acm::ModeToChar(got), want) << "strategy " << mnemonic;
  }
}

struct TraceExpectation {
  std::string mnemonic;
  std::string c1;
  std::string c2;
  std::string auth;
  char mode;
  int line;
};

// Table 3: the execution trace of Resolve() for eight illustrative
// strategies. One published row (MGP-) is internally inconsistent with
// Fig. 4 and with the paper's own §3 prose, which counts "two +'s
// (rows 4 and 5) as opposed to only one -" for the same strategy; we
// assert the Fig. 4 semantics (c1=2, c2=1) — same resolved mode and
// returning line as the paper.
TEST_F(PaperTablesTest, Table3ResolveTraces) {
  const std::vector<TraceExpectation> expected = {
      {"D+LMP+", "2", "1", "n/a", '+', 6},
      {"D-GMP-", "1", "1", "+,-", '-', 9},
      {"D-MP-", "2", "4", "n/a", '-', 6},
      {"D-LP+", "n/a", "n/a", "+,-", '+', 9},
      {"D+GP-", "n/a", "n/a", "+", '+', 8},
      {"GMP-", "1", "0", "n/a", '+', 6},
      {"P-", "n/a", "n/a", "+,-", '-', 9},
      {"MGP-", "2", "1", "n/a", '+', 6},  // Paper's row says c1=1, c2=0.
  };

  const RightsBag bag = UserAllRights();
  for (const auto& e : expected) {
    auto strategy = ParseStrategy(e.mnemonic);
    ASSERT_TRUE(strategy.ok()) << e.mnemonic;
    ResolveTrace trace;
    const Mode got = Resolve(bag, *strategy, &trace);
    EXPECT_EQ(trace.C1ToString(), e.c1) << e.mnemonic;
    EXPECT_EQ(trace.C2ToString(), e.c2) << e.mnemonic;
    EXPECT_EQ(trace.AuthToString(), e.auth) << e.mnemonic;
    EXPECT_EQ(acm::ModeToChar(got), e.mode) << e.mnemonic;
    EXPECT_EQ(trace.returned_line, e.line) << e.mnemonic;
  }
}

// §1.1's referee scenario: with the S1 -> S2 edge and '+' on S1, the
// "most global takes precedence" strategy lets User referee (grants),
// even under a negative preference, while most-specific still leaves
// the decision to the preference rule.
TEST(RefereeExampleTest, GlobalityGrantsUser) {
  PaperExample ex = MakeRefereeExample();
  const graph::AncestorSubgraph sub(ex.dag, ex.user);
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);
  const RightsBag bag = PropagateAggregated(sub, labels);

  auto gp_minus = ParseStrategy("D+GP-");
  ASSERT_TRUE(gp_minus.ok());
  EXPECT_EQ(Resolve(bag, *gp_minus), Mode::kPositive);

  auto lp_minus = ParseStrategy("D+LP-");
  ASSERT_TRUE(lp_minus.ok());
  // Most specific: S2's '+' and S5's '-' are both at distance 1 —
  // conflict; preference '-' denies.
  EXPECT_EQ(Resolve(bag, *lp_minus), Mode::kNegative);
}

}  // namespace
}  // namespace ucr::core
