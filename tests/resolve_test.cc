#include "core/resolve.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "paper/literal.h"
#include "paper/paper_example.h"

namespace ucr::core {
namespace {

using acm::Mode;
using acm::PropagatedMode;

Strategy S(const char* mnemonic) {
  auto s = ParseStrategy(mnemonic);
  EXPECT_TRUE(s.ok()) << mnemonic;
  return *s;
}

RightsBag Bag(std::initializer_list<std::tuple<uint32_t, char, uint64_t>>
                  entries) {
  RightsBag bag;
  for (const auto& [dis, mode, mult] : entries) {
    PropagatedMode pm = mode == '+'   ? PropagatedMode::kPositive
                        : mode == '-' ? PropagatedMode::kNegative
                                      : PropagatedMode::kDefault;
    bag.Add(dis, pm, mult);
  }
  bag.Normalize();
  return bag;
}

TEST(ResolveTest, EmptyBagFallsToPreference) {
  ResolveTrace trace;
  EXPECT_EQ(Resolve(Bag({}), S("P+"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 9);
  EXPECT_EQ(Resolve(Bag({}), S("D-LMP-")), Mode::kNegative);
}

TEST(ResolveTest, DroppedDefaultsLeaveEmptyBag) {
  // Only 'd' tuples + dRule "0": everything is dropped; preference
  // decides (the paper: "for non-root nodes only the preference policy
  // is deterministic").
  const RightsBag bag = Bag({{1, 'd', 1}, {2, 'd', 1}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("LP+"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 9);
  EXPECT_EQ(trace.AuthToString(), "{}");
}

TEST(ResolveTest, DefaultRewriteWinsAlone) {
  const RightsBag bag = Bag({{1, 'd', 1}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("D+P-"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 8);  // Single surviving authorization.
  EXPECT_EQ(Resolve(bag, S("D-P+")), Mode::kNegative);
}

TEST(ResolveTest, SingleExplicitModeReturnsAtLine8) {
  const RightsBag bag = Bag({{2, '+', 3}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("P-"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 8);
  EXPECT_FALSE(trace.c1.has_value());
  EXPECT_EQ(trace.AuthToString(), "+");
}

TEST(ResolveTest, MajorityCountsMultiplicities) {
  // One '+' group with multiplicity 3 vs three '-' groups of 1 each:
  // counting groups would give 1 vs 3; counting tuples gives 3 vs 3 —
  // a tie that must fall through to preference.
  const RightsBag bag =
      Bag({{1, '+', 3}, {2, '-', 1}, {3, '-', 1}, {4, '-', 1}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("MP+"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 9);
  EXPECT_EQ(*trace.c1, 3u);
  EXPECT_EQ(*trace.c2, 3u);
}

TEST(ResolveTest, StrictMajorityDecides) {
  const RightsBag bag = Bag({{1, '+', 4}, {2, '-', 3}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("MP-"), &trace), Mode::kPositive);
  EXPECT_EQ(trace.returned_line, 6);
}

TEST(ResolveTest, MajorityAfterLocalityCountsFilteredBag) {
  // Globally '-' dominates 4:2, but at the minimum distance '+' wins
  // 2:1 — LMP must grant, MLP must deny.
  const RightsBag bag = Bag({{1, '+', 2}, {1, '-', 1}, {5, '-', 3}});
  EXPECT_EQ(Resolve(bag, S("LMP-")), Mode::kPositive);
  EXPECT_EQ(Resolve(bag, S("MLP+")), Mode::kNegative);
}

TEST(ResolveTest, LocalityMinPicksNearest) {
  const RightsBag bag = Bag({{1, '-', 1}, {4, '+', 10}});
  EXPECT_EQ(Resolve(bag, S("LP+")), Mode::kNegative);
}

TEST(ResolveTest, LocalityMaxPicksFarthest) {
  const RightsBag bag = Bag({{1, '-', 10}, {4, '+', 1}});
  EXPECT_EQ(Resolve(bag, S("GP-")), Mode::kPositive);
}

TEST(ResolveTest, LocalityTieAtSameDistanceFallsToPreference) {
  const RightsBag bag = Bag({{2, '-', 1}, {2, '+', 1}});
  ResolveTrace trace;
  EXPECT_EQ(Resolve(bag, S("LP-"), &trace), Mode::kNegative);
  EXPECT_EQ(trace.returned_line, 9);
  EXPECT_EQ(trace.AuthToString(), "+,-");
}

TEST(ResolveTest, DefaultsParticipateInMajorityAfterRewrite) {
  // Two 'd' + one '-': with D+ the defaults become '+' and win 2:1;
  // with D- they reinforce '-'.
  const RightsBag bag = Bag({{1, 'd', 2}, {1, '-', 1}});
  EXPECT_EQ(Resolve(bag, S("D+MP-")), Mode::kPositive);
  EXPECT_EQ(Resolve(bag, S("D-MP+")), Mode::kNegative);
}

TEST(ResolveTest, DefaultsMergeWithEqualDistanceExplicit) {
  // 'd' at dis 1 rewritten to '+' must merge with the explicit '+'
  // at dis 1 (multiplicity 2), beating the single '-' at dis 1.
  const RightsBag bag = Bag({{1, 'd', 1}, {1, '+', 1}, {1, '-', 1}});
  EXPECT_EQ(Resolve(bag, S("D+LMP-")), Mode::kPositive);
}

TEST(ResolveTest, NonCanonicalStrategyIsNormalized) {
  Strategy alias;  // identity locality...
  alias.majority_rule = MajorityRule::kAfter;  // ...with "after": alias.
  alias.preference_rule = PreferenceRule::kPositive;
  const RightsBag bag = Bag({{1, '+', 2}, {3, '-', 1}});
  Strategy canonical = alias.Canonical();
  EXPECT_EQ(Resolve(bag, alias), Resolve(bag, canonical));
}

TEST(ResolveTest, TraceIsResetBetweenRuns) {
  ResolveTrace trace;
  Resolve(Bag({{1, '+', 2}, {1, '-', 1}}), S("MP-"), &trace);
  EXPECT_TRUE(trace.c1.has_value());
  Resolve(Bag({{1, '+', 1}}), S("P-"), &trace);
  EXPECT_FALSE(trace.c1.has_value()) << "stale counters must be cleared";
  EXPECT_EQ(trace.returned_line, 8);
}

TEST(ResolveAccessTest, EndToEndOnPaperExample) {
  const PaperExample ex = MakePaperExample();
  auto mode = ResolveAccess(ex.dag, ex.eacm, ex.user, ex.obj, ex.read,
                            S("D+LMP+"));
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, Mode::kPositive);

  auto mode2 = ResolveLiteral(ex.dag, ex.eacm, ex.user, ex.obj, ex.read,
                              S("D+LMP+"));
  ASSERT_TRUE(mode2.ok());
  EXPECT_EQ(*mode2, *mode);
}

TEST(ResolveAccessTest, ValidatesIds) {
  const PaperExample ex = MakePaperExample();
  EXPECT_EQ(ResolveAccess(ex.dag, ex.eacm, 999, ex.obj, ex.read, S("P-"))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ResolveAccess(ex.dag, ex.eacm, ex.user, 99, ex.read, S("P-"))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ResolveAccess(ex.dag, ex.eacm, ex.user, ex.obj, 99, S("P-"))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(ResolveAccessTest, LiteralBudgetSurfaces) {
  const PaperExample ex = MakePaperExample();
  // Table 4 needs 15 tuples; a budget of 2 must refuse.
  EXPECT_EQ(ResolveLiteral(ex.dag, ex.eacm, ex.user, ex.obj, ex.read, S("P-"),
                           PropagationMode::kBoth, /*max_tuples=*/2)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// Every strategy is deterministic: equal inputs give equal outputs,
// and the result is always one of the two modes (total function).
TEST(ResolveTest, TotalAndDeterministicForAll48) {
  const RightsBag bag =
      Bag({{1, '-', 1}, {1, 'd', 1}, {2, 'd', 1}, {1, '+', 1},
           {3, '+', 1}, {3, 'd', 1}});
  for (const Strategy& s : AllStrategies()) {
    const Mode first = Resolve(bag, s);
    const Mode second = Resolve(bag, s);
    EXPECT_EQ(first, second) << s.ToMnemonic();
  }
}

}  // namespace
}  // namespace ucr::core
