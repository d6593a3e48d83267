#include "paper/constraints.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "core/system.h"
#include "graph/io.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

// finance: submits; audit: approves; chris sits in both teams.
AccessControlSystem MakeOrg() {
  auto dag = graph::FromEdgeListText(
      "edge company finance\n"
      "edge company audit\n"
      "edge finance alice\n"
      "edge finance chris\n"
      "edge audit bob\n"
      "edge audit chris\n");
  EXPECT_TRUE(dag.ok());
  AccessControlSystem system(std::move(dag).value());
  EXPECT_TRUE(system.Grant("finance", "invoice", "submit").ok());
  EXPECT_TRUE(system.Grant("audit", "invoice", "approve").ok());
  return system;
}

Permission Perm(const AccessControlSystem& system, const char* object,
                const char* right) {
  return Permission{system.eacm().FindObject(object).value(),
                    system.eacm().FindRight(right).value()};
}

TEST(ConstraintSetTest, ValidatesSod) {
  ConstraintSet set;
  const Permission a{0, 0};
  const Permission b{0, 1};
  EXPECT_FALSE(set.AddSod({"", a, b}).ok());
  EXPECT_FALSE(set.AddSod({"same", a, a}).ok());
  EXPECT_TRUE(set.AddSod({"ok", a, b}).ok());
  EXPECT_EQ(set.AddSod({"ok", a, b}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(set.size(), 1u);
}

TEST(ConstraintSetTest, ValidatesCoi) {
  ConstraintSet set;
  const Permission a{0, 0};
  const Permission b{0, 1};
  const Permission c{1, 0};
  EXPECT_FALSE(set.AddCoi({"few", {a}, 1}).ok());
  EXPECT_FALSE(set.AddCoi({"dup", {a, a, b}, 1}).ok());
  EXPECT_FALSE(set.AddCoi({"zero", {a, b}, 0}).ok());
  EXPECT_FALSE(set.AddCoi({"all", {a, b}, 2}).ok());
  EXPECT_TRUE(set.AddCoi({"ok", {a, b, c}, 1}).ok());
  EXPECT_EQ(set.AddSod({"ok", a, b}).code(), StatusCode::kAlreadyExists)
      << "names are shared across constraint kinds";
}

TEST(AuditConstraintsTest, FindsDualMembershipViolation) {
  AccessControlSystem system = MakeOrg();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints
                  .AddSod({"submit-vs-approve",
                           Perm(system, "invoice", "submit"),
                           Perm(system, "invoice", "approve")})
                  .ok());

  auto violations = AuditConstraints(system, constraints, S("D-LP+"));
  ASSERT_TRUE(violations.ok());
  ASSERT_EQ(violations->size(), 1u);
  EXPECT_EQ((*violations)[0].subject, system.dag().FindNode("chris"));
  EXPECT_EQ((*violations)[0].constraint_name, "submit-vs-approve");
  EXPECT_EQ((*violations)[0].granted.size(), 2u);
}

TEST(AuditConstraintsTest, StrategyChangesCompliance) {
  // Under an open default (D+) *everyone* is effectively granted both
  // permissions (no denials exist), so every user violates; under a
  // closed default only chris does.
  AccessControlSystem system = MakeOrg();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints
                  .AddSod({"sod", Perm(system, "invoice", "submit"),
                           Perm(system, "invoice", "approve")})
                  .ok());

  auto closed = AuditConstraints(system, constraints, S("D-LP+"));
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->size(), 1u);

  auto open = AuditConstraints(system, constraints, S("D+LP+"));
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->size(), 3u) << "alice, bob, chris all pick up the root "
                                 "default grant";
}

TEST(AuditConstraintsTest, SinksOnlyToggle) {
  AccessControlSystem system = MakeOrg();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints
                  .AddSod({"sod", Perm(system, "invoice", "submit"),
                           Perm(system, "invoice", "approve")})
                  .ok());
  AuditOptions options;
  options.sinks_only = false;
  auto all = AuditConstraints(system, constraints, S("D+LP+"), options);
  ASSERT_TRUE(all.ok());
  // Every subject including groups and the root violates under D+.
  EXPECT_EQ(all->size(), system.dag().node_count());
}

TEST(AuditConstraintsTest, CoiClassCounting) {
  auto dag = graph::FromEdgeListText(
      "edge consultants dana\n"
      "edge consultants emil\n");
  ASSERT_TRUE(dag.ok());
  AccessControlSystem system(std::move(dag).value());
  // dana works for two competitors; emil for one.
  ASSERT_TRUE(system.Grant("dana", "acme-files", "read").ok());
  ASSERT_TRUE(system.Grant("dana", "globex-files", "read").ok());
  ASSERT_TRUE(system.Grant("emil", "acme-files", "read").ok());
  ASSERT_TRUE(system.Grant("consultants", "initech-files", "read").ok());

  ConstraintSet constraints;
  ASSERT_TRUE(constraints
                  .AddCoi({"chinese-wall",
                           {Perm(system, "acme-files", "read"),
                            Perm(system, "globex-files", "read"),
                            Perm(system, "initech-files", "read")},
                           2})
                  .ok());
  auto violations = AuditConstraints(system, constraints, S("LP-"));
  ASSERT_TRUE(violations.ok());
  // dana holds acme + globex + inherited initech = 3 > 2; emil holds
  // acme + initech = 2 <= 2.
  ASSERT_EQ(violations->size(), 1u);
  EXPECT_EQ((*violations)[0].subject, system.dag().FindNode("dana"));
  EXPECT_EQ((*violations)[0].granted.size(), 3u);
}

TEST(AuditConstraintsTest, EmptyConstraintSetFindsNothing) {
  AccessControlSystem system = MakeOrg();
  auto violations = AuditConstraints(system, ConstraintSet{}, S("D+LP+"));
  ASSERT_TRUE(violations.ok());
  EXPECT_TRUE(violations->empty());
}

TEST(AuditConstraintsTest, DeterministicOrder) {
  AccessControlSystem system = MakeOrg();
  ConstraintSet constraints;
  ASSERT_TRUE(constraints
                  .AddSod({"sod", Perm(system, "invoice", "submit"),
                           Perm(system, "invoice", "approve")})
                  .ok());
  auto a = AuditConstraints(system, constraints, S("D+LP+"));
  auto b = AuditConstraints(system, constraints, S("D+LP+"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].subject, (*b)[i].subject);
    EXPECT_EQ((*a)[i].constraint_name, (*b)[i].constraint_name);
  }
}

}  // namespace
}  // namespace ucr::core
