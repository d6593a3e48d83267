#include "paper/audit.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "core/system.h"
#include "paper/effective_matrix.h"
#include "paper/paper_example.h"

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
  return system;
}

TEST(CompareStrategiesTest, UserGainsUnderGlobality) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  // Table 2: D+LP- denies User, D+GP- grants — migrating gains User.
  auto report =
      CompareStrategies(system, obj, read, S("D+LP-"), S("D+GP-"));
  ASSERT_TRUE(report.ok());
  bool user_gained = false;
  for (const MigrationDelta& d : report->gained) {
    if (system.dag().name(d.subject) == "User") user_gained = true;
  }
  EXPECT_TRUE(user_gained);
  EXPECT_EQ(report->granted_after,
            report->granted_before + report->gained.size() -
                report->lost.size());
}

TEST(CompareStrategiesTest, IdentityMigrationChangesNothing) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  auto report =
      CompareStrategies(system, obj, read, S("D-LMP+"), S("D-LMP+"));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->changed(), 0u);
  EXPECT_EQ(report->granted_before, report->granted_after);
}

TEST(CompareStrategiesTest, CountsMatchEffectiveColumns) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  const Strategy from = S("D-P-");
  const Strategy to = S("D+P+");
  auto report = CompareStrategies(system, obj, read, from, to);
  ASSERT_TRUE(report.ok());

  auto count_granted_sinks = [&](const Strategy& s) {
    auto column = MaterializeEffectiveColumn(system, obj, read, s).value();
    size_t granted = 0;
    for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
      if (system.dag().is_sink(v) && column[v] == Mode::kPositive) ++granted;
    }
    return granted;
  };
  EXPECT_EQ(report->granted_before, count_granted_sinks(from));
  EXPECT_EQ(report->granted_after, count_granted_sinks(to));
}

TEST(CompareStrategiesTest, SinksOnlyToggleWidensAudit) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  CompareOptions all;
  all.sinks_only = false;
  auto wide =
      CompareStrategies(system, obj, read, S("D-P-"), S("D+P+"), all);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->subjects_audited, system.dag().node_count());
}

TEST(CompareStrategiesTest, SummarizeMentionsNamesAndCounts) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  auto report =
      CompareStrategies(system, obj, read, S("D+LP-"), S("D+GP-"));
  ASSERT_TRUE(report.ok());
  const std::string summary = report->Summarize(system.dag());
  EXPECT_NE(summary.find("D+LP- -> D+GP-"), std::string::npos);
  EXPECT_NE(summary.find("User"), std::string::npos);
}

TEST(RankStrategiesTest, CoversAll48AndSortsDescending) {
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  auto ranking = RankStrategies(system, obj, read);
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking->size(), 48u);
  for (size_t i = 1; i < ranking->size(); ++i) {
    EXPECT_GE((*ranking)[i - 1].granted, (*ranking)[i].granted);
  }
}

TEST(RankStrategiesTest, PositivePreferenceNeverLessPermissive) {
  // Flipping P- to P+ only changes line-9 (conflict/empty) outcomes,
  // all of which flip toward grant: granted(X P+) >= granted(X P-).
  AccessControlSystem system = MakePaperSystem();
  const acm::ObjectId obj = system.eacm().FindObject("obj").value();
  const acm::RightId read = system.eacm().FindRight("read").value();
  auto ranking = RankStrategies(system, obj, read);
  ASSERT_TRUE(ranking.ok());
  std::map<std::string, size_t> by_name;
  for (const auto& entry : *ranking) {
    by_name[entry.strategy.ToMnemonic()] = entry.granted;
  }
  for (const Strategy& s : AllStrategies()) {
    if (s.preference_rule != PreferenceRule::kNegative) continue;
    Strategy twin = s;
    twin.preference_rule = PreferenceRule::kPositive;
    EXPECT_GE(by_name.at(twin.ToMnemonic()), by_name.at(s.ToMnemonic()))
        << s.ToMnemonic();
  }
}

}  // namespace
}  // namespace ucr::core
