// Enterprise audit: what changes if the company switches its conflict
// resolution strategy?
//
// Generates a Livelink-scale subject hierarchy (thousands of nested
// groups, ~1600 users), sprinkles explicit grants/denials on a
// document, then materializes the *effective* access control column
// under two strategies and reports exactly which users gain or lose
// access in the migration — the analysis a security administrator
// would run before flipping the switch the paper makes flippable.
//
// Run:  ./enterprise_audit [from-strategy] [to-strategy]
// E.g.: ./enterprise_audit D+LP- D-GP-

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "acm/assignment.h"
#include "core/strategy.h"
#include "core/system.h"
#include "paper/audit.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace {

constexpr uint64_t kSeed = 2007;  // Publication year; any seed works.

}  // namespace

int main(int argc, char** argv) {
  using namespace ucr;  // NOLINT(build/namespaces): example brevity.

  const std::string from_name = argc > 1 ? argv[1] : "D+LP-";
  const std::string to_name = argc > 2 ? argv[2] : "D-GP-";
  auto from = core::ParseStrategy(from_name);
  auto to = core::ParseStrategy(to_name);
  if (!from.ok() || !to.ok()) {
    std::cerr << "usage: enterprise_audit [from-strategy] [to-strategy]\n"
              << "strategies are paper mnemonics, e.g. D+LP- or MGP+\n";
    return 2;
  }

  // A mid-size enterprise (scaled from the paper's Livelink shape so
  // the audit finishes in about a second).
  Random rng(kSeed);
  workload::EnterpriseOptions shape;
  shape.individuals = 800;
  shape.groups = 2600;
  shape.top_level_groups = 30;
  shape.target_edges = 9000;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) {
    std::cerr << "generation failed: " << dag.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Hierarchy: " << dag->node_count() << " subjects, "
            << dag->edge_count() << " memberships, " << dag->Sinks().size()
            << " individual users\n";

  core::AccessControlSystem system(std::move(dag).value());

  // Explicit policy on one sensitive document: 1% of memberships'
  // source groups get a grant or denial (40% denials).
  acm::ExplicitAcm seed_acm;
  const acm::ObjectId doc = seed_acm.InternObject("q3-forecast.xls").value();
  const acm::RightId read = seed_acm.InternRight("read").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.01;
  assign.negative_fraction = 0.4;
  auto summary = acm::AssignRandomAuthorizations(system.dag(), doc, read,
                                                 assign, rng, &seed_acm);
  if (!summary.ok()) {
    std::cerr << summary.status().ToString() << "\n";
    return 1;
  }
  for (const auto& e : seed_acm.SortedEntries()) {
    const std::string& subject = system.dag().name(e.subject);
    const Status status =
        e.mode == acm::Mode::kPositive
            ? system.Grant(subject, "q3-forecast.xls", "read")
            : system.DenyAccess(subject, "q3-forecast.xls", "read");
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "Explicit authorizations: " << summary->subjects_labeled
            << " (" << summary->negatives << " denials)\n\n";

  // Diff the effective column between the two strategies using the
  // library's migration analysis (paper/audit.h).
  const acm::ObjectId obj = system.eacm().FindObject("q3-forecast.xls").value();
  const acm::RightId right = system.eacm().FindRight("read").value();
  auto report = core::CompareStrategies(system, obj, right, *from, *to);
  if (!report.ok()) {
    std::cerr << report.status().ToString() << "\n";
    return 1;
  }

  std::printf("Strategy migration %s -> %s on q3-forecast.xls:\n",
              from_name.c_str(), to_name.c_str());
  std::printf("  sinks with read access before: %zu / %zu\n",
              report->granted_before, report->subjects_audited);
  std::printf("  sinks with read access after:  %zu / %zu\n",
              report->granted_after, report->subjects_audited);
  std::printf("  net change: %+lld\n",
              static_cast<long long>(report->granted_after) -
                  static_cast<long long>(report->granted_before));
  std::cout << "  " << report->Summarize(system.dag()) << "\n";

  // And a quick map of the whole policy space for this document.
  auto ranking = core::RankStrategies(system, obj, right);
  if (!ranking.ok()) {
    std::cerr << ranking.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "\nPolicy-space spread across all 48 strategies: %zu (most "
      "permissive, %s)\n  down to %zu (least permissive, %s) granted "
      "sinks.\n",
      ranking->front().granted,
      ranking->front().strategy.ToMnemonic().c_str(),
      ranking->back().granted,
      ranking->back().strategy.ToMnemonic().c_str());
  return 0;
}
