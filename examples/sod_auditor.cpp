// SoD auditor: does switching the conflict-resolution strategy keep
// the organization compliant?
//
// Builds a payment workflow with a separation-of-duty rule (no one
// both submits and approves invoices) and a Chinese-wall
// conflict-of-interest class over client files, then audits the
// *effective* matrix under several strategies (paper/constraints.h,
// the paper's future-work #4) and prints a migration report
// (paper/audit.h). The punchline: compliance is a property of the
// strategy, not just of the explicit matrix — flip the paper's
// runtime switch carelessly and an auditor-approved configuration
// starts violating.
//
// Run:  ./sod_auditor

#include <cstdio>
#include <iostream>

#include "core/strategy.h"
#include "core/system.h"
#include "graph/io.h"
#include "paper/audit.h"
#include "paper/constraints.h"
#include "util/table_printer.h"

int main() {
  using namespace ucr;  // NOLINT(build/namespaces): example brevity.

  auto dag = graph::FromEdgeListText(
      "edge firm payments\n"
      "edge firm compliance\n"
      "edge payments clerks\n"
      "edge payments managers\n"
      "edge clerks carol\n"
      "edge clerks dave\n"
      "edge managers erin\n"
      "edge compliance erin\n"       // Erin wears two hats.
      "edge firm consultants\n"
      "edge consultants frank\n");
  if (!dag.ok()) {
    std::cerr << dag.status().ToString() << "\n";
    return 1;
  }
  core::AccessControlSystem system(std::move(dag).value());
  auto check = [](const Status& status) {
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      std::exit(1);
    }
  };
  // The explicit policy.
  check(system.Grant("clerks", "invoice", "submit"));
  check(system.Grant("managers", "invoice", "approve"));
  check(system.Grant("compliance", "invoice", "approve"));
  check(system.DenyAccess("consultants", "invoice", "submit"));
  check(system.Grant("consultants", "acme-files", "read"));
  check(system.Grant("frank", "globex-files", "read"));
  check(system.DenyAccess("firm", "globex-files", "read"));

  auto perm = [&](const char* object, const char* right) {
    return core::Permission{system.eacm().FindObject(object).value(),
                            system.eacm().FindRight(right).value()};
  };
  core::ConstraintSet constraints;
  check(constraints.AddSod({"submit-vs-approve", perm("invoice", "submit"),
                            perm("invoice", "approve")}));
  check(constraints.AddCoi({"client-wall",
                            {perm("acme-files", "read"),
                             perm("globex-files", "read")},
                            1}));

  std::cout << "Constraint audit under candidate strategies:\n\n";
  TablePrinter table({"strategy", "violations", "who (constraint)"});
  for (const char* mnemonic : {"D-LP-", "D-LP+", "LP-", "D+LP-", "D+P+"}) {
    auto strategy = core::ParseStrategy(mnemonic);
    check(strategy.status());
    auto violations = core::AuditConstraints(system, constraints, *strategy);
    check(violations.status());
    std::string who;
    for (size_t i = 0; i < violations->size() && i < 4; ++i) {
      if (i > 0) who += ", ";
      who += system.dag().name((*violations)[i].subject) + " (" +
             (*violations)[i].constraint_name + ")";
    }
    if (violations->size() > 4) who += ", ...";
    table.AddRow({mnemonic, std::to_string(violations->size()), who});
  }
  table.Print(std::cout);

  // What would the migration the CISO wants actually change?
  const core::Strategy from = core::ParseStrategy("D-LP-").value();
  const core::Strategy to = core::ParseStrategy("D+P+").value();
  auto report = core::CompareStrategies(
      system, system.eacm().FindObject("invoice").value(),
      system.eacm().FindRight("approve").value(), from, to);
  check(report.status());
  std::cout << "\nMigration impact on <invoice, approve>:\n  "
            << report->Summarize(system.dag()) << "\n";

  auto ranking = core::RankStrategies(
      system, system.eacm().FindObject("invoice").value(),
      system.eacm().FindRight("approve").value());
  check(ranking.status());
  std::cout << "\nMost and least permissive strategies for <invoice, "
               "approve> (of all 48):\n";
  std::printf("  most:  %-7s grants %zu subjects\n",
              ranking->front().strategy.ToMnemonic().c_str(),
              ranking->front().granted);
  std::printf("  least: %-7s grants %zu subjects\n",
              ranking->back().strategy.ToMnemonic().c_str(),
              ranking->back().granted);
  return 0;
}
