// Quickstart: the paper's motivating example (Fig. 1) end to end.
//
// Builds the nine-subject hierarchy, grants/denies the explicit
// authorizations, shows the propagated allRights relation (Table 1),
// and resolves User's access under every conflict-resolution strategy
// (Table 2) — demonstrating the single parametric algorithm the paper
// proposes: one system, 48 strategies, no reinstallation.
//
// Run:  ./quickstart

#include <cstdio>
#include <iostream>

#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/ancestor_subgraph.h"
#include "paper/paper_example.h"
#include "util/table_printer.h"

int main() {
  using namespace ucr;  // NOLINT(build/namespaces): example brevity.

  // ---- 1. The subject hierarchy and explicit authorizations --------
  core::PaperExample ex = core::MakePaperExample();
  std::cout << "Subject hierarchy (Fig. 1): " << ex.dag.node_count()
            << " subjects, " << ex.dag.edge_count() << " membership edges\n"
            << "Explicit authorizations: S2:+  S4:+  S5:-  on <obj, read>\n\n";

  // ---- 2. Propagation (Steps 1-3): User's allRights (Table 1) ------
  const graph::AncestorSubgraph sub(ex.dag, ex.user);
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);
  const core::RightsBag all_rights = core::PropagateAggregated(sub, labels);

  TablePrinter table1({"subject", "object", "right", "dis", "mode"});
  for (const core::RightsEntry& e : all_rights.entries()) {
    for (uint64_t i = 0; i < e.multiplicity; ++i) {
      table1.AddRow({"User", "obj", "read", std::to_string(e.dis),
                     std::string(1, acm::PropagatedModeToChar(e.mode))});
    }
  }
  std::cout << "All read authorizations of User on obj (paper Table 1):\n";
  table1.Print(std::cout);

  // ---- 3. Resolution (Step 4) under every strategy (Table 2) -------
  std::cout << "\nResolved mode per strategy instance (paper Table 2):\n";
  TablePrinter table2({"strategy", "mode", "decided by (Fig. 4 line)"});
  for (const core::Strategy& s : core::AllStrategies()) {
    core::ResolveTrace trace;
    const acm::Mode mode = core::Resolve(all_rights, s, &trace);
    const char* decided = trace.returned_line == 6   ? "majority (6)"
                          : trace.returned_line == 8 ? "locality (8)"
                                                     : "preference (9)";
    table2.AddRow({s.ToMnemonic(), std::string(1, acm::ModeToChar(mode)),
                   decided});
  }
  table2.Print(std::cout);

  // ---- 4. The facade: switch strategies at run time ----------------
  core::AccessControlSystem system(ex.dag);
  (void)system.Grant("S2", "obj", "read");
  (void)system.Grant("S4", "obj", "read");
  (void)system.DenyAccess("S5", "obj", "read");

  std::cout << "\nRuntime strategy switching (no reinstall):\n";
  for (const char* mnemonic : {"D+LP-", "D+GP-", "D+LMP+", "MP-"}) {
    auto strategy = core::ParseStrategy(mnemonic);
    if (!strategy.ok()) continue;
    system.SetStrategy(*strategy);
    auto decision = system.CheckAccessByName("User", "obj", "read");
    if (!decision.ok()) {
      std::cerr << "query failed: " << decision.status().ToString() << "\n";
      return 1;
    }
    std::printf("  strategy %-7s -> User %s read obj\n", mnemonic,
                *decision == acm::Mode::kPositive ? "MAY" : "may NOT");
  }
  return 0;
}
