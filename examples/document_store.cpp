// Document store: mixed subject AND object hierarchies (the paper's
// §6 future-work #2, implemented in paper/mixed.h).
//
// Subjects: a small company; objects: a shared drive whose folders
// nest and *cross-link* (a release folder appears under both
// engineering and legal — object hierarchies are DAGs too).
// Authorizations attach to (group, folder) pairs and propagate down
// both hierarchies at once; "most specific" ranks joint specificity
// (subject distance + object distance).
//
// Run:  ./document_store

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/strategy.h"
#include "graph/dag.h"
#include "paper/mixed.h"
#include "util/table_printer.h"

int main() {
  using namespace ucr;  // NOLINT(build/namespaces): example brevity.

  // ---- Subject hierarchy -------------------------------------------
  graph::DagBuilder sb;
  auto check = [](const Status& status) {
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      std::exit(1);
    }
  };
  check(sb.AddEdge("company", "engineering"));
  check(sb.AddEdge("company", "legal"));
  check(sb.AddEdge("engineering", "eve"));
  check(sb.AddEdge("legal", "lara"));
  check(sb.AddEdge("engineering", "mallory"));
  check(sb.AddEdge("legal", "mallory"));  // In both departments.
  auto subjects_or = std::move(sb).Build();
  if (!subjects_or.ok()) return 1;
  const graph::Dag subjects = std::move(subjects_or).value();

  // ---- Object hierarchy (folders are a DAG: cross-linked) ----------
  graph::DagBuilder ob;
  check(ob.AddEdge("drive", "eng-docs"));
  check(ob.AddEdge("drive", "legal-docs"));
  check(ob.AddEdge("eng-docs", "release"));
  check(ob.AddEdge("legal-docs", "release"));  // Linked in both trees.
  check(ob.AddEdge("release", "launch-plan.md"));
  check(ob.AddEdge("eng-docs", "design.md"));
  auto objects_or = std::move(ob).Build();
  if (!objects_or.ok()) return 1;
  const graph::Dag objects = std::move(objects_or).value();

  // ---- Pair authorizations -----------------------------------------
  const std::vector<core::MixedAuthorization> auths{
      {subjects.FindNode("engineering"), objects.FindNode("eng-docs"),
       acm::Mode::kPositive},
      {subjects.FindNode("legal"), objects.FindNode("legal-docs"),
       acm::Mode::kPositive},
      {subjects.FindNode("company"), objects.FindNode("release"),
       acm::Mode::kNegative},  // Releases frozen company-wide...
      {subjects.FindNode("legal"), objects.FindNode("release"),
       acm::Mode::kPositive},  // ...except for legal review.
  };

  std::cout
      << "Mixed-hierarchy resolution: authorization distance = subject "
         "hops + object hops.\n\n";

  const struct {
    const char* who;
    const char* what;
  } queries[] = {
      {"eve", "design.md"},       {"eve", "launch-plan.md"},
      {"lara", "launch-plan.md"}, {"mallory", "launch-plan.md"},
  };

  TablePrinter table({"subject", "object", "D+LP-", "D+GP-", "allRights"});
  for (const auto& q : queries) {
    const graph::NodeId s = subjects.FindNode(q.who);
    const graph::NodeId o = objects.FindNode(q.what);
    auto bag = core::MixedPropagate(subjects, objects, auths, s, o);
    if (!bag.ok()) {
      std::cerr << bag.status().ToString() << "\n";
      return 1;
    }
    std::string row[2];
    for (int i = 0; i < 2; ++i) {
      auto strategy = core::ParseStrategy(i == 0 ? "D+LP-" : "D+GP-");
      auto mode = core::Resolve(*bag, *strategy);
      row[i] = std::string(1, acm::ModeToChar(mode));
    }
    table.AddRow({q.who, q.what, row[0], row[1], bag->ToString()});
  }
  table.Print(std::cout);

  std::cout
      << "\nReading the launch-plan row for lara: legal's '+' on the "
         "release folder is\n2 hops away (legal->lara, "
         "release->launch-plan.md), the company-wide '-' is\n3 hops — so "
         "most-specific grants her review access while the same data "
         "under\nmost-general (D+GP-) answers with the farthest "
         "authorization instead.\n";
  return 0;
}
