// Strategy explorer: an interactive-grade CLI over the public API.
//
// Loads a subject hierarchy (edge-list file) and an explicit matrix
// (auth file), then answers one access query under one strategy — or
// under all 48 when asked — printing the Resolve() trace so an
// administrator can see *why* a decision came out the way it did.
//
// Usage:
//   strategy_explorer --list-strategies
//   strategy_explorer <graph> <acm> <subject> <object> <right> <strategy>
//   strategy_explorer <graph> <acm> <subject> <object> <right> ALL
//
// Without arguments, runs the paper's Fig. 1 example on D+LMP+.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "acm/acm.h"
#include "core/explain.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/io.h"
#include "paper/paper_example.h"
#include "paper/relalg_impl.h"
#include "util/table_printer.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): example brevity.

int ListStrategies() {
  TablePrinter table({"#", "mnemonic", "default", "locality", "majority",
                      "preference"});
  for (const core::Strategy& s : core::AllStrategies()) {
    const char* def = s.default_rule == core::DefaultRule::kPositive ? "+"
                      : s.default_rule == core::DefaultRule::kNegative ? "-"
                                                                       : "off";
    const char* loc =
        s.locality_rule == core::LocalityRule::kMostSpecific  ? "min"
        : s.locality_rule == core::LocalityRule::kMostGeneral ? "max"
                                                              : "off";
    const char* maj = s.majority_rule == core::MajorityRule::kBefore
                          ? "before locality"
                      : s.majority_rule == core::MajorityRule::kAfter
                          ? "after locality"
                          : "off";
    table.AddRow({std::to_string(s.CanonicalIndex()), s.ToMnemonic(), def,
                  loc, maj,
                  s.preference_rule == core::PreferenceRule::kPositive
                      ? "+"
                      : "-"});
  }
  table.Print(std::cout);
  return 0;
}

int Query(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
          const std::string& subject, const std::string& object,
          const std::string& right, const std::string& strategy_name) {
  const graph::NodeId s = dag.FindNode(subject);
  if (s == graph::kInvalidNode) {
    std::cerr << "unknown subject '" << subject << "'\n";
    return 1;
  }
  auto o = eacm.FindObject(object);
  auto r = eacm.FindRight(right);
  if (!o.ok() || !r.ok()) {
    std::cerr << "unknown object or right (nothing was ever authorized on "
                 "it)\n";
    return 1;
  }

  std::vector<core::Strategy> strategies;
  if (strategy_name == "ALL") {
    strategies = core::AllStrategies();
  } else {
    auto parsed = core::ParseStrategy(strategy_name);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 2;
    }
    strategies.push_back(*parsed);
  }

  TablePrinter table({"strategy", "mode", "c1", "c2", "Auth", "line"});
  for (const core::Strategy& strategy : strategies) {
    core::ResolveTrace trace;
    auto mode = core::ResolveAccess(dag, eacm, s, *o, *r, strategy, {},
                                    &trace);
    if (!mode.ok()) {
      std::cerr << mode.status().ToString() << "\n";
      return 1;
    }
    table.AddRow({strategy.ToMnemonic(),
                  std::string(1, acm::ModeToChar(*mode)), trace.C1ToString(),
                  trace.C2ToString(), trace.AuthToString(),
                  std::to_string(trace.returned_line)});
  }
  std::cout << "<" << subject << ", " << object << ", " << right << ">:\n";
  table.Print(std::cout);

  // For a single strategy, also explain the decision's provenance.
  if (strategies.size() == 1) {
    auto explanation =
        core::ExplainAccess(dag, eacm, s, *o, *r, strategies.front());
    if (explanation.ok()) {
      std::cout << "\n" << explanation->ToString(dag);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-strategies") {
    return ListStrategies();
  }
  if (argc == 1) {
    // Demo mode: the paper's example.
    const core::PaperExample ex = core::MakePaperExample();
    std::cout << "(demo mode: paper Fig. 1; pass files to load your own)\n";
    return Query(ex.dag, ex.eacm, "User", "obj", "read", "D+LMP+");
  }
  if (argc != 7) {
    std::cerr << "usage:\n"
              << "  strategy_explorer --list-strategies\n"
              << "  strategy_explorer <graph-file> <acm-file> <subject> "
                 "<object> <right> <strategy|ALL>\n";
    return 2;
  }

  std::ifstream graph_in(argv[1]);
  if (!graph_in) {
    std::cerr << "cannot open graph file " << argv[1] << "\n";
    return 1;
  }
  std::ostringstream graph_text;
  graph_text << graph_in.rdbuf();
  auto dag = ucr::graph::FromEdgeListText(graph_text.str());
  if (!dag.ok()) {
    std::cerr << "graph: " << dag.status().ToString() << "\n";
    return 1;
  }

  std::ifstream acm_in(argv[2]);
  if (!acm_in) {
    std::cerr << "cannot open acm file " << argv[2] << "\n";
    return 1;
  }
  std::ostringstream acm_text;
  acm_text << acm_in.rdbuf();
  auto eacm = ucr::acm::FromText(acm_text.str(), *dag);
  if (!eacm.ok()) {
    std::cerr << "acm: " << eacm.status().ToString() << "\n";
    return 1;
  }

  return Query(*dag, *eacm, argv[3], argv[4], argv[5], argv[6]);
}
