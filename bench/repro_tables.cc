// Regenerates the paper's Tables 1–4 from the Fig. 1 fixture and
// checks each against the published values. This is the exactness
// harness: the timing figures live in the fig6/fig7 binaries.
//
// Exit status is non-zero if any regenerated table deviates.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/ancestor_subgraph.h"
#include "paper/paper_example.h"
#include "paper/relalg_impl.h"
#include "util/table_printer.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "  MISMATCH: " << what << "\n";
  }
}

// Table 2's published modes, in AllStrategies() mnemonic lookup form.
const std::map<std::string, char>& Table2Expected() {
  static const auto& m = *new std::map<std::string, char>{
      {"D+LMP+", '+'}, {"D+LMP-", '+'}, {"D-LMP+", '-'}, {"D-LMP-", '-'},
      {"D+GMP+", '+'}, {"D+GMP-", '+'}, {"D-GMP+", '+'}, {"D-GMP-", '-'},
      {"D+MP+", '+'},  {"D+MP-", '+'},  {"D-MP+", '-'},  {"D-MP-", '-'},
      {"D+LP+", '+'},  {"D+LP-", '-'},  {"D-LP+", '+'},  {"D-LP-", '-'},
      {"D+GP+", '+'},  {"D+GP-", '+'},  {"D-GP+", '+'},  {"D-GP-", '-'},
      {"D+P+", '+'},   {"D+P-", '-'},   {"D-P+", '+'},   {"D-P-", '-'},
      {"LMP+", '+'},   {"LMP-", '-'},   {"GMP+", '+'},   {"GMP-", '+'},
      {"MP+", '+'},    {"MP-", '+'},    {"LP+", '+'},    {"LP-", '-'},
      {"GP+", '+'},    {"GP-", '+'},    {"P+", '+'},     {"P-", '-'},
      {"D+MLP+", '+'}, {"D+MLP-", '+'}, {"D-MLP+", '-'}, {"D-MLP-", '-'},
      {"D+MGP+", '+'}, {"D+MGP-", '+'}, {"D-MGP+", '-'}, {"D-MGP-", '-'},
      {"MLP+", '+'},   {"MLP-", '+'},   {"MGP+", '+'},   {"MGP-", '+'},
  };
  return m;
}

}  // namespace

int main() {
  const core::PaperExample ex = core::MakePaperExample();
  const graph::AncestorSubgraph sub(ex.dag, ex.user);
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);

  // ---------------- Table 1 ----------------
  std::cout << "== Table 1: all read authorizations of User on obj ==\n";
  const core::RightsBag bag = core::PropagateAggregated(sub, labels);
  TablePrinter t1({"subject", "object", "right", "dis", "mode"});
  for (const core::RightsEntry& e : bag.entries()) {
    for (uint64_t i = 0; i < e.multiplicity; ++i) {
      t1.AddRow({"User", "obj", "read", std::to_string(e.dis),
                 std::string(1, acm::PropagatedModeToChar(e.mode))});
    }
  }
  t1.Print(std::cout);
  Check(bag.TotalTuples() == 6, "Table 1 must contain 6 tuples");
  Check(bag.ToString() == "{1:+, 1:-, 1:d, 2:d, 3:+, 3:d}",
        "Table 1 contents (got " + bag.ToString() + ")");

  // ---------------- Table 4 ----------------
  std::cout << "\n== Table 4: the full propagation relation P ==\n";
  const relalg::Relation sdag = core::BuildSdagRelation(ex.dag);
  const relalg::Relation eacm_rel = core::BuildEacmRelation(ex.eacm, ex.dag);
  auto p = core::PropagateRelalgFullP(sdag, eacm_rel, "User", "obj", "read");
  if (!p.ok()) {
    std::cerr << p.status().ToString() << "\n";
    return 1;
  }
  relalg::Relation sorted = *p;
  sorted.SortRows();
  std::cout << sorted.ToString();
  Check(p->size() == 15, "Table 4 must contain 15 tuples (got " +
                             std::to_string(p->size()) + ")");

  // ---------------- Table 2 ----------------
  std::cout << "\n== Table 2: resolved authorization per strategy ==\n";
  TablePrinter t2({"strategy", "mode", "published", "match"});
  for (const core::Strategy& s : core::AllStrategies()) {
    const char got = acm::ModeToChar(core::Resolve(bag, s));
    const char want = Table2Expected().at(s.ToMnemonic());
    t2.AddRow({s.ToMnemonic(), std::string(1, got), std::string(1, want),
               got == want ? "yes" : "NO"});
    Check(got == want, "Table 2 strategy " + s.ToMnemonic());
  }
  t2.Print(std::cout);

  // ---------------- Table 3 ----------------
  std::cout << "\n== Table 3: trace of Resolve() ==\n"
            << "(MGP-: the published row c1=1,c2=0 contradicts Fig. 4 and "
               "the paper's own\n prose; the Fig. 4 semantics give c1=2,"
               "c2=1 with the same decision.)\n";
  struct Expect {
    const char* mnemonic;
    const char* c1;
    const char* c2;
    const char* auth;
    char mode;
    int line;
  };
  const Expect expected[] = {
      {"D+LMP+", "2", "1", "n/a", '+', 6}, {"D-GMP-", "1", "1", "+,-", '-', 9},
      {"D-MP-", "2", "4", "n/a", '-', 6},  {"D-LP+", "n/a", "n/a", "+,-", '+', 9},
      {"D+GP-", "n/a", "n/a", "+", '+', 8}, {"GMP-", "1", "0", "n/a", '+', 6},
      {"P-", "n/a", "n/a", "+,-", '-', 9}, {"MGP-", "2", "1", "n/a", '+', 6},
  };
  TablePrinter t3({"strategy", "c1", "c2", "Auth", "mode", "line"});
  for (const Expect& e : expected) {
    auto strategy = core::ParseStrategy(e.mnemonic);
    core::ResolveTrace trace;
    const char got = acm::ModeToChar(core::Resolve(bag, *strategy, &trace));
    t3.AddRow({e.mnemonic, trace.C1ToString(), trace.C2ToString(),
               trace.AuthToString(), std::string(1, got),
               std::to_string(trace.returned_line)});
    Check(trace.C1ToString() == e.c1 && trace.C2ToString() == e.c2 &&
              trace.AuthToString() == e.auth && got == e.mode &&
              trace.returned_line == e.line,
          std::string("Table 3 strategy ") + e.mnemonic);
  }
  t3.Print(std::cout);

  std::cout << "\n"
            << (failures == 0 ? "ALL TABLES MATCH the publication."
                              : "TABLES DEVIATE from the publication!")
            << "\n";
  ucr::bench_obs::EmitMetricsSnapshot("repro_tables");
  return failures == 0 ? 0 : 1;
}
