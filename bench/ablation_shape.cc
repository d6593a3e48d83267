// Ablation A7 — hierarchy-shape sensitivity: how does DAG-ness (extra
// group memberships on top of the nesting tree) drive the paper's
// cost metric d and the algorithms' running time?
//
// §5 argues tree-based solutions are inadequate because real subject
// hierarchies are DAGs; this harness quantifies what the D in DAG
// costs: sweeping the extra-membership budget from tree-like to
// heavily cross-linked while holding nodes constant.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#include "bench_obs.h"

int main() {
  using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

  std::cout << "== Ablation: tree-like vs DAG-heavy hierarchies ==\n"
            << "(2100 nodes held constant; extra memberships swept; rate "
               "0.7%, strategy D+LP-)\n\n";

  TablePrinter table({"edges", "edges/node", "mean d", "p90 d", "max depth",
                      "Resolve us", "Dominance us"});
  for (size_t target_edges : {size_t{2050}, size_t{3000}, size_t{4500}, size_t{6800}, size_t{10000}, size_t{15000}}) {
    workload::EnterpriseExperimentOptions options;
    options.enterprise.individuals = 500;
    options.enterprise.groups = 1600;
    options.enterprise.top_level_groups = 20;
    options.enterprise.target_edges = target_edges;
    options.timing_reps = 2;
    options.seed = 17;

    auto result = workload::RunEnterpriseExperiment(options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    RunningStats d_stats;
    std::vector<double> ds;
    uint32_t depth = 0;
    RunningStats resolve_us;
    RunningStats dominance_us;
    for (const workload::SinkMeasurement& m : result->rows) {
      d_stats.Add(static_cast<double>(m.d));
      ds.push_back(static_cast<double>(m.d));
      depth = std::max(depth, m.subgraph_depth);
      resolve_us.Add(m.resolve_us);
      dominance_us.Add(m.dominance_us);
    }
    const size_t edges = result->hierarchy_stats.edges;
    table.AddRow(
        {std::to_string(edges),
         FormatDouble(static_cast<double>(edges) /
                          static_cast<double>(result->hierarchy_stats.nodes),
                      2),
         FormatDouble(d_stats.Mean(), 0), FormatDouble(Quantile(ds, 0.9), 0),
         std::to_string(depth), FormatDouble(resolve_us.Mean(), 2),
         FormatDouble(dominance_us.Mean(), 2)});
  }
  table.Print(std::cout);

  std::cout
      << "\nAt ~1 edge/node the hierarchy is a forest and d stays near the "
         "depth; each\nextra membership multiplies paths, driving d — and "
         "Resolve()'s literal cost —\nsuper-linearly while the hierarchy "
         "size never changes. This is §5's point:\ntree-only solutions "
         "dodge exactly the regime real systems live in.\n";
  ucr::bench_obs::EmitMetricsSnapshot("ablation_shape");
  return 0;
}
