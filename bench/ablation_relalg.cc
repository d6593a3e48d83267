// Ablation A1: cost of the three implementations of the paper's
// pipeline —
//   native aggregated  (multiplicity DP; the production engine)
//   native literal     (per-tuple queue; the paper's O(n + d) model)
//   relational algebra (operator-for-operator Fig. 4/5 transcription)
//
// All three compute identical answers (the test suite proves it);
// this harness quantifies what the fidelity costs, and shows where
// the aggregated engine's polynomial bound beats the literal engine's
// path-dependent cost (diamond stacks).

#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <vector>

#include "acm/acm.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "paper/relalg_impl.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

struct Workload {
  std::string name;
  graph::Dag dag;
  acm::ExplicitAcm eacm;
  acm::ObjectId obj;
  acm::RightId right;
  graph::NodeId subject;
  bool literal_feasible = true;  // Per-tuple engine affordable here.
  bool relalg_feasible = true;   // Operator-literal engine affordable.
};

Workload MakePaperWorkload() {
  core::PaperExample ex = core::MakePaperExample();
  return Workload{"paper-fig1",  std::move(ex.dag), std::move(ex.eacm),
                  ex.obj,        ex.read,           ex.user,
                  true,          true};
}

Workload MakeLayeredWorkload(size_t layers, size_t width, uint64_t seed) {
  Random rng(seed);
  graph::LayeredDagOptions opt;
  opt.layers = layers;
  opt.nodes_per_layer = width;
  opt.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(opt, rng);
  if (!dag.ok()) std::abort();
  Workload w{"layered-" + std::to_string(layers) + "x" + std::to_string(width),
             std::move(dag).value(),
             {},
             0,
             0,
             0,
             true,
             layers * width <= 100};
  w.obj = w.eacm.InternObject("obj").value();
  w.right = w.eacm.InternRight("read").value();
  for (graph::NodeId v = 0; v < w.dag.node_count(); ++v) {
    if (rng.Bernoulli(0.1)) {
      (void)w.eacm.Set(v, w.obj, w.right,
                       rng.Bernoulli(0.5) ? acm::Mode::kPositive
                                          : acm::Mode::kNegative);
    }
  }
  w.subject = w.dag.Sinks().front();
  return w;
}

Workload MakeDiamondWorkload(size_t k) {
  auto dag = graph::GenerateDiamondStack(k);
  if (!dag.ok()) std::abort();
  Workload w{"diamond-" + std::to_string(k), std::move(dag).value(), {}, 0, 0,
             0,                              k <= 20, k <= 14};
  w.obj = w.eacm.InternObject("obj").value();
  w.right = w.eacm.InternRight("read").value();
  (void)w.eacm.Set(w.dag.FindNode("D0t"), w.obj, w.right,
                   acm::Mode::kPositive);
  w.subject = w.dag.FindNode("Dsink");
  return w;
}

double TimeUs(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    const double us = watch.ElapsedMicros();
    best = i == 0 ? us : std::min(best, us);
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "== Ablation: native aggregated vs native literal vs "
               "relational algebra ==\n"
            << "(strategy D+LMP-; times are best-of-5 microseconds)\n\n";

  std::vector<Workload> workloads;
  workloads.push_back(MakePaperWorkload());
  workloads.push_back(MakeLayeredWorkload(5, 12, 1));
  workloads.push_back(MakeLayeredWorkload(7, 20, 2));
  workloads.push_back(MakeDiamondWorkload(14));
  workloads.push_back(MakeDiamondWorkload(18));
  workloads.push_back(MakeDiamondWorkload(40));  // Literal would need 2^40.

  const core::Strategy strategy = core::ParseStrategy("D+LMP-").value();
  TablePrinter table({"workload", "nodes", "aggregated us", "literal us",
                      "relalg us", "relalg/aggregated"});

  for (const Workload& w : workloads) {
    const graph::AncestorSubgraph sub(w.dag, w.subject);
    const auto labels =
        w.eacm.ExtractLabels(w.dag.node_count(), w.obj, w.right);

    const double aggregated_us = TimeUs(5, [&] {
      const core::RightsBag bag = core::PropagateAggregated(sub, labels);
      (void)core::Resolve(bag, strategy);
    });

    std::string literal_cell = "n/a (too many paths)";
    if (w.literal_feasible) {
      literal_cell = FormatDouble(TimeUs(5, [&] {
                                    auto bag = core::PropagateLiteral(
                                        sub, labels);
                                    (void)core::Resolve(*bag, strategy);
                                  }),
                                  1);
    }

    const relalg::Relation sdag_rel = core::BuildSdagRelation(w.dag);
    const relalg::Relation eacm_rel = core::BuildEacmRelation(w.eacm, w.dag);
    std::string relalg_cell = "n/a (too many paths)";
    double relalg_us = 0.0;
    if (w.relalg_feasible) {
      relalg_us = TimeUs(2, [&] {
        auto rights = core::PropagateRelalg(
            sdag_rel, eacm_rel, w.dag.name(w.subject),
            w.eacm.object_name(w.obj), w.eacm.right_name(w.right));
        (void)core::ResolveRelalg(*rights, strategy);
      });
      relalg_cell = FormatDouble(relalg_us, 1);
    }

    table.AddRow({w.name, std::to_string(w.dag.node_count()),
                  FormatDouble(aggregated_us, 1), literal_cell, relalg_cell,
                  w.relalg_feasible && aggregated_us > 0
                      ? FormatDouble(relalg_us / aggregated_us, 0) + "x"
                      : "-"});
  }
  table.Print(std::cout);

  std::cout
      << "\nTakeaways: the aggregated engine handles the diamond-40 case "
         "(2^40 paths)\nin microseconds where the paper's per-tuple model "
         "cannot run at all, and the\nrelational-algebra reference costs "
         "orders of magnitude more than the native\nengine — the price of "
         "operator-literal fidelity, paid only in tests.\n";
  ucr::bench_obs::EmitMetricsSnapshot("ablation_relalg");
  return 0;
}
