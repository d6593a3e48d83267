// Ablation A4 — mixed subject+object hierarchies (paper §6, future
// work #2): what does adding an object DAG cost?
//
// Sweeps subject- and object-hierarchy sizes, measuring the mixed
// propagation (distance-profile DPs + per-authorization convolution)
// against the subject-only baseline on the same subject hierarchy.

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/mixed.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

graph::Dag MakeLayered(size_t layers, size_t width, Random& rng) {
  graph::LayeredDagOptions opt;
  opt.layers = layers;
  opt.nodes_per_layer = width;
  opt.skip_edge_probability = 0.1;
  auto dag = graph::GenerateLayeredDag(opt, rng);
  if (!dag.ok()) std::abort();
  return std::move(dag).value();
}

}  // namespace

int main() {
  std::cout << "== Ablation: mixed subject+object hierarchies (future work "
               "#2) ==\n"
            << "(strategy D+LP-; per-query times, best of 5)\n\n";

  Random rng(2026);
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();

  struct Config {
    size_t subject_layers, subject_width;
    size_t object_layers, object_width;
  };
  const Config configs[] = {
      {3, 6, 1, 1},   // Degenerate object side = paper's model.
      {3, 6, 3, 6},
      {5, 20, 3, 6},
      {5, 20, 5, 20},
      {7, 40, 5, 20},
  };

  TablePrinter table({"subjects", "objects", "auths", "mixed us",
                      "subject-only us", "profile cells", "pair tuples"});
  for (const Config& config : configs) {
    const graph::Dag subjects =
        MakeLayered(config.subject_layers, config.subject_width, rng);
    const graph::Dag objects =
        config.object_layers == 1 && config.object_width == 1
            ? [] {
                graph::DagBuilder b;
                b.AddNode("obj");
                return std::move(b).Build().value();
              }()
            : MakeLayered(config.object_layers, config.object_width, rng);

    // ~8% of (subject, object) node pairs sampled down to 12 auths.
    std::vector<core::MixedAuthorization> auths;
    acm::ExplicitAcm subject_acm;
    const acm::ObjectId obj_id = subject_acm.InternObject("obj").value();
    const acm::RightId read = subject_acm.InternRight("read").value();
    while (auths.size() < 12) {
      const auto s = static_cast<graph::NodeId>(
          rng.Uniform(subjects.node_count()));
      const auto o =
          static_cast<graph::NodeId>(rng.Uniform(objects.node_count()));
      const acm::Mode mode =
          rng.Bernoulli(0.5) ? acm::Mode::kPositive : acm::Mode::kNegative;
      bool duplicate = false;
      for (const auto& a : auths) {
        if (a.subject == s && a.object == o) duplicate = true;
      }
      if (duplicate) continue;
      auths.push_back(core::MixedAuthorization{s, o, mode});
      // Mirror onto the subject-only ACM for the baseline (object
      // coordinate dropped; contradictions skipped).
      (void)subject_acm.Set(s, obj_id, read, mode);
    }

    const graph::NodeId qs = subjects.Sinks().front();
    const graph::NodeId qo = objects.Sinks().front();

    double mixed_us = 0.0;
    core::MixedPropagateStats stats;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch watch;
      auto bag =
          core::MixedPropagate(subjects, objects, auths, qs, qo, &stats);
      if (!bag.ok()) std::abort();
      (void)core::Resolve(*bag, strategy);
      const double us = watch.ElapsedMicros();
      mixed_us = rep == 0 ? us : std::min(mixed_us, us);
    }

    const auto labels =
        subject_acm.ExtractLabels(subjects.node_count(), obj_id, read);
    double subject_us = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch watch;
      const graph::AncestorSubgraph sub(subjects, qs);
      const core::RightsBag bag = core::PropagateAggregated(sub, labels);
      (void)core::Resolve(bag, strategy);
      const double us = watch.ElapsedMicros();
      subject_us = rep == 0 ? us : std::min(subject_us, us);
    }

    table.AddRow({std::to_string(subjects.node_count()),
                  std::to_string(objects.node_count()),
                  std::to_string(auths.size()), FormatDouble(mixed_us, 1),
                  FormatDouble(subject_us, 1),
                  std::to_string(stats.profile_entries),
                  std::to_string(stats.pair_tuples)});
  }
  table.Print(std::cout);

  std::cout << "\nThe object hierarchy adds one distance-profile DP and a "
               "per-authorization\nconvolution — same asymptotics as the "
               "subject-only pipeline, roughly doubled\nconstants at equal "
               "sizes.\n";
  ucr::bench_obs::EmitMetricsSnapshot("ablation_mixed");
  return 0;
}
