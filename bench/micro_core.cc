// Google-benchmark microbenchmarks of the core primitives (ablation
// A3): sub-graph extraction, both propagation engines, Resolve() for
// each policy shape, Dominance(), whole-graph materialization, and
// strategy parsing. These are the numbers a downstream user sizes a
// deployment with.

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "acm/acm.h"
#include "acm/assignment.h"
#include "core/explain.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/dominance.h"
#include "paper/mixed.h"
#include "util/random.h"
#include "workload/enterprise.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

struct Fixture {
  graph::Dag dag;
  acm::ExplicitAcm eacm;
  acm::ObjectId obj = 0;
  acm::RightId right = 0;
  graph::NodeId subject = 0;
  std::vector<std::optional<acm::Mode>> labels;
};

/// Enterprise-shaped fixture scaled by `users`.
Fixture MakeEnterprise(size_t users) {
  Random rng(500 + users);
  workload::EnterpriseOptions opt;
  opt.individuals = users;
  opt.groups = users * 3;
  opt.top_level_groups = 1 + users / 40;
  opt.target_edges = users * 11;
  auto dag = workload::GenerateEnterpriseHierarchy(opt, rng);
  if (!dag.ok()) std::abort();
  Fixture f;
  f.dag = std::move(dag).value();
  f.obj = f.eacm.InternObject("obj").value();
  f.right = f.eacm.InternRight("read").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.007;
  if (!acm::AssignRandomAuthorizations(f.dag, f.obj, f.right, assign, rng,
                                       &f.eacm)
           .ok()) {
    std::abort();
  }
  f.labels = f.eacm.ExtractLabels(f.dag.node_count(), f.obj, f.right);
  f.subject = f.dag.Sinks().back();
  return f;
}

void BM_SubgraphExtraction(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    graph::AncestorSubgraph sub(f.dag, f.subject);
    benchmark::DoNotOptimize(sub.member_count());
  }
}
BENCHMARK(BM_SubgraphExtraction)->Arg(100)->Arg(400)->Arg(1600);

void BM_PropagateAggregated(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  const graph::AncestorSubgraph sub(f.dag, f.subject);
  for (auto _ : state) {
    core::RightsBag bag = core::PropagateAggregated(sub, f.labels);
    benchmark::DoNotOptimize(bag.GroupCount());
  }
}
BENCHMARK(BM_PropagateAggregated)->Arg(100)->Arg(400)->Arg(1600);

void BM_PropagateLiteral(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  const graph::AncestorSubgraph sub(f.dag, f.subject);
  for (auto _ : state) {
    auto bag = core::PropagateLiteral(sub, f.labels);
    if (!bag.ok()) std::abort();
    benchmark::DoNotOptimize(bag->GroupCount());
  }
}
BENCHMARK(BM_PropagateLiteral)->Arg(100)->Arg(400)->Arg(1600);

void BM_PropagateLiteralDiamond(benchmark::State& state) {
  auto dag = graph::GenerateDiamondStack(static_cast<size_t>(state.range(0)));
  if (!dag.ok()) std::abort();
  acm::ExplicitAcm eacm;
  const acm::ObjectId obj = eacm.InternObject("obj").value();
  const acm::RightId right = eacm.InternRight("read").value();
  (void)eacm.Set(dag->FindNode("D0t"), obj, right, acm::Mode::kPositive);
  const auto labels = eacm.ExtractLabels(dag->node_count(), obj, right);
  const graph::AncestorSubgraph sub(*dag, dag->FindNode("Dsink"));
  for (auto _ : state) {
    auto bag = core::PropagateLiteral(sub, labels);
    if (!bag.ok()) std::abort();
    benchmark::DoNotOptimize(bag->GroupCount());
  }
  state.SetLabel("paths=2^" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PropagateLiteralDiamond)->DenseRange(8, 16, 4);

void BM_PropagateAggregatedDiamond(benchmark::State& state) {
  auto dag = graph::GenerateDiamondStack(static_cast<size_t>(state.range(0)));
  if (!dag.ok()) std::abort();
  acm::ExplicitAcm eacm;
  const acm::ObjectId obj = eacm.InternObject("obj").value();
  const acm::RightId right = eacm.InternRight("read").value();
  (void)eacm.Set(dag->FindNode("D0t"), obj, right, acm::Mode::kPositive);
  const auto labels = eacm.ExtractLabels(dag->node_count(), obj, right);
  const graph::AncestorSubgraph sub(*dag, dag->FindNode("Dsink"));
  for (auto _ : state) {
    core::RightsBag bag = core::PropagateAggregated(sub, labels);
    benchmark::DoNotOptimize(bag.GroupCount());
  }
  state.SetLabel("paths=2^" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PropagateAggregatedDiamond)->DenseRange(8, 64, 28);

void BM_ResolvePerShape(benchmark::State& state) {
  const Fixture f = MakeEnterprise(400);
  const graph::AncestorSubgraph sub(f.dag, f.subject);
  const core::RightsBag bag = core::PropagateAggregated(sub, f.labels);
  const core::Strategy strategy =
      core::AllStrategies()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Resolve(bag, strategy));
  }
  state.SetLabel(strategy.ToMnemonic());
}
// One representative per policy shape: P-, MP-, LP-, GP-, LMP-, MLP-.
BENCHMARK(BM_ResolvePerShape)
    ->Arg(1)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Arg(13);

void BM_Dominance(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Dominance(f.dag, f.labels, f.subject,
                        core::DefaultRule::kPositive,
                        core::PreferenceRule::kNegative));
  }
}
BENCHMARK(BM_Dominance)->Arg(100)->Arg(400)->Arg(1600);

void BM_WholeDagMaterialization(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<core::RightsBag> bags =
        core::PropagateWholeDag(f.dag, f.labels);
    benchmark::DoNotOptimize(bags.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.dag.node_count()));
}
BENCHMARK(BM_WholeDagMaterialization)->Arg(100)->Arg(400);

void BM_ExplainAccess(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();
  for (auto _ : state) {
    auto explanation = core::ExplainAccess(f.dag, f.eacm, f.subject, f.obj,
                                           f.right, strategy);
    if (!explanation.ok()) std::abort();
    benchmark::DoNotOptimize(explanation->contributions.size());
  }
}
BENCHMARK(BM_ExplainAccess)->Arg(400);

void BM_MixedPropagate(benchmark::State& state) {
  Random rng(321);
  auto subjects = graph::GenerateLayeredDag(
      {.layers = 4, .nodes_per_layer = 10, .skip_edge_probability = 0.1},
      rng);
  auto objects = graph::GenerateLayeredDag(
      {.layers = 3, .nodes_per_layer = 8, .skip_edge_probability = 0.1},
      rng);
  if (!subjects.ok() || !objects.ok()) std::abort();
  std::vector<core::MixedAuthorization> auths;
  for (int i = 0; i < 10; ++i) {
    auths.push_back(core::MixedAuthorization{
        static_cast<graph::NodeId>(rng.Uniform(subjects->node_count())),
        static_cast<graph::NodeId>(rng.Uniform(objects->node_count())),
        rng.Bernoulli(0.5) ? acm::Mode::kPositive : acm::Mode::kNegative});
  }
  const graph::NodeId qs = subjects->Sinks().front();
  const graph::NodeId qo = objects->Sinks().front();
  for (auto _ : state) {
    auto bag = core::MixedPropagate(*subjects, *objects, auths, qs, qo);
    if (!bag.ok()) std::abort();
    benchmark::DoNotOptimize(bag->GroupCount());
  }
}
BENCHMARK(BM_MixedPropagate);

void BM_ParseStrategy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ParseStrategy("D+LMP-"));
  }
}
BENCHMARK(BM_ParseStrategy);

void BM_ExtractLabels(benchmark::State& state) {
  const Fixture f = MakeEnterprise(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto labels = f.eacm.ExtractLabels(f.dag.node_count(), f.obj, f.right);
    benchmark::DoNotOptimize(labels.size());
  }
}
BENCHMARK(BM_ExtractLabels)->Arg(400)->Arg(1600);

}  // namespace

BENCHMARK_MAIN();
