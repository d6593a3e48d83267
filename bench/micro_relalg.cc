// Google-benchmark microbenchmarks of the relational-algebra engine —
// the substrate of the paper-literal reference implementation. These
// size the fidelity tax measured end-to-end by ablation_relalg.

#include <benchmark/benchmark.h>

#include <string>

#include "paper/paper_example.h"
#include "paper/relalg_impl.h"
#include "relalg/operators.h"
#include "relalg/relation.h"
#include "util/random.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.
using relalg::Relation;
using relalg::Row;
using relalg::Schema;
using relalg::Value;
using relalg::ValueType;

Relation MakeRights(size_t rows, uint64_t seed) {
  static const char* kSubjects[] = {"u1", "u2", "u3", "u4", "u5"};
  static const char* kModes[] = {"+", "-", "d"};
  Random rng(seed);
  Relation r{Schema({{"subject", ValueType::kString},
                     {"dis", ValueType::kInt},
                     {"mode", ValueType::kString}})};
  for (size_t i = 0; i < rows; ++i) {
    r.AppendUnchecked(Row{Value(kSubjects[rng.Uniform(5)]),
                          Value(static_cast<int64_t>(rng.Uniform(8))),
                          Value(kModes[rng.Uniform(3)])});
  }
  return r;
}

Relation MakeEdges(size_t rows, uint64_t seed) {
  Random rng(seed);
  Relation r{Schema({{"subject", ValueType::kString},
                     {"child", ValueType::kString}})};
  for (size_t i = 0; i < rows; ++i) {
    r.AppendUnchecked(
        Row{Value("u" + std::to_string(rng.Uniform(40))),
            Value("u" + std::to_string(40 + rng.Uniform(40)))});
  }
  return r;
}

void BM_SelectEquals(benchmark::State& state) {
  const Relation r = MakeRights(static_cast<size_t>(state.range(0)), 1);
  const Value d{"d"};
  for (auto _ : state) {
    auto out = relalg::SelectEquals(r, "mode", d);
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_SelectEquals)->Arg(64)->Arg(1024);

void BM_Project(benchmark::State& state) {
  const Relation r = MakeRights(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto out = relalg::Project(r, {"mode"});
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_Project)->Arg(64)->Arg(1024);

void BM_NaturalJoin(benchmark::State& state) {
  const Relation rights = MakeRights(static_cast<size_t>(state.range(0)), 3);
  const Relation edges = MakeEdges(static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    Relation out = relalg::NaturalJoin(rights, edges);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NaturalJoin)->Arg(64)->Arg(512)->Arg(2048);

void BM_Distinct(benchmark::State& state) {
  const Relation r = MakeRights(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    Relation out = relalg::Distinct(r);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_Distinct)->Arg(64)->Arg(1024);

void BM_Difference(benchmark::State& state) {
  const Relation a = MakeRights(static_cast<size_t>(state.range(0)), 6);
  const Relation b = MakeRights(static_cast<size_t>(state.range(0)) / 2, 7);
  for (auto _ : state) {
    auto out = relalg::Difference(a, b);
    benchmark::DoNotOptimize(out->size());
  }
}
BENCHMARK(BM_Difference)->Arg(64)->Arg(1024);

void BM_AncestorsFixpoint(benchmark::State& state) {
  const core::PaperExample ex = core::MakePaperExample();
  const Relation sdag = core::BuildSdagRelation(ex.dag);
  for (auto _ : state) {
    auto anc = core::AncestorsRelalg(sdag, "User");
    benchmark::DoNotOptimize(anc->size());
  }
}
BENCHMARK(BM_AncestorsFixpoint);

void BM_PropagateRelalgPaperExample(benchmark::State& state) {
  const core::PaperExample ex = core::MakePaperExample();
  const Relation sdag = core::BuildSdagRelation(ex.dag);
  const Relation eacm = core::BuildEacmRelation(ex.eacm, ex.dag);
  for (auto _ : state) {
    auto rights = core::PropagateRelalg(sdag, eacm, "User", "obj", "read");
    benchmark::DoNotOptimize(rights->size());
  }
}
BENCHMARK(BM_PropagateRelalgPaperExample);

void BM_ResolveRelalgPerStrategy(benchmark::State& state) {
  const core::PaperExample ex = core::MakePaperExample();
  const Relation sdag = core::BuildSdagRelation(ex.dag);
  const Relation eacm = core::BuildEacmRelation(ex.eacm, ex.dag);
  auto rights = core::PropagateRelalg(sdag, eacm, "User", "obj", "read");
  if (!rights.ok()) std::abort();
  const core::Strategy strategy =
      core::AllStrategies()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto mode = core::ResolveRelalg(*rights, strategy);
    benchmark::DoNotOptimize(mode.ok());
  }
  state.SetLabel(strategy.ToMnemonic());
}
BENCHMARK(BM_ResolveRelalgPerStrategy)->Arg(1)->Arg(9)->Arg(13);

}  // namespace

BENCHMARK_MAIN();
