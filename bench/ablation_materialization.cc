// Ablation A5 — the §5 trade-off, measured: Jajodia et al. suggest
// materializing the entire effective matrix for O(1) checks; the
// paper argues the size and the non-self-maintainability make that
// impractical, and proposes computing on demand instead.
//
// This harness builds an enterprise, materializes the full effective
// matrix, and compares: build cost, memory, lookup cost, and what an
// explicit-matrix update costs each approach.

#include <cstdio>
#include <iostream>
#include <vector>

#include "acm/assignment.h"
#include "core/strategy.h"
#include "core/system.h"
#include "paper/effective_matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"

#include "bench_obs.h"

int main() {
  using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

  std::cout << "== Ablation: full materialization (Jajodia et al.) vs "
               "on-demand Resolve() ==\n\n";

  Random rng(55);
  workload::EnterpriseOptions shape;
  shape.individuals = 800;
  shape.groups = 2600;
  shape.top_level_groups = 30;
  shape.target_edges = 9000;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) {
    std::cerr << dag.status().ToString() << "\n";
    return 1;
  }
  core::AccessControlSystem system(std::move(dag).value());

  // 24 objects x 2 rights, each with explicit labels on ~0.7% of edges.
  constexpr size_t kObjects = 24;
  for (size_t i = 0; i < kObjects; ++i) {
    const std::string object = "doc" + std::to_string(i);
    for (const char* right : {"read", "write"}) {
      acm::ExplicitAcm seed;
      const acm::ObjectId o = seed.InternObject(object).value();
      const acm::RightId r = seed.InternRight(right).value();
      acm::RandomAssignmentOptions assign;
      assign.authorization_rate = 0.007;
      assign.negative_fraction = 0.3;
      if (!acm::AssignRandomAuthorizations(system.dag(), o, r, assign, rng,
                                           &seed)
               .ok()) {
        return 1;
      }
      for (const auto& e : seed.SortedEntries()) {
        const std::string& subject = system.dag().name(e.subject);
        const Status status =
            e.mode == acm::Mode::kPositive
                ? system.Grant(subject, object, right)
                : system.DenyAccess(subject, object, right);
        if (!status.ok()) return 1;
      }
    }
  }
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();
  std::printf("Hierarchy: %zu subjects; explicit matrix: %zu entries over "
              "%zu columns\n\n",
              system.dag().node_count(), system.eacm().size(), kObjects * 2);

  // ---- Build the materialization -----------------------------------
  Stopwatch build_watch;
  auto matrix = core::EffectiveMatrix::Materialize(system, strategy);
  const double build_ms = build_watch.ElapsedMillis();
  if (!matrix.ok()) {
    std::cerr << matrix.status().ToString() << "\n";
    return 1;
  }

  // ---- Query workload: random triples ------------------------------
  constexpr size_t kQueries = 50000;
  std::vector<graph::NodeId> subjects;
  std::vector<acm::ObjectId> objects;
  std::vector<acm::RightId> rights;
  for (size_t q = 0; q < kQueries; ++q) {
    subjects.push_back(
        static_cast<graph::NodeId>(rng.Uniform(system.dag().node_count())));
    objects.push_back(static_cast<acm::ObjectId>(
        rng.Uniform(system.eacm().object_count())));
    rights.push_back(
        static_cast<acm::RightId>(rng.Uniform(system.eacm().right_count())));
  }

  Stopwatch lookup_watch;
  size_t granted_lookup = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto mode = matrix->Lookup(subjects[q], objects[q], rights[q]);
    if (mode.ok() && *mode == acm::Mode::kPositive) ++granted_lookup;
  }
  const double lookup_ms = lookup_watch.ElapsedMillis();

  Stopwatch resolve_watch;
  size_t granted_resolve = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto mode =
        system.CheckAccess(subjects[q], objects[q], rights[q], strategy);
    if (mode.ok() && *mode == acm::Mode::kPositive) ++granted_resolve;
  }
  const double resolve_ms = resolve_watch.ElapsedMillis();
  if (granted_lookup != granted_resolve) {
    std::cerr << "BUG: approaches disagree (" << granted_lookup << " vs "
              << granted_resolve << ")\n";
    return 1;
  }

  // ---- Update cost --------------------------------------------------
  // Materialized: one grant stales everything; rebuilding is the only
  // sound response. On demand: the update itself is the whole cost.
  Stopwatch update_watch;
  if (!system.Grant("user0", "doc0", "read").ok()) return 1;
  const double update_us = update_watch.ElapsedMicros();
  Stopwatch rebuild_watch;
  auto rebuilt = core::EffectiveMatrix::Materialize(system, strategy);
  const double rebuild_ms = rebuild_watch.ElapsedMillis();
  if (!rebuilt.ok()) return 1;

  // Incremental maintenance (our §5 answer): refresh only the one
  // column the grant touched.
  if (!system.Grant("user1", "doc1", "read").ok()) return 1;
  Stopwatch refresh_watch;
  auto refreshed = rebuilt->Refresh(system);
  const double refresh_ms = refresh_watch.ElapsedMillis();
  if (!refreshed.ok() || *refreshed != 1) return 1;

  TablePrinter table({"metric", "materialized", "on-demand Resolve()"});
  table.AddRow({"build time", FormatDouble(build_ms, 1) + " ms", "none"});
  table.AddRow({"memory",
                FormatDouble(static_cast<double>(matrix->MemoryBytes()) /
                                 1024.0,
                             1) +
                    " KiB (" + std::to_string(matrix->column_count()) +
                    " columns)",
                "explicit matrix only"});
  table.AddRow({"50k queries", FormatDouble(lookup_ms, 1) + " ms",
                FormatDouble(resolve_ms, 1) + " ms"});
  table.AddRow({"per query",
                FormatDouble(lookup_ms * 1e6 / kQueries, 0) + " ns",
                FormatDouble(resolve_ms * 1e6 / kQueries, 0) + " ns"});
  table.AddRow({"one grant (naive)",
                FormatDouble(rebuild_ms, 1) + " ms (full rebuild)",
                FormatDouble(update_us, 1) + " us"});
  table.AddRow({"one grant (incremental)",
                FormatDouble(refresh_ms, 1) + " ms (1 column refreshed)",
                FormatDouble(update_us, 1) + " us"});
  table.Print(std::cout);

  std::printf(
      "\nBoth answer identically (%zu grants of 50k probes). The paper's "
      "§5 position\nquantified: materialization wins on steady-state reads; "
      "a naive rebuild per\nexplicit-matrix change is ruinous, though "
      "column-scoped incremental\nmaintenance (EffectiveMatrix::Refresh) "
      "recovers most of it. The on-demand\nalgorithm (with the "
      "epoch snapshot's decision table, see ablation_cache)\nnever pays "
      "more than the touched entries.\n",
      granted_lookup);
  ucr::bench_obs::EmitMetricsSnapshot("ablation_materialization");
  return 0;
}
