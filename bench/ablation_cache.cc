// Ablation A2 — the paper's future-work #1: caching derived
// authorizations.
//
// Replays a skewed query workload (Zipf-ish: a few hot users dominate,
// as in real systems) against the serving path — lock-free reads of
// the published epoch snapshot (DESIGN.md §11) — with the snapshot's
// decision table off and on, each with the reachability index off
// (every miss extracts and propagates) and on (every miss composes
// from the index, as deployed) — once read-only, once with an
// explicit-matrix update every 1000 queries (each publishes a new
// epoch, carrying over what survives) to show invalidation cost.

#include <cstdio>
#include <iostream>
#include <vector>

#include "acm/assignment.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

struct WorkloadSpec {
  std::vector<graph::NodeId> query_subjects;  // One per query, skewed.
  std::vector<size_t> update_points;          // Query indices with updates.
};

core::AccessControlSystem MakeSystem(core::SystemOptions options,
                                     uint64_t seed) {
  Random rng(seed);
  workload::EnterpriseOptions shape;
  shape.individuals = 400;
  shape.groups = 1300;
  shape.top_level_groups = 15;
  shape.target_edges = 4400;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) std::abort();

  core::AccessControlSystem system(std::move(dag).value(), options);
  acm::ExplicitAcm seed_acm;
  const acm::ObjectId obj = seed_acm.InternObject("vault").value();
  const acm::RightId open = seed_acm.InternRight("open").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.01;
  if (!acm::AssignRandomAuthorizations(system.dag(), obj, open, assign, rng,
                                       &seed_acm)
           .ok()) {
    std::abort();
  }
  for (const auto& e : seed_acm.SortedEntries()) {
    const std::string& name = system.dag().name(e.subject);
    const Status s = e.mode == acm::Mode::kPositive
                         ? system.Grant(name, "vault", "open")
                         : system.DenyAccess(name, "vault", "open");
    if (!s.ok()) std::abort();
  }
  return system;
}

WorkloadSpec MakeWorkload(const graph::Dag& dag, size_t queries,
                          uint64_t seed, size_t update_every) {
  Random rng(seed);
  const std::vector<graph::NodeId> sinks = dag.Sinks();
  // 80% of queries hit a hot set of 16 users; 20% are uniform.
  std::vector<graph::NodeId> hot;
  for (size_t i = 0; i < 16; ++i) {
    hot.push_back(sinks[rng.Uniform(sinks.size())]);
  }
  WorkloadSpec spec;
  for (size_t q = 0; q < queries; ++q) {
    spec.query_subjects.push_back(rng.Bernoulli(0.8)
                                      ? hot[rng.Uniform(hot.size())]
                                      : sinks[rng.Uniform(sinks.size())]);
    if (update_every != 0 && q > 0 && q % update_every == 0) {
      spec.update_points.push_back(q);
    }
  }
  return spec;
}

double RunWorkload(core::AccessControlSystem& system,
                   const WorkloadSpec& spec,
                   const core::SnapshotReadOptions& read) {
  const acm::ObjectId obj = system.eacm().FindObject("vault").value();
  const acm::RightId open = system.eacm().FindRight("open").value();
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();

  size_t next_update = 0;
  Stopwatch watch;
  for (size_t q = 0; q < spec.query_subjects.size(); ++q) {
    if (next_update < spec.update_points.size() &&
        spec.update_points[next_update] == q) {
      // An administrative change publishes a new epoch; the column's
      // memoized decisions are not carried into it.
      const std::string subject = system.dag().name(
          spec.query_subjects[q] % 7 == 0 ? spec.query_subjects[q]
                                          : spec.query_subjects[0]);
      (void)system.Grant(subject, "vault", "open");
      ++next_update;
    }
    const core::SnapshotManager::ReadPin pin = system.snapshots()->Pin();
    auto decision = core::SnapshotResolveAccess(
        *pin, spec.query_subjects[q], obj, open, strategy, read);
    if (!decision.ok()) std::abort();
  }
  return watch.ElapsedMillis();
}

}  // namespace

int main() {
  constexpr size_t kQueries = 20000;
  constexpr uint64_t kSeed = 99;

  std::cout << "== Ablation: snapshot decision table (paper §6, future "
               "work #1) ==\n"
            << kQueries << " skewed queries, strategy D+LP-, read-only and "
            << "with one policy update per 1000 queries\n\n";

  struct Config {
    const char* name;
    bool resolution;
    bool reach_index;
  };
  const Config configs[] = {
      {"no table", false, false},
      {"decision table", true, false},
      {"no table + reach index", false, true},
      {"decision table + reach index", true, true},
  };
  obs::Counter& hits = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_hits_total", "");
  obs::Counter& misses = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_misses_total", "");

  TablePrinter table({"configuration", "updates", "total ms", "us/query",
                      "hit rate", "speedup"});
  for (const size_t update_every : {size_t{0}, size_t{1000}}) {
    double baseline_ms = 0.0;
    for (const Config& config : configs) {
      core::SystemOptions options;
      options.use_reachability_index = config.reach_index;
      core::AccessControlSystem system = MakeSystem(options, kSeed);
      system.EnableSnapshotReads();
      const WorkloadSpec spec =
          MakeWorkload(system.dag(), kQueries, kSeed + 1, update_every);
      core::SnapshotReadOptions read;
      read.use_resolution_table = config.resolution;
      const uint64_t hits_before = hits.Value();
      const uint64_t misses_before = misses.Value();
      const double ms = RunWorkload(system, spec, read);
      if (baseline_ms == 0.0) baseline_ms = ms;

      const uint64_t hit_count = hits.Value() - hits_before;
      const uint64_t lookups = hit_count + misses.Value() - misses_before;
      table.AddRow(
          {config.name,
           update_every == 0 ? std::string("none")
                             : "1/" + std::to_string(update_every),
           FormatDouble(ms, 1),
           FormatDouble(ms * 1000.0 / static_cast<double>(kQueries), 2),
           lookups == 0 ? std::string("-")
                        : FormatDouble(100.0 * static_cast<double>(hit_count) /
                                           static_cast<double>(lookups),
                                       1) +
                              "%",
           FormatDouble(baseline_ms / ms, 1) + "x"});
    }
  }
  table.Print(std::cout);

  std::cout << "\nThe decision table turns repeat decisions into two atomic "
               "loads, supporting the\npaper's conjecture that caching derived "
               "authorizations pays off. An update costs\none publication, "
               "whose carry-over drops only the touched column's decisions;\n"
               "the misses that follow re-derive on the scratch-arena hot path "
               "or from the index.\n";
  ucr::bench_obs::EmitMetricsSnapshot("ablation_cache");
  return 0;
}
