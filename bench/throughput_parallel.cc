// Throughput of the parallel query-evaluation layer: sweeps thread
// counts over a Livelink-shaped enterprise workload and reports
// queries/sec, the snapshot decision-table hit rate, and parallel
// effective-matrix materialization times.
//
// Each swept config also prints one machine-readable JSON line
// (prefixed "JSON ") so the perf trajectory can be tracked across PRs
// by collecting them into BENCH_*.json:
//
//   JSON {"bench":"throughput_parallel","section":"batch_resolve",...}
//
// Caveat for interpreting results: speedup is bounded by the cores the
// host actually grants (nproc); on a 1-core container every thread
// count serializes and the sweep measures synchronization overhead
// only.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/batch_resolver.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "paper/effective_matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

// Livelink-shaped hierarchy (paper §4) with explicit labels scattered
// over several (object, right) columns.
core::AccessControlSystem MakeSystem(uint64_t seed) {
  Random rng(seed);
  workload::EnterpriseOptions shape;  // Defaults = published shape stats.
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) std::abort();
  core::AccessControlSystem system(std::move(dag).value());

  const struct {
    const char* object;
    const char* right;
    double rate;
  } columns[] = {{"vault", "open", 0.01},   {"vault", "audit", 0.005},
                 {"wiki", "edit", 0.02},    {"wiki", "read", 0.01},
                 {"payroll", "read", 0.003}, {"payroll", "write", 0.002}};
  for (const auto& column : columns) {
    for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
      if (!rng.Bernoulli(column.rate)) continue;
      const std::string& name = system.dag().name(v);
      const Status status =
          rng.Bernoulli(0.3)
              ? system.DenyAccess(name, column.object, column.right)
              : system.Grant(name, column.object, column.right);
      if (!status.ok()) std::abort();
    }
  }
  return system;
}

std::string JsonLine(const char* section, size_t threads, size_t queries,
                     double millis, double qps, double speedup,
                     double hit_rate) {
  // On a host that grants a single core, every multi-threaded config
  // measures synchronization overhead, not scaling: mark those rows so
  // tools/bench_trend.py never reads a "regression" out of a
  // degenerate host (it skips flagged rows entirely).
  const bool skipped_scaling =
      threads > 1 && ThreadPool::DefaultThreadCount() <= 1;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "JSON {\"bench\":\"throughput_parallel\",\"section\":\"%s\","
      "\"threads\":%zu,\"queries\":%zu,\"millis\":%.3f,\"qps\":%.1f,"
      "\"speedup_vs_1t\":%.3f,\"resolution_hit_rate\":%.4f%s}",
      section, threads, queries, millis, qps, speedup, hit_rate,
      skipped_scaling ? ",\"skipped_scaling\":true" : "");
  return buffer;
}

/// Value of a `ucr_snapshot_*` counter, for before/after deltas.
uint64_t SnapshotCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name, "").Value();
}

double Rate(uint64_t hits, uint64_t misses) {
  const uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  constexpr uint64_t kSeed = 42;
  const size_t kQueries = smoke ? 2000 : 30000;
  const std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();

  core::AccessControlSystem system = MakeSystem(kSeed);
  workload::QueryStreamOptions stream;
  stream.count = kQueries;
  stream.seed = kSeed + 1;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream);
  if (!queries.ok()) std::abort();

  std::cout << "== Parallel query-evaluation throughput ==\n"
            << "enterprise hierarchy: " << system.dag().node_count()
            << " subjects, " << system.eacm().size()
            << " explicit authorizations; " << kQueries
            << " hot-set queries, strategy D+LP-"
            << (smoke ? " (smoke)" : "") << "\n"
            << "host concurrency: " << ThreadPool::DefaultThreadCount()
            << " (speedup is bounded by this)\n\n";

  // -- Section 1: BatchResolver over one epoch snapshot. -------------
  // Every thread count gets a fresh snapshot of the same state (built
  // outside the timing) so each pass starts cold; workers share its
  // lock-free decision table. No reachability index: misses extract
  // and propagate on each worker's scratch-arena hot path.
  std::cout << "-- BatchResolver (snapshot table shared by workers) --\n";
  TablePrinter batch_table({"threads", "total ms", "queries/s", "speedup",
                            "resolution hits"});
  std::vector<std::string> json_lines;
  double batch_baseline_ms = 0.0;
  for (const size_t threads : thread_counts) {
    const auto snapshot = core::BuildSnapshot(
        system.dag(), system.eacm(), strategy, system.propagation_mode(),
        /*epoch=*/1, /*previous=*/nullptr,
        /*resolution_capacity=*/size_t{1} << 15);
    core::BatchResolverOptions options;
    options.threads = threads;
    core::BatchResolver resolver(*snapshot, options);
    const uint64_t hits0 =
        SnapshotCounter("ucr_snapshot_resolution_hits_total");
    const uint64_t misses0 =
        SnapshotCounter("ucr_snapshot_resolution_misses_total");
    Stopwatch watch;
    auto results = resolver.ResolveBatch(*queries, strategy);
    const double ms = watch.ElapsedMillis();
    if (!results.ok()) std::abort();
    if (batch_baseline_ms == 0.0) batch_baseline_ms = ms;

    const double hit_rate = Rate(
        SnapshotCounter("ucr_snapshot_resolution_hits_total") - hits0,
        SnapshotCounter("ucr_snapshot_resolution_misses_total") - misses0);
    const double qps = static_cast<double>(kQueries) / (ms / 1000.0);
    const double speedup = batch_baseline_ms / ms;
    batch_table.AddRow({std::to_string(threads), FormatDouble(ms, 1),
                        FormatDouble(qps, 0), FormatDouble(speedup, 2) + "x",
                        FormatDouble(100.0 * hit_rate, 1) + "%"});
    json_lines.push_back(JsonLine("batch_resolve", threads, kQueries, ms,
                                  qps, speedup, hit_rate));
  }
  batch_table.Print(std::cout);

  // -- Section 2: parallel effective-matrix materialization. ---------
  std::cout << "\n-- EffectiveMatrix::Materialize (columns in parallel) --\n";
  TablePrinter matrix_table({"threads", "total ms", "columns/s", "speedup"});
  double matrix_baseline_ms = 0.0;
  size_t column_count = 0;
  for (const size_t threads : thread_counts) {
    Stopwatch watch;
    auto matrix = core::EffectiveMatrix::Materialize(system, strategy,
                                                     threads);
    const double ms = watch.ElapsedMillis();
    if (!matrix.ok()) std::abort();
    column_count = matrix->column_count();
    if (matrix_baseline_ms == 0.0) matrix_baseline_ms = ms;
    const double speedup = matrix_baseline_ms / ms;
    const double cps = static_cast<double>(column_count) / (ms / 1000.0);
    matrix_table.AddRow({std::to_string(threads), FormatDouble(ms, 1),
                         FormatDouble(cps, 1),
                         FormatDouble(speedup, 2) + "x"});
    json_lines.push_back(JsonLine("materialize", threads, column_count, ms,
                                  cps, speedup, 0.0));
  }
  matrix_table.Print(std::cout);

  std::cout << "\nWorkers share decisions through the snapshot's "
               "lock-free table instead of\nre-deriving them, so added threads "
               "scale the independent work (extraction\nand propagation on "
               "per-thread scratch) without duplicating shared state.\n\n";
  for (const std::string& line : json_lines) std::cout << line << "\n";
  ucr::bench_obs::EmitMetricsSnapshot("throughput_parallel");
  return 0;
}
