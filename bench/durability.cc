// Durability-layer benchmark: what the WAL costs the write path, and
// what the binary snapshot buys the cold start.
//
// Sections (one "JSON " line each, for BENCH_durability.json;
// tools/bench_trend.py hard-gates the summary):
//
//   churn_baseline     the membership-churn workload — hot-set
//                      queries on the facade with one membership
//                      toggle per 100 queries — applied purely in
//                      memory.
//   churn_wal_relaxed  the same stream with every toggle logged
//                      through PersistentSystem::Apply under relaxed
//                      group commit (ordered, checksummed appends; no
//                      per-commit fsync). The gated number: WAL
//                      *append* overhead must stay ≤5%.
//   churn_wal_durable  the same with the default fsync-per-commit —
//                      the full price of an acknowledged commit,
//                      reported (fsync latency is the device's, not
//                      the append path's, so it is not gated).
//   cold_start         a ≥1M-subject layered hierarchy is snapshotted,
//                      then loaded back (mmap + CSR re-validation) and
//                      asked its first query, five times after a
//                      warm-up (median, min and max reported). The
//                      acceptance bound: a median load + first answer
//                      in under 5 seconds.
//
// `--smoke` shrinks both workloads so CI finishes in seconds.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/binary_snapshot.h"
#include "core/persistent_system.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/generators.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

constexpr size_t kQueriesPerMutation = 100;

// The published-shape enterprise hierarchy plus six label columns, the
// churn workload's fixed input (seeded, so rows compare across runs).
core::AccessControlSystem MakeChurnSystem(uint64_t seed) {
  Random rng(seed);
  workload::EnterpriseOptions shape;  // Defaults = published shape stats.
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) std::abort();
  core::AccessControlSystem system(std::move(dag).value());

  const struct {
    const char* object;
    const char* right;
    double rate;
  } columns[] = {{"vault", "open", 0.01},    {"vault", "audit", 0.005},
                 {"wiki", "edit", 0.02},     {"wiki", "read", 0.01},
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

struct ChurnEdge {
  std::string parent;
  std::string child;
};

ChurnEdge FindChurnEdge(const core::AccessControlSystem& system) {
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    if (system.dag().children(v).empty() &&
        !system.dag().parents(v).empty()) {
      return {system.dag().name(system.dag().parents(v).front()),
              system.dag().name(v)};
    }
  }
  std::abort();
}

struct ChurnResult {
  double millis = 0.0;
  size_t mutations = 0;
};

/// The churn loop: warm pass untimed, then the timed stream with one
/// membership toggle per kQueriesPerMutation queries. `toggle` applies
/// the edit — in memory for the baseline, through the WAL for the
/// durable rows — so the delta between runs is exactly the logging.
/// An even toggle count returns the hierarchy to its starting state,
/// so repetitions are identical; callers keep the best of several to
/// shed scheduler noise.
template <typename Toggle>
ChurnResult RunChurnOnce(
    core::AccessControlSystem& system,
    std::span<const core::AccessControlSystem::AccessQuery> queries,
    const core::Strategy& strategy, Toggle toggle) {
  for (const auto& q : queries) {
    if (!system.CheckAccess(q.subject, q.object, q.right, strategy).ok()) {
      std::abort();
    }
  }
  ChurnResult result;
  bool edge_present = true;
  Stopwatch watch;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % kQueriesPerMutation == kQueriesPerMutation - 1) {
      toggle(edge_present);
      edge_present = !edge_present;
      ++result.mutations;
    }
    const auto& q = queries[i];
    if (!system.CheckAccess(q.subject, q.object, q.right, strategy).ok()) {
      std::abort();
    }
  }
  result.millis = watch.ElapsedMillis();
  return result;
}

template <typename Toggle>
ChurnResult RunChurn(
    core::AccessControlSystem& system,
    std::span<const core::AccessControlSystem::AccessQuery> queries,
    const core::Strategy& strategy, int reps, Toggle toggle) {
  ChurnResult best;
  for (int rep = 0; rep < reps; ++rep) {
    ChurnResult r = RunChurnOnce(system, queries, strategy, toggle);
    if (rep == 0 || r.millis < best.millis) best = r;
  }
  return best;
}

std::string StoreDir(const char* tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
         "/ucr_durability_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

void RemoveStore(const std::string& dir) {
  std::remove(core::PersistentSystem::SnapshotPath(dir).c_str());
  std::remove(core::PersistentSystem::WalPath(dir).c_str());
  ::rmdir(dir.c_str());
}

void PrintChurnJson(const char* section, size_t queries,
                    const ChurnResult& r, double qps, double overhead_pct,
                    uint64_t wal_bytes) {
  std::printf(
      "JSON {\"bench\":\"durability\",\"section\":\"%s\",\"threads\":1,"
      "\"queries\":%zu,\"mutations\":%zu,\"millis\":%.3f,\"qps\":%.1f,"
      "\"overhead_pct\":%.2f,\"wal_bytes\":%llu}\n",
      section, queries, r.mutations, r.millis, qps, overhead_pct,
      static_cast<unsigned long long>(wal_bytes));
}

uint64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  constexpr uint64_t kSeed = 42;
  const size_t kQueries = smoke ? 5000 : 50000;
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();

  // ---- WAL overhead on the churn workload --------------------------
  core::AccessControlSystem baseline = MakeChurnSystem(kSeed);
  workload::QueryStreamOptions stream;
  stream.count = kQueries;
  stream.seed = kSeed + 1;
  auto queries =
      workload::GenerateQueryStream(baseline.dag(), baseline.eacm(), stream);
  if (!queries.ok()) std::abort();
  const ChurnEdge edge = FindChurnEdge(baseline);

  std::cout << "== Durability: WAL overhead + snapshot cold start ==\n"
            << "churn workload: " << baseline.dag().node_count()
            << " subjects, " << baseline.eacm().size()
            << " explicit authorizations; " << kQueries
            << " hot-set queries, one durable membership toggle per "
            << kQueriesPerMutation << " queries, strategy D+LP-"
            << (smoke ? " (smoke)" : "") << "\n\n";

  // The baseline applies through the same ApplyMutations batch path
  // the store uses, so the delta is the WAL append alone — not the
  // batch machinery.
  const int kReps = smoke ? 1 : 3;
  using Op = core::AccessControlSystem::MutationOp;
  const ChurnResult base = RunChurn(
      baseline, *queries, strategy, kReps, [&](bool present) {
        const std::vector<Op> batch = {
            present ? Op::RemoveMember(edge.parent, edge.child)
                    : Op::AddMember(edge.parent, edge.child)};
        if (!baseline.ApplyMutations(batch).ok()) std::abort();
      });
  const double base_qps =
      static_cast<double>(kQueries) / (base.millis / 1000.0);

  struct WalRow {
    const char* section;
    bool sync;
    ChurnResult result;
    double qps = 0.0;
    double overhead_pct = 0.0;
    uint64_t wal_bytes = 0;
  } rows[] = {{"churn_wal_relaxed", false, {}},
              {"churn_wal_durable", true, {}}};

  for (WalRow& row : rows) {
    const std::string dir = StoreDir(row.section);
    {
      core::AccessControlSystem seeded = MakeChurnSystem(kSeed);
      if (!core::PersistentSystem::Initialize(dir, seeded).ok()) {
        std::abort();
      }
    }
    auto store = core::PersistentSystem::Open(dir);
    if (!store.ok()) std::abort();
    store->set_sync_on_commit(row.sync);
    core::AccessControlSystem& system = store->system();
    row.result = RunChurn(
        system, *queries, strategy, kReps, [&](bool present) {
          const std::vector<Op> batch = {
              present ? Op::RemoveMember(edge.parent, edge.child)
                      : Op::AddMember(edge.parent, edge.child)};
          if (!store->Apply(batch).ok()) std::abort();
        });
    row.qps = static_cast<double>(kQueries) / (row.result.millis / 1000.0);
    row.overhead_pct = 100.0 * (base_qps - row.qps) / base_qps;
    row.wal_bytes = FileSize(core::PersistentSystem::WalPath(dir));
    RemoveStore(dir);
  }

  TablePrinter table({"section", "total ms", "queries/s", "overhead"});
  table.AddRow({"churn_baseline", FormatDouble(base.millis, 1),
                FormatDouble(base_qps, 0), "-"});
  for (const WalRow& row : rows) {
    table.AddRow({row.section, FormatDouble(row.result.millis, 1),
                  FormatDouble(row.qps, 0),
                  FormatDouble(row.overhead_pct, 2) + "%"});
  }
  table.Print(std::cout);
  std::cout << "\nRelaxed = ordered checksummed appends, fsync deferred "
               "(the gated append cost);\ndurable = one fsync per commit "
               "(the device's price for an acknowledged write).\n\n";

  PrintChurnJson("churn_baseline", kQueries, base, base_qps, 0.0, 0);
  for (const WalRow& row : rows) {
    PrintChurnJson(row.section, kQueries, row.result, row.qps,
                   row.overhead_pct, row.wal_bytes);
  }

  // ---- Cold start from a binary snapshot ---------------------------
  // Build once, snapshot, drop, load, answer. The acceptance bound is
  // load + first query < 5 s at the million-subject scale.
  const size_t kNodes = smoke ? (size_t{1} << 14) : (size_t{1} << 20);
  const std::string snapshot_path = StoreDir("cold") + ".ucrs";
  std::string first_subject;
  {
    Random rng(kSeed + 7);
    graph::ScaleLayeredDagOptions shape;
    shape.nodes = kNodes;
    shape.layers = 24;
    shape.parents_per_node = 2;
    auto dag = graph::GenerateScaleLayeredDag(shape, rng);
    if (!dag.ok()) std::abort();
    core::AccessControlSystem big(std::move(dag).value());
    // Labels on the upper layers so deep sinks resolve through real
    // ancestor sets.
    const size_t labeled = kNodes / 64;
    for (size_t i = 0; i < labeled; ++i) {
      const std::string& name =
          big.dag().name(static_cast<graph::NodeId>(i));
      const Status status =
          (i % 16 == 0) ? big.DenyAccess(name, "vault", "open")
                        : big.Grant(name, "vault", "open");
      if (!status.ok()) std::abort();
    }
    first_subject = big.dag().name(
        static_cast<graph::NodeId>(big.dag().node_count() - 1));
    if (!core::WriteBinarySnapshot(big, /*lsn=*/1, snapshot_path).ok()) {
      std::abort();
    }
  }  // The builder is gone: the load below starts cold.

  // One warm-up, then kColdRuns timed loads: the rows report the median
  // and the spread.
  constexpr size_t kColdRuns = 5;
  std::vector<double> load_runs;
  std::vector<double> query_runs;
  std::vector<double> total_runs;
  size_t subjects = 0;
  size_t memberships = 0;
  for (size_t run = 0; run <= kColdRuns; ++run) {
    Stopwatch load_watch;
    auto loaded = core::LoadBinarySnapshot(snapshot_path, {});
    if (!loaded.ok()) std::abort();
    const double load_millis = load_watch.ElapsedMillis();
    Stopwatch query_watch;
    auto first = loaded->CheckAccessByName(first_subject, "vault", "open",
                                           strategy);
    if (!first.ok()) std::abort();
    const double first_query_millis = query_watch.ElapsedMillis();
    subjects = loaded->dag().node_count();
    memberships = loaded->dag().edge_count();
    if (run == 0) continue;  // Warm-up.
    load_runs.push_back(load_millis);
    query_runs.push_back(first_query_millis);
    total_runs.push_back(load_millis + first_query_millis);
  }
  const uint64_t snapshot_bytes = FileSize(snapshot_path);
  std::remove(snapshot_path.c_str());
  const auto [min_load, max_load] =
      std::minmax_element(load_runs.begin(), load_runs.end());
  const auto [min_query, max_query] =
      std::minmax_element(query_runs.begin(), query_runs.end());
  const double load_millis = Quantile(load_runs, 0.5);
  const double first_query_millis = Quantile(query_runs, 0.5);
  const double total_millis = Quantile(total_runs, 0.5);

  std::cout << "cold start: " << subjects << " subjects, " << memberships
            << " memberships, " << snapshot_bytes
            << " snapshot bytes -> load " << FormatDouble(load_millis, 1)
            << " ms [" << FormatDouble(*min_load, 1) << ", "
            << FormatDouble(*max_load, 1) << "], first query "
            << FormatDouble(first_query_millis, 1) << " ms ["
            << FormatDouble(*min_query, 1) << ", "
            << FormatDouble(*max_query, 1) << "] (median [min, max] of "
            << kColdRuns << " loads)\n\n";
  std::printf(
      "JSON {\"bench\":\"durability\",\"section\":\"cold_start\","
      "\"subjects\":%zu,\"memberships\":%zu,\"snapshot_bytes\":%llu,"
      "\"runs\":%zu,\"load_millis\":%.3f,\"load_min_millis\":%.3f,"
      "\"load_max_millis\":%.3f,\"first_query_millis\":%.3f,"
      "\"first_query_min_millis\":%.3f,\"first_query_max_millis\":%.3f,"
      "\"total_millis\":%.3f}\n",
      subjects, memberships, static_cast<unsigned long long>(snapshot_bytes),
      kColdRuns, load_millis, *min_load, *max_load, first_query_millis,
      *min_query, *max_query, total_millis);

  // The summary line bench_trend.py gates: append overhead ≤5%, cold
  // start <5000 ms (the median load + first query).
  std::printf(
      "JSON {\"bench\":\"durability\",\"section\":\"durability_summary\","
      "\"wal_overhead_pct\":%.2f,\"durable_overhead_pct\":%.2f,"
      "\"cold_start_millis\":%.3f,\"cold_start_subjects\":%zu}\n",
      rows[0].overhead_pct, rows[1].overhead_pct, total_millis, subjects);

  ucr::bench_obs::EmitMetricsSnapshot("durability");
  return 0;
}
