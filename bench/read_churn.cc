// Read-path churn: reader latency under concurrent mutation, epoch
// snapshots vs a lock-guarded classic baseline (DESIGN.md §11).
//
// One writer thread applies ApplyMutations batches, one per
// millisecond (membership toggles + grant/revoke churn, each batch
// publishing a fresh snapshot) while N reader threads resolve a hot
// query stream.
// Four sections:
//
//   snapshot_idle    readers on CheckAccessSnapshot, writer quiet
//   snapshot_churn   readers on CheckAccessSnapshot, writer churning
//   locked_idle      readers on classic CheckAccess under one shared
//                    mutex (the facade's caches are unsynchronized, so
//                    concurrent classic readers *must* serialize)
//   locked_churn     same, writer churning under the same mutex
//
// The headline contract: snapshot reader p99 stays flat under churn
// (p99_vs_idle ≈ 1) and the reader path acquires ZERO locks — the
// container is 1-CPU, so the win must be argued via the contention
// counters (`ucr_lock_acquisitions_total`, `ucr_lock_wait_ns`), not
// wall-clock speedups: the baseline's lock counters climb with every
// query while the snapshot sections' stay exactly still. The zero-
// reader-locks property is asserted (abort), making the smoke run a
// real regression gate; the latency ratio is reported for
// tools/bench_trend.py's p99 gate.
//
// Each section prints one machine-readable JSON line (prefixed
// "JSON ") for BENCH_read_churn.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

using Query = core::AccessControlSystem::AccessQuery;

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

/// The writer's churn batch: one membership toggle on a sink (affected
/// set = that one user) plus one rights toggle on a hot column — both
/// mutation axes move, so every batch lapses some carried state and
/// publishes a fresh epoch.
struct ChurnPlan {
  std::string parent;
  std::string child;
  std::string rights_subject;
};

ChurnPlan PlanChurn(const core::AccessControlSystem& system) {
  ChurnPlan plan;
  for (graph::NodeId v = 0; v < system.dag().node_count(); ++v) {
    if (system.dag().children(v).empty() &&
        !system.dag().parents(v).empty()) {
      plan.child = system.dag().name(v);
      plan.parent = system.dag().name(system.dag().parents(v).front());
      plan.rights_subject = system.dag().name(
          v + 1 < system.dag().node_count() ? v + 1 : 0);
      return plan;
    }
  }
  std::abort();
}

struct SectionResult {
  double millis = 0.0;
  uint64_t queries = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t mutations = 0;
  uint64_t publications = 0;
  uint64_t lock_acquisitions = 0;  ///< Reader-path lock delta.
  uint64_t lock_wait_ns = 0;       ///< Reader-path contended wait delta.
};

uint64_t Percentile(std::vector<uint64_t>& latencies, double p) {
  if (latencies.empty()) return 0;
  const size_t idx = std::min(
      latencies.size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies.size())));
  std::nth_element(
      latencies.begin(),
      latencies.begin() + static_cast<std::ptrdiff_t>(idx),
      latencies.end());
  return latencies[idx];
}

/// Pause between two churn batches: both churn sections face the same
/// writer, at most ~1k batches per second.
constexpr std::chrono::microseconds kWriterPause{1000};

/// Runs one section: `threads` readers sweep `queries` (each recording
/// per-query latency), optionally against a churning writer. In locked
/// mode every query serializes on `mu` through the instrumented lock
/// (obs::LockWithMetrics), which is what populates the ucr_lock_*
/// family the snapshot sections must keep flat.
SectionResult RunSection(core::AccessControlSystem& system,
                         std::span<const Query> queries, size_t threads,
                         bool use_snapshot, bool churn,
                         const ChurnPlan& plan) {
  static std::mutex classic_mu;
  const core::Strategy strategy = system.strategy();

  obs::LockWaitMetrics& reader_locks = obs::GetLockWaitMetrics();
  const uint64_t acq0 = reader_locks.acquisitions.Value();
  const uint64_t wait0 = reader_locks.wait_ns.Snap().sum;
  const uint64_t pub0 = system.snapshot_reads_enabled()
                            ? system.snapshots()->published_total()
                            : 0;

  std::atomic<bool> stop_writer{false};
  std::atomic<uint64_t> mutations{0};
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      // Sections share the system, so both toggles must be seeded from
      // the actual current state, not assumed. The rights toggle is
      // grant/revoke (never grant/deny: SetMode rejects a deny over an
      // existing grant as a contradiction, so a blind flip would fail
      // on its second batch).
      bool edge_present = system.dag().HasEdge(
          system.dag().FindNode(plan.parent),
          system.dag().FindNode(plan.child));
      const auto vault = system.eacm().FindObject("vault");
      const auto open = system.eacm().FindRight("open");
      if (!vault.ok() || !open.ok()) std::abort();
      bool entry_present =
          system.eacm()
              .Get(system.dag().FindNode(plan.rights_subject), *vault, *open)
              .has_value();
      while (!stop_writer.load(std::memory_order_relaxed)) {
        std::vector<core::AccessControlSystem::MutationOp> ops;
        ops.push_back(
            edge_present
                ? core::AccessControlSystem::MutationOp::RemoveMember(
                      plan.parent, plan.child)
                : core::AccessControlSystem::MutationOp::AddMember(
                      plan.parent, plan.child));
        ops.push_back(
            entry_present ? core::AccessControlSystem::MutationOp::Revoke(
                          plan.rights_subject, "vault", "open")
                    : core::AccessControlSystem::MutationOp::Grant(
                          plan.rights_subject, "vault", "open"));
        if (use_snapshot) {
          if (!system.ApplyMutations(ops).ok()) std::abort();
        } else {
          // The classic baseline has no publication protocol: the
          // writer takes the same global lock the readers hold for
          // every query (write-family metrics, so the reader-family
          // comparison stays clean).
          obs::ScopedMetricsLock lock(classic_mu,
                                      obs::GetWriteLockMetrics());
          if (!system.ApplyMutations(ops).ok()) std::abort();
        }
        edge_present = !edge_present;
        entry_present = !entry_present;
        mutations.fetch_add(1, std::memory_order_relaxed);
        // Paced: an unpaced writer re-takes the classic lock as soon as
        // it drops it, so locked_churn measured how long readers starve
        // behind it rather than the lock-guarded baseline itself.
        std::this_thread::sleep_for(kWriterPause);
      }
    });
  }

  std::vector<std::vector<uint64_t>> latencies(threads);
  std::vector<std::thread> readers;
  readers.reserve(threads);
  const uint64_t t_section0 = obs::NowNs();
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<uint64_t>& local = latencies[t];
      local.reserve(queries.size());
      // Offset start points so readers do not move in lockstep.
      const size_t offset = (t * queries.size()) / threads;
      // Churn sections keep sweeping until the writer has actually
      // landed a few batches: a warm sweep finishes in single-digit
      // milliseconds on one core, faster than the scheduler gives the
      // writer a slot, and a "churn" row measured against one mutation
      // proves nothing. Capped so a stalled writer cannot hang the
      // bench.
      constexpr uint64_t kMinMutations = 8;
      constexpr size_t kMaxSweeps = 50;
      size_t total = queries.size();
      for (size_t i = 0; i < total; ++i) {
        if (churn && i + 1 == total &&
            mutations.load(std::memory_order_relaxed) < kMinMutations &&
            total < kMaxSweeps * queries.size()) {
          total += queries.size();
        }
        const Query& q = queries[(i + offset) % queries.size()];
        const uint64_t t0 = obs::NowNs();
        if (use_snapshot) {
          if (!system.CheckAccessSnapshot(q.subject, q.object, q.right)
                   .ok()) {
            std::abort();
          }
        } else {
          obs::ScopedMetricsLock lock(classic_mu, reader_locks);
          if (!system.CheckAccess(q.subject, q.object, q.right, strategy)
                   .ok()) {
            std::abort();
          }
        }
        local.push_back(obs::NowNs() - t0);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  const uint64_t t_section1 = obs::NowNs();
  if (churn) {
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
  }

  SectionResult result;
  result.millis =
      static_cast<double>(t_section1 - t_section0) / 1e6;
  std::vector<uint64_t> merged;
  merged.reserve(threads * queries.size());
  for (const auto& local : latencies) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  result.queries = merged.size();
  result.p50_ns = Percentile(merged, 0.50);
  result.p99_ns = Percentile(merged, 0.99);
  result.mutations = mutations.load();
  result.publications = system.snapshot_reads_enabled()
                            ? system.snapshots()->published_total() - pub0
                            : 0;
  result.lock_acquisitions = reader_locks.acquisitions.Value() - acq0;
  result.lock_wait_ns = reader_locks.wait_ns.Snap().sum - wait0;

  // The tentpole property, enforced rather than eyeballed: the
  // snapshot read path acquires zero reader-path locks no matter what
  // the writer does. (Trivially true with UCR_METRICS=OFF, where the
  // counters are inert — the instrumented build is the gate.)
  if (use_snapshot && result.lock_acquisitions != 0) {
    std::cerr << "FATAL: snapshot section acquired "
              << result.lock_acquisitions << " reader-path locks\n";
    std::abort();
  }
  return result;
}

std::string JsonLine(const char* section, size_t threads,
                     const SectionResult& r, double p99_vs_idle) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "JSON {\"bench\":\"read_churn\",\"section\":\"%s\",\"threads\":%zu,"
      "\"queries\":%llu,\"millis\":%.3f,\"qps\":%.1f,"
      "\"p50_ns\":%llu,\"p99_ns\":%llu,\"p99_vs_idle\":%.3f,"
      "\"mutations\":%llu,\"publications\":%llu,"
      "\"lock_acquisitions\":%llu,\"lock_wait_ns\":%llu}",
      section, threads, static_cast<unsigned long long>(r.queries),
      r.millis,
      r.millis > 0.0 ? static_cast<double>(r.queries) / (r.millis / 1000.0)
                     : 0.0,
      static_cast<unsigned long long>(r.p50_ns),
      static_cast<unsigned long long>(r.p99_ns), p99_vs_idle,
      static_cast<unsigned long long>(r.mutations),
      static_cast<unsigned long long>(r.publications),
      static_cast<unsigned long long>(r.lock_acquisitions),
      static_cast<unsigned long long>(r.lock_wait_ns));
  return buffer;
}

void AddRow(TablePrinter& table, const char* name, const SectionResult& r,
            double p99_vs_idle) {
  table.AddRow({name, FormatDouble(r.millis, 1),
                FormatDouble(static_cast<double>(r.p50_ns) / 1000.0, 1),
                FormatDouble(static_cast<double>(r.p99_ns) / 1000.0, 1),
                FormatDouble(p99_vs_idle, 2) + "x",
                std::to_string(r.mutations),
                std::to_string(r.lock_acquisitions)});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t threads = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoi(argv[++i]));
      if (threads == 0) threads = 1;
    }
  }

  constexpr uint64_t kSeed = 42;
  const size_t kQueries = smoke ? 1500 : 20000;

  core::AccessControlSystem system = MakeSystem(kSeed);
  system.EnableSnapshotReads();
  const ChurnPlan plan = PlanChurn(system);

  workload::QueryStreamOptions stream;
  stream.count = kQueries;
  stream.seed = kSeed + 1;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream);
  if (!queries.ok()) std::abort();

  std::cout << "== Read churn: epoch snapshots vs lock-guarded classic ==\n"
            << "enterprise hierarchy: " << system.dag().node_count()
            << " subjects, " << system.eacm().size()
            << " explicit authorizations; " << threads << " readers x "
            << kQueries << " queries per section, writer churning "
            << "membership + rights batches every " << kWriterPause.count()
            << " us"
            << (smoke ? " (smoke)" : "") << "\n\n";

  // Snapshot sections first (cold start is the snapshot path's own),
  // then the locked baseline on the same system and stream.
  const SectionResult snap_idle = RunSection(
      system, *queries, threads, /*use_snapshot=*/true, /*churn=*/false,
      plan);
  const SectionResult snap_churn = RunSection(
      system, *queries, threads, /*use_snapshot=*/true, /*churn=*/true,
      plan);
  const SectionResult locked_idle = RunSection(
      system, *queries, threads, /*use_snapshot=*/false, /*churn=*/false,
      plan);
  const SectionResult locked_churn = RunSection(
      system, *queries, threads, /*use_snapshot=*/false, /*churn=*/true,
      plan);

  const auto ratio = [](const SectionResult& churn,
                        const SectionResult& idle) {
    return idle.p99_ns == 0 ? 0.0
                            : static_cast<double>(churn.p99_ns) /
                                  static_cast<double>(idle.p99_ns);
  };
  const double snap_ratio = ratio(snap_churn, snap_idle);
  const double locked_ratio = ratio(locked_churn, locked_idle);

  TablePrinter table({"section", "total ms", "p50 us", "p99 us",
                      "p99 vs idle", "mutations", "reader locks"});
  AddRow(table, "snapshot idle", snap_idle, 1.0);
  AddRow(table, "snapshot churn", snap_churn, snap_ratio);
  AddRow(table, "locked idle", locked_idle, 1.0);
  AddRow(table, "locked churn", locked_churn, locked_ratio);
  table.Print(std::cout);

  std::cout << "\nSnapshot readers pin an epoch and never lock: their "
               "reader-lock column is\nexactly zero (asserted) while the "
               "locked baseline pays one acquisition per\nquery and its "
               "ucr_lock_wait_ns climbs under churn. On a 1-CPU box the\n"
               "contention counters, not wall-clock, carry the argument.\n\n";
  std::cout << JsonLine("snapshot_idle", threads, snap_idle, 1.0) << "\n";
  std::cout << JsonLine("snapshot_churn", threads, snap_churn, snap_ratio)
            << "\n";
  std::cout << JsonLine("locked_idle", threads, locked_idle, 1.0) << "\n";
  std::cout << JsonLine("locked_churn", threads, locked_churn, locked_ratio)
            << "\n";
  ucr::bench_obs::EmitMetricsSnapshot("read_churn");
  return 0;
}
