// Allocation-free hot path (DESIGN.md §7): single-thread throughput
// and heap traffic of the scratch-arena + flat-propagation query
// engine against the classic engines it replaces.
//
// Workload, seed, strategy, and query count match the batch_resolve
// section of bench/throughput_parallel (BENCH_throughput_parallel.json)
// so qps is directly comparable across PRs. This binary links the
// counting allocator (util/alloc_counter.h), so every section also
// reports heap allocations per query; production binaries do not carry
// the counting hook.
//
// Each section prints one machine-readable line (prefixed "JSON ") for
// collection into BENCH_hotpath.json:
//
//   JSON {"bench":"hotpath","section":"batch_resolve","fast_path":true,...}
//
// `--smoke` shrinks the workload so CI finishes in well under 5s.
// `--audit` starts the audit log on a discard sink and `--shadow <N>`
// turns on 1-in-N shadow verification, so the DESIGN.md §9 overhead
// budget (≤2% with audit + shadow at N≥64) is measurable in place.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_resolver.h"
#include "core/persistent_system.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/audit_log.h"
#include "obs/profiler.h"
#include "obs/shadow.h"
#include "util/alloc_counter.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

// Same Livelink-shaped system as bench/throughput_parallel (seed and
// column rates included) so throughput numbers are comparable.
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

struct SectionResult {
  const char* section;
  bool fast_path;
  size_t queries;
  double millis;
  double qps;
  double allocs_per_query;
  bool audit = false;
  uint64_t shadow_interval = 0;
};

std::string JsonLine(const SectionResult& r) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "JSON {\"bench\":\"hotpath\",\"section\":\"%s\","
                "\"fast_path\":%s,\"threads\":1,\"queries\":%zu,"
                "\"millis\":%.3f,\"qps\":%.1f,\"allocs_per_query\":%.4f,"
                "\"audit\":%s,\"shadow_interval\":%llu}",
                r.section, r.fast_path ? "true" : "false", r.queries,
                r.millis, r.qps, r.allocs_per_query,
                r.audit ? "true" : "false",
                static_cast<unsigned long long>(r.shadow_interval));
  return buffer;
}

/// Times `run(queries)` and measures its heap traffic, after one
/// untimed warm-up pass that grows tables, arenas, and pools to their
/// steady-state footprint.
template <typename Body>
SectionResult Measure(const char* section, bool fast_path,
                      std::span<const core::AccessControlSystem::AccessQuery>
                          queries,
                      const Body& run) {
  run(queries);  // Warm-up: arenas/pools grow to steady state.
  const uint64_t allocs_before = AllocationCount();
  Stopwatch watch;
  run(queries);
  const double ms = watch.ElapsedMillis();
  const uint64_t allocs = AllocationCount() - allocs_before;
  const auto n = static_cast<double>(queries.size());
  return SectionResult{section, fast_path, queries.size(), ms,
                       n / (ms / 1000.0), static_cast<double>(allocs) / n};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool audit = false;
  uint64_t shadow_interval = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--audit") == 0) audit = true;
    if (std::strcmp(argv[i], "--shadow") == 0 && i + 1 < argc) {
      shadow_interval = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (audit) {
    obs::AuditLogOptions options;
    options.sinks.push_back(std::make_unique<obs::DiscardSink>());
    obs::AuditLog::Global().Start(std::move(options));
  }
  obs::ShadowVerifier::Global().SetInterval(shadow_interval);
  // Telemetry timeline + exemplars on by default: the ≤2% overhead
  // budget and the 0-alloc property are measured with the full
  // observability stack live, not an idealized build. The cadence is
  // faster than the production 1 s default so even the smoke run
  // retains real points, and each tick evaluates the health rules.
  // UCR_BENCH_NO_TELEMETRY=1 gives the A/B baseline for isolating the
  // sampler's cost.
  obs::SetExemplarThreshold(0);  // Every sampled query may leave one.
  if (std::getenv("UCR_BENCH_NO_TELEMETRY") == nullptr) {
    obs::TimeSeriesSampler::Options ts_options;
    ts_options.interval_ms = 100;
    obs::TimeSeriesSampler::Global().Start(ts_options);
  }

  constexpr uint64_t kSeed = 42;
  const size_t query_count = smoke ? 2000 : 30000;
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();
  const core::Strategy canonical = strategy.Canonical();

  core::AccessControlSystem system = MakeSystem(kSeed);
  workload::QueryStreamOptions stream;
  stream.count = query_count;
  stream.seed = kSeed + 1;
  auto queries =
      workload::GenerateQueryStream(system.dag(), system.eacm(), stream);
  if (!queries.ok()) std::abort();

  std::cout << "== Allocation-free hot path ==\n"
            << "enterprise hierarchy: " << system.dag().node_count()
            << " subjects, " << system.eacm().size()
            << " explicit authorizations; " << query_count
            << " hot-set queries, strategy D+LP-, 1 thread"
            << (smoke ? " (smoke)" : "");
  if (audit) std::cout << ", audit log on";
  if (shadow_interval != 0) {
    std::cout << ", shadow 1-in-" << shadow_interval;
  }
  std::cout << "\n\n";

  std::vector<SectionResult> results;

  // -- resolve_access: uncached end-to-end resolution per query. -----
  // The purest engine comparison: every query extracts, propagates,
  // and resolves from scratch. Fast path = scratch arena + flat kernel
  // + streaming resolve; classic = hash-map extraction + dense label
  // vector + per-node bag vectors.
  for (const bool fast_path : {false, true}) {
    core::ResolveAccessOptions options;
    options.use_fast_path = fast_path;
    results.push_back(Measure(
        "resolve_access", fast_path, *queries, [&](auto span) {
          for (const auto& q : span) {
            auto mode = core::ResolveAccess(system.dag(), system.eacm(),
                                            q.subject, q.object, q.right,
                                            canonical, options);
            if (!mode.ok()) std::abort();
          }
        }));
  }

  // -- resolve_access_wal: the fast workload against a system opened
  // from a durable store (mmap'd binary snapshot + WAL attached, one
  // committed batch in the log). Queries never touch the WAL, so
  // durability must cost the read path nothing: the smoke run
  // hard-asserts the section stays at zero allocations per query.
  {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string dir =
        std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
        "/ucr_hotpath_wal_" + std::to_string(static_cast<long>(::getpid()));
    if (!core::PersistentSystem::Initialize(dir, system).ok()) std::abort();
    auto store = core::PersistentSystem::Open(dir);
    if (!store.ok()) std::abort();
    const std::vector<core::AccessControlSystem::MutationOp> batch = {
        core::AccessControlSystem::MutationOp::Grant(
            store->system().dag().name(0), "wal_probe", "read")};
    if (!store->Apply(batch).ok()) std::abort();

    core::ResolveAccessOptions options;
    options.use_fast_path = true;
    const core::AccessControlSystem& stored = store->system();
    results.push_back(Measure(
        "resolve_access_wal", true, *queries, [&](auto span) {
          for (const auto& q : span) {
            auto mode = core::ResolveAccess(stored.dag(), stored.eacm(),
                                            q.subject, q.object, q.right,
                                            canonical, options);
            if (!mode.ok()) std::abort();
          }
        }));
    if (smoke && results.back().allocs_per_query != 0.0) {
      std::fprintf(stderr,
                   "FATAL: resolve_access_wal allocated %.4f per query; "
                   "the WAL-enabled hot path must stay allocation-free\n",
                   results.back().allocs_per_query);
      std::abort();
    }
    std::remove(core::PersistentSystem::SnapshotPath(dir).c_str());
    std::remove(core::PersistentSystem::WalPath(dir).c_str());
    ::rmdir(dir.c_str());
  }

  // -- batch_resolve: the serving path's batch engine. Every pass binds
  // a BatchResolver to a fresh epoch snapshot of the same state (built
  // before the pass, outside the timing), so its decision table starts
  // cold — the cold-pass shape of throughput_parallel's batch_resolve
  // @1 thread, so the qps trajectory across PRs stays comparable. The
  // snapshots carry no reachability index, so every miss runs the
  // scratch-arena hot path: the cold pass must stay allocation-free
  // per query, like resolve_access (the result vector is per batch).
  // batch_resolve_warm replays the pass over one already-warm
  // snapshot: every query is a decision-table hit.
  {
    const auto fresh_snapshot = [&] {
      return core::BuildSnapshot(system.dag(), system.eacm(), canonical,
                                 system.propagation_mode(), /*epoch=*/1,
                                 /*previous=*/nullptr,
                                 /*resolution_capacity=*/size_t{1} << 15);
    };
    std::vector<std::unique_ptr<const core::HierarchySnapshot>> cold;
    cold.push_back(fresh_snapshot());
    cold.push_back(fresh_snapshot());
    size_t next = 0;
    results.push_back(
        Measure("batch_resolve", true, *queries, [&](auto span) {
          core::BatchResolver resolver(*cold[next++]);
          auto batch = resolver.ResolveBatch(span, strategy);
          if (!batch.ok()) std::abort();
        }));
    if (smoke && results.back().allocs_per_query > 0.01) {
      std::fprintf(stderr,
                   "FATAL: cold batch_resolve allocated %.4f per query; a "
                   "snapshot miss must run the allocation-free hot path\n",
                   results.back().allocs_per_query);
      std::abort();
    }
    core::BatchResolver warm(*cold.back());
    results.push_back(
        Measure("batch_resolve_warm", true, *queries, [&](auto span) {
          auto batch = warm.ResolveBatch(span, strategy);
          if (!batch.ok()) std::abort();
        }));
  }

  // -- profiled: the fast resolve_access workload re-run with the
  // continuous-profiling stack fully live — phase timers arming on
  // sampled queries plus the 97 Hz SIGPROF wall sampler. The overhead
  // against the profiler-idle fast row above is the number the ≤2%
  // budget (DESIGN.md §14) gates; the per-phase sums name the top
  // phases for the trend gate.
  double profiler_overhead_pct = 0.0;
  obs::WallProfiler::Stats prof_stats;
  char top_phases[128] = "";
  {
    std::array<uint64_t, obs::kPhaseCount> phase_before{};
    for (size_t i = 0; i < obs::kPhaseCount; ++i) {
      phase_before[i] =
          obs::Registry::Global()
              .GetHistogram(obs::PhaseMetricName(static_cast<obs::Phase>(i)),
                            "")
              .Snap()
              .sum;
    }
    obs::WallProfiler::Global().Start();
    core::ResolveAccessOptions options;
    options.use_fast_path = true;
    const SectionResult profiled = Measure(
        "resolve_access_profiled", true, *queries, [&](auto span) {
          for (const auto& q : span) {
            auto mode = core::ResolveAccess(system.dag(), system.eacm(),
                                            q.subject, q.object, q.right,
                                            canonical, options);
            if (!mode.ok()) std::abort();
          }
        });
    obs::WallProfiler::Global().Stop();
    prof_stats = obs::WallProfiler::Global().GetStats();
    results.push_back(profiled);
    // The profiler-idle fast resolve_access row is results[1].
    const double base_qps = results[1].qps;
    if (base_qps > 0) {
      profiler_overhead_pct = 100.0 * (base_qps - profiled.qps) / base_qps;
    }
    // Top-3 phases by attributed nanoseconds during the profiled pass.
    std::array<std::pair<uint64_t, size_t>, obs::kPhaseCount> ranked;
    for (size_t i = 0; i < obs::kPhaseCount; ++i) {
      const uint64_t sum =
          obs::Registry::Global()
              .GetHistogram(obs::PhaseMetricName(static_cast<obs::Phase>(i)),
                            "")
              .Snap()
              .sum;
      ranked[i] = {sum - phase_before[i], i};
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    size_t written = 0;
    for (size_t i = 0; i < 3 && ranked[i].first > 0; ++i) {
      const int w = std::snprintf(
          top_phases + written, sizeof(top_phases) - written, "%s%s",
          written == 0 ? "" : ",",
          obs::PhaseName(static_cast<obs::Phase>(ranked[i].second)));
      if (w > 0) written += static_cast<size_t>(w);
    }
  }

  TablePrinter table(
      {"section", "engine", "total ms", "queries/s", "allocs/query"});
  for (const SectionResult& r : results) {
    table.AddRow({r.section, r.fast_path ? "fast" : "classic",
                  FormatDouble(r.millis, 1), FormatDouble(r.qps, 0),
                  FormatDouble(r.allocs_per_query, 4)});
  }
  table.Print(std::cout);

  std::cout << "\nThe fast rows run the DESIGN.md §7 hot path: epoch-stamped "
               "scratch arenas, one\npooled SoA bag buffer, sparse column "
               "staging, and streaming resolution — zero\nsteady-state heap "
               "allocations per query.\n\n";
  for (SectionResult& r : results) {
    r.audit = audit;
    r.shadow_interval = shadow_interval;
    std::cout << JsonLine(r) << "\n";
  }
  obs::TimeSeriesSampler::Global().Stop();
  PublishAllocationGauge();  // ucr_heap_allocations joins the snapshot.
  ucr::bench_obs::EmitMetricsSnapshot("hotpath");
  ucr::bench_obs::EmitTimeseriesSummary("hotpath");
  // Continuous-profiling summary (gated by tools/bench_trend.py like
  // timeseries_summary): the overhead of running phase timers + the
  // 97 Hz wall sampler, the achieved sampling rate, and the phases
  // that dominated the profiled pass.
  std::printf(
      "JSON {\"bench\":\"hotpath\",\"section\":\"profiler_summary\","
      "\"overhead_pct\":%.2f,\"samples_total\":%llu,"
      "\"samples_per_sec\":%.1f,\"dropped_total\":%llu,"
      "\"threads_seen\":%u,\"top_phases\":\"%s\"}\n",
      profiler_overhead_pct,
      static_cast<unsigned long long>(prof_stats.samples_total),
      prof_stats.samples_per_sec,
      static_cast<unsigned long long>(prof_stats.dropped_total),
      prof_stats.threads_seen, top_phases);
  obs::ShadowVerifier::Global().SetInterval(0);
  if (audit) obs::AuditLog::Global().Stop();
  return 0;
}
