#include "core/batch_resolver.h"

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace ucr::core {

namespace {
size_t PoolWorkers(size_t threads) { return threads <= 1 ? 0 : threads - 1; }

BatchResolverOptions Clamped(BatchResolverOptions options) {
  options.threads = ThreadPool::ClampToHardware(options.threads);
  return options;
}

/// Batch telemetry (DESIGN.md §8). Per-query counters, latency, and
/// traces are the snapshot path's own (`ucr_snapshot_*`): every batch
/// query is one SnapshotResolveAccess call.
obs::Counter& BatchesCounter() {
  static obs::Counter& batches = obs::Registry::Global().GetCounter(
      "ucr_batch_batches_total", "ResolveBatch invocations");
  return batches;
}
}  // namespace

BatchResolver::BatchResolver(const HierarchySnapshot& snapshot,
                             BatchResolverOptions options)
    : snapshot_(&snapshot),
      options_(Clamped(options)),
      pool_(PoolWorkers(options_.threads)) {}

StatusOr<std::vector<acm::Mode>> BatchResolver::ResolveBatch(
    std::span<const Query> queries, const Strategy& strategy) {
  // Batch-assembly phase (DESIGN.md §14): validation, canonicalization,
  // and the result-vector setup are the per-batch overhead that no
  // per-query phase sees. Sampled per batch and observed directly —
  // a per-query collection spanning ParallelFor would force clock
  // stamps onto every inline query.
  const bool sampled = obs::QueryTracer::ShouldSample();
  const uint64_t t_assemble = sampled ? obs::NowNs() : 0;
  for (const Query& q : queries) {
    if (q.subject >= snapshot_->dag.node_count() ||
        q.object >= snapshot_->eacm.object_count() ||
        q.right >= snapshot_->eacm.right_count()) {
      return Status::OutOfRange("batch query references unknown ids");
    }
  }
  const Strategy canonical = strategy.Canonical();
  if constexpr (obs::kEnabled) BatchesCounter().Inc();
  std::vector<acm::Mode> results(queries.size(), acm::Mode::kNegative);
  if constexpr (obs::kEnabled) {
    if (sampled) [[unlikely]] {
      static obs::Histogram& assemble_hist =
          obs::Registry::Global().GetHistogram(
              obs::PhaseMetricName(obs::Phase::kBatchAssemble),
              "Per-batch time in batch validation/assembly (ns, sampled)");
      assemble_hist.Observe(obs::NowNs() - t_assemble);
    }
  }
  pool_.ParallelFor(0, queries.size(), [&](size_t i) {
    // Ids were validated above, so the snapshot path cannot fail.
    results[i] = *SnapshotResolveAccess(*snapshot_, queries[i].subject,
                                        queries[i].object, queries[i].right,
                                        canonical);
  });
  return results;
}

}  // namespace ucr::core
