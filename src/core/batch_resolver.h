#ifndef UCR_CORE_BATCH_RESOLVER_H_
#define UCR_CORE_BATCH_RESOLVER_H_

#include <span>
#include <vector>

#include "acm/mode.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ucr::core {

/// Options for `BatchResolver`.
struct BatchResolverOptions {
  /// Total executors per batch: `threads - 1` pool workers plus the
  /// calling thread. 0 and 1 both mean "resolve inline". Clamped to
  /// `std::thread::hardware_concurrency()` at construction.
  size_t threads = 1;
};

/// \brief Multi-threaded batch query evaluation over one pinned
/// epoch snapshot (DESIGN.md §11) — the batch counterpart of
/// `AccessControlSystem::CheckAccessSnapshot`.
///
/// Every query runs `SnapshotResolveAccess` against the bound
/// snapshot, so the workers share the snapshot's lock-free decision
/// table: a decision one worker derives is a table hit
/// for every other worker and for every later batch over the same
/// epoch. Decisions are deterministic, therefore bit-identical to the
/// serial engines' for any thread count (the differential tests assert
/// this for all 48 strategies).
///
/// The caller must hold a `SnapshotManager::ReadPin` on the snapshot
/// (or otherwise own it) for the resolver's whole lifetime. A snapshot
/// never mutates, so nothing the resolver reads can go stale; to see
/// later edits, bind a new resolver to a newer epoch.
class BatchResolver {
 public:
  using Query = AccessControlSystem::AccessQuery;

  explicit BatchResolver(const HierarchySnapshot& snapshot,
                         BatchResolverOptions options = {});

  /// \brief Resolves every query under `strategy`. Results align
  /// positionally with `queries`.
  ///
  /// Validates all ids up front, so worker threads cannot fail; the
  /// whole batch either resolves or returns the validation error.
  StatusOr<std::vector<acm::Mode>> ResolveBatch(
      std::span<const Query> queries, const Strategy& strategy);

  size_t threads() const { return options_.threads; }

 private:
  const HierarchySnapshot* snapshot_;
  BatchResolverOptions options_;
  ThreadPool pool_;
};

}  // namespace ucr::core

#endif  // UCR_CORE_BATCH_RESOLVER_H_
