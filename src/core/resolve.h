#ifndef UCR_CORE_RESOLVE_H_
#define UCR_CORE_RESOLVE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/rights_bag.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "graph/reachability.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/status.h"

namespace ucr::core {

/// \brief Execution record of one Resolve() run, mirroring the columns
/// of the paper's Table 3: the majority counters, the Auth set, the
/// derived mode, and which line of Fig. 4 returned.
struct ResolveTrace {
  /// Majority counters (Fig. 4 lines 4–5); unset when mRule = skip.
  std::optional<uint64_t> c1;  ///< count of '+' tuples.
  std::optional<uint64_t> c2;  ///< count of '-' tuples.

  /// Whether the Auth set (Fig. 4 line 7) was computed, and its
  /// contents if so.
  bool auth_computed = false;
  bool auth_has_positive = false;
  bool auth_has_negative = false;

  /// Line of Fig. 4 that produced the result: 6 (majority), 8 (single
  /// surviving authorization), or 9 (preference).
  int returned_line = 0;

  /// The derived effective mode.
  acm::Mode result = acm::Mode::kNegative;

  /// Renders the Table 3 "Auth" cell: "n/a", "+", "-", or "+,-".
  std::string AuthToString() const;
  /// Renders the Table 3 counter cells: "n/a" or the number.
  std::string C1ToString() const;
  std::string C2ToString() const;
};

/// \brief Algorithm Resolve() (paper Fig. 4), steps after propagation:
/// derives the effective mode for a subject whose propagated
/// `allRights` bag is given.
///
/// Deterministic for every canonical strategy; a non-canonical
/// strategy is normalized first. The algorithm never fails: the
/// preference rule resolves every residual case, including an empty
/// bag (a subject with no ancestors, no label, and no default policy).
acm::Mode Resolve(const RightsBag& all_rights, const Strategy& strategy,
                  ResolveTrace* trace = nullptr);

/// \brief Allocation-free variant of `Resolve` over a normalized entry
/// span (e.g. a `FlatPropagator` bag): the default rule, majority
/// counters, locality target, and Auth set are all computed by
/// streaming over the input instead of materializing filtered copies.
///
/// Saturating addition is associative and commutative, so the streamed
/// counters equal the group-merged ones; results and traces are
/// identical to `Resolve` on the equivalent bag (the differential
/// tests assert this for all 48 canonical strategies). `all_rights`
/// must be normalized (sorted by (dis, mode), groups merged) — both
/// propagation engines only produce normalized bags.
acm::Mode ResolveEntries(std::span<const RightsEntry> all_rights,
                         const Strategy& strategy,
                         ResolveTrace* trace = nullptr);

/// Options for the end-to-end `ResolveAccess` entry point.
struct ResolveAccessOptions {
  /// Run Steps 1–4 through the per-thread allocation-free hot path
  /// (scratch-arena extraction + flat propagation + streaming resolve;
  /// DESIGN.md §7). Decisions are bit-identical to the classic
  /// engines; disable to force the classic oracle (extraction,
  /// `PropagateAggregated`, Fig. 4 `Resolve`), which shadow
  /// verification also runs (DESIGN.md §9).
  bool use_fast_path = true;

  /// Propagation extension mode (paper future work #3).
  PropagationMode propagation_mode = PropagationMode::kBoth;

  /// Compose the sink bag from the reachability index (DESIGN.md §12)
  /// when a current index is supplied to `ResolveAccess` — O(label)
  /// instead of O(sub-graph) per query. Automatically bypassed (to the
  /// fast path) when the index is stale/not-ready, when `stats` are
  /// requested (they describe the traversal the index skips), or under
  /// `kSecondWins` (whose per-column path gating the class labels
  /// cannot express). Decisions and traces stay bit-identical.
  bool use_reachability_index = true;
};

/// True when `index` can answer for this (hierarchy, matrix, options)
/// state: present, `ready()`, built at exactly `dag.generation()` /
/// `eacm.epoch()` over the same node count, and the propagation mode
/// is index-expressible (`kBoth`/`kFirstWins`).
bool ReachIndexUsable(const graph::ReachabilityIndex* index,
                      const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                      const ResolveAccessOptions& options);

/// \brief Composes `subject`'s normalized propagated `allRights` bag
/// for column (object, right) from the reachability index: each label
/// entry (class, dis, count) contributes (dis, seed-mode-of-class,
/// count), plus the subject's own distance-0 seed. Bit-identical to
/// the propagation engines' sink bag (saturating addition is
/// associative, so regrouping by class does not change multiplicities).
///
/// Requires `ReachIndexUsable`. The returned span aliases thread-local
/// scratch: it is invalidated by the next call on this thread.
std::span<const RightsEntry> ComposeIndexedSinkBag(
    const graph::ReachabilityIndex& index, graph::NodeId subject,
    acm::ObjectId object, acm::RightId right, PropagationMode mode);

/// Metric family a query reports under (DESIGN.md §8): direct
/// `ResolveAccess` calls under `ucr_resolve_*`, snapshot reads under
/// `ucr_snapshot_*`, so /statz keeps telling the two surfaces apart.
enum class QuerySurface : uint8_t { kResolve, kSnapshot };

/// \brief Telemetry of one query, opened by its entry point before any
/// work: the query's one `ShouldSample()` tick, its start stamp, and
/// its phase-attribution owner scope (DESIGN.md §14). Unsampled queries
/// pay only the sampler's thread-local countdown; clock reads happen
/// only for sampled ones, which `Record` exactly once.
class QuerySpan {
 public:
  explicit QuerySpan(QuerySurface surface)
      : surface_(surface),
        sampled_(obs::QueryTracer::ShouldSample()),
        t_start_(sampled_ ? obs::NowNs() : 0),
        phases_(sampled_) {}

  QuerySpan(const QuerySpan&) = delete;
  QuerySpan& operator=(const QuerySpan&) = delete;

  QuerySurface surface() const { return surface_; }
  bool sampled() const { return sampled_; }

  /// Clock stamp of a stage boundary; 0, with no clock read, when the
  /// query is unsampled.
  uint64_t Stamp() const { return sampled_ ? obs::NowNs() : 0; }

  /// The sampled query's one latency observation (into the surface's
  /// histogram), one tracer record — stage spans plus `trace`'s Fig. 4
  /// derivation — and one exemplar linking the two. A null `trace`
  /// marks a decision-table hit: no derivation, no stage spans.
  void Record(graph::NodeId subject, acm::ObjectId object, acm::RightId right,
              const Strategy& canonical, bool fast_path, uint64_t t_extract,
              uint64_t t_propagate, const ResolveTrace* trace,
              acm::Mode mode) const;

 private:
  const QuerySurface surface_;
  const bool sampled_;
  const uint64_t t_start_;
  obs::ScopedPhaseCollection phases_;
};

/// \brief Steps 1–4 on the allocation-free engines: the pipeline of
/// `ResolveAccess` and of a `SnapshotResolveAccess` decision-table miss.
///
/// The sink bag is composed from `usable_index` when it is non-null
/// (the caller has checked `ReachIndexUsable` and that no `stats` are
/// requested); otherwise the subject's ancestor sub-graph is extracted
/// into the thread's `HotPath` scratch and flat-propagated. Then
/// `ResolveEntries`, the surface's engine counter, the sampled trace
/// record, and the shadow check (`obs::ShadowVerifier::ShouldShadow()`
/// re-derives the query with the classic engines, DESIGN.md §9). Ids
/// must be in range; steady state allocates nothing.
acm::Mode ResolveOnHotPath(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                           const graph::ReachabilityIndex* usable_index,
                           graph::NodeId subject, acm::ObjectId object,
                           acm::RightId right, const Strategy& canonical,
                           PropagationMode mode, const QuerySpan& span,
                           ResolveTrace* trace, PropagateStats* stats);

/// \brief End-to-end conflict resolution for one ⟨subject, object,
/// right⟩ triple: extracts the subject's ancestor sub-graph (Step 1),
/// propagates labels (Steps 2–3), and resolves (Step 4). When a
/// usable `reach_index` is supplied, Steps 1–3 collapse into an
/// O(label) bag composition (DESIGN.md §12).
///
/// Fails only on invalid ids.
StatusOr<acm::Mode> ResolveAccess(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& strategy, const ResolveAccessOptions& options = {},
    ResolveTrace* trace = nullptr, PropagateStats* stats = nullptr,
    const graph::ReachabilityIndex* reach_index = nullptr);

}  // namespace ucr::core

#endif  // UCR_CORE_RESOLVE_H_
