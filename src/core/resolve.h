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
  /// Propagation engine: the aggregated production engine (default) or
  /// the paper-literal tuple queue (for cost-model experiments).
  bool use_literal_engine = false;

  /// Run Steps 1–4 through the per-thread allocation-free hot path
  /// (scratch-arena extraction + flat propagation + streaming resolve;
  /// DESIGN.md §7). Decisions are bit-identical to the classic
  /// engines; disable to force the classic path as a differential
  /// oracle. Ignored when `use_literal_engine` is set.
  bool use_fast_path = true;

  /// Tuple budget for the literal engine (ignored by the aggregated
  /// engine); see `PropagateLiteral`.
  uint64_t literal_max_tuples = UINT64_MAX;

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

/// \brief End-to-end conflict resolution for one ⟨subject, object,
/// right⟩ triple: extracts the subject's ancestor sub-graph (Step 1),
/// propagates labels (Steps 2–3), and resolves (Step 4). When a
/// usable `reach_index` is supplied, Steps 1–3 collapse into an
/// O(label) bag composition (DESIGN.md §12).
///
/// Fails only on invalid ids or a literal-engine tuple-budget breach.
StatusOr<acm::Mode> ResolveAccess(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& strategy, const ResolveAccessOptions& options = {},
    ResolveTrace* trace = nullptr, PropagateStats* stats = nullptr,
    const graph::ReachabilityIndex* reach_index = nullptr);

/// \brief Online shadow-verification oracle (DESIGN.md §9): re-resolves
/// one fast-path decision with the classic engines (ancestor-sub-graph
/// extraction, aggregated propagation, Fig. 4 `Resolve`) and compares
/// decision *and* derivation (c1/c2, Auth set, returned line)
/// bit-for-bit against the fast path's. A divergence is counted
/// (`ucr_shadow_mismatch_total`), retained in the mismatch dump, and
/// emitted as an audit event carrying both derivations.
///
/// Called by `ResolveAccess`/`SnapshotResolveAccess` for queries
/// (snapshot: table misses) selected by
/// `obs::ShadowVerifier::ShouldShadow()`. Cold path; its heap traffic
/// runs under an allocation-exclusion scope, so the hot path's
/// 0-allocs/query bound refers to unshadowed queries.
/// When the shadowed decision came from the reachability index,
/// `indexed_bag_entries` is the composed bag's size; the oracle's
/// extraction then doubles as the `ucr_reach_pruned_nodes` probe (the
/// sub-graph members the index never touched).
void ShadowVerifyDecision(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                          graph::NodeId subject, acm::ObjectId object,
                          acm::RightId right, const Strategy& canonical,
                          const PropagateOptions& prop_options,
                          acm::Mode fast_mode, const ResolveTrace& fast_trace,
                          size_t indexed_bag_entries = SIZE_MAX);

}  // namespace ucr::core

#endif  // UCR_CORE_RESOLVE_H_
