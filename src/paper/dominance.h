#ifndef UCR_PAPER_DOMINANCE_H_
#define UCR_PAPER_DOMINANCE_H_

#include <cstdint>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// Work counters of one Dominance() run.
struct DominanceStats {
  uint64_t nodes_visited = 0;  ///< Frontier nodes scanned / path steps taken.
  uint32_t levels = 0;         ///< BFS levels expanded (level variant only).
  bool early_exit = false;     ///< Returned early on a preferred label.
};

/// \brief Algorithm Dominance() — the baseline evaluator for the
/// D*LP* strategy family, reconstructed from Chinaei & Zhang [2] as
/// characterized in the paper's §4.
///
/// Instead of propagating every label down every path, Dominance()
/// walks *upward* from the subject in breadth-first levels (level k =
/// ancestors at shortest distance k) and stops at the first level
/// containing any authorization: under "most specific takes
/// precedence" (lRule = min) those are exactly the authorizations that
/// survive the locality filter, so the level's modes decide — a single
/// mode wins, a mixed level falls to the preference rule.
///
/// The placement sensitivity the paper reports comes from the
/// mid-level shortcut: as soon as a label equal to the *preferred*
/// mode is seen, the result is already determined (it wins both the
/// single-mode and the mixed case), so the scan aborts without
/// visiting the rest of the hierarchy. With preference '-' and early
/// negative authorizations this returns almost immediately; with few
/// negatives it degenerates to a full ancestor scan.
///
/// Restrictions (by design, matching the baseline's purpose):
/// locality is fixed to most-specific and majority is not supported.
/// `default_rule` may be kNone to evaluate the LP* family.
/// Equivalent to `Resolve` with Strategy{default_rule, kMostSpecific,
/// kSkip, preference} — a property the test suite checks exhaustively.
acm::Mode Dominance(const graph::Dag& dag, LabelView labels,
                    graph::NodeId subject, DefaultRule default_rule,
                    PreferenceRule preference,
                    DominanceStats* stats = nullptr);

/// \brief Algorithm DominancePathwise() — the cost-faithful
/// reconstruction of Chinaei & Zhang's baseline as *benchmarked* in
/// the paper's Fig. 7(a).
///
/// Where `Dominance` above aggregates ancestors level by level (and is
/// therefore uniformly fast), the published baseline's running time is
/// described as *placement-dependent*: "occasionally very fast due to
/// visiting an early negative authorization ... but not as efficient
/// as Resolve() for objects that have few negative authorizations",
/// able to land "anywhere below [Resolve's time], and occasionally
/// higher". That cost profile implies a per-path traversal with no
/// cross-path aggregation: this variant recursively asks each parent
/// for the most specific authorization on its own paths, stops a path
/// at the first labeled node (per-path most-specific — the
/// Bertino-style weak/strong semantics of [2]/Bertino et al. [1]),
/// merges siblings with the preference rule, and short-circuits the
/// remaining parents the moment any path yields the *preferred* mode.
///
/// Consequences, matching the published description:
///  * an early preferred (e.g. negative under P-) label prunes hard —
///    very fast;
///  * with few/no preferred labels it walks every path up to its first
///    label, i.e. O(d) work like Resolve's propagation but with
///    per-path recursion overhead — comparable to, sometimes worse
///    than, Resolve();
///  * on tree-shaped hierarchies (single path to each ancestor) it
///    coincides exactly with Resolve's D*LP* (a tested property); on
///    DAGs the per-path semantics may differ from the global
///    most-specific rule, which is precisely the gap the unified
///    Resolve() closes.
///
/// `max_steps` bounds the path exploration (FailedPrecondition on
/// breach) since path counts can be exponential.
StatusOr<acm::Mode> DominancePathwise(const graph::Dag& dag, LabelView labels,
                                      graph::NodeId subject,
                                      DefaultRule default_rule,
                                      PreferenceRule preference,
                                      DominanceStats* stats = nullptr,
                                      uint64_t max_steps = UINT64_MAX);

/// End-to-end convenience mirroring `ResolveAccess`.
StatusOr<acm::Mode> DominanceAccess(const graph::Dag& dag,
                                    const acm::ExplicitAcm& eacm,
                                    graph::NodeId subject,
                                    acm::ObjectId object, acm::RightId right,
                                    DefaultRule default_rule,
                                    PreferenceRule preference,
                                    DominanceStats* stats = nullptr);

}  // namespace ucr::core

#endif  // UCR_PAPER_DOMINANCE_H_
