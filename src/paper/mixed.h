#ifndef UCR_PAPER_MIXED_H_
#define UCR_PAPER_MIXED_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/resolve.h"
#include "core/rights_bag.h"
#include "core/strategy.h"
#include "graph/ancestor_subgraph.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Mixed subject *and* object hierarchies — the paper's future-work
/// item #2 (§6): "It is important to support mixed hierarchy of
/// subjects and objects."
///
/// Objects, like subjects, form a DAG: an edge `container -> item`
/// means authorizations on the container apply to the item (a folder
/// to its documents, a table to its columns). An explicit
/// authorization on ⟨group, folder⟩ then reaches ⟨user, document⟩
/// along every *pair* of paths — one in each hierarchy — and its
/// distance is the sum of the two path lengths, so "most specific"
/// and "most general" rank joint specificity. All four conflict
/// resolution policies and the 48 strategy instances apply unchanged
/// to the combined `allRights` bag; `Resolve()` is reused as is.
///
/// Model decisions (the paper sketches no semantics; each is chosen
/// to degenerate exactly to the subject-only model):
///  * A tuple's distance is `subject_dis + object_dis`; multiplicity
///    is (#subject paths of that length) x (#object paths of that
///    length) — per-(path, path) bag semantics, the 2-D analogue of
///    the paper's per-path counting. With a single-node object
///    hierarchy this is literally the paper's model (a tested
///    property).
///  * The Step-2 default marker 'd' attaches to ⟨subject-root,
///    object-root⟩ pairs carrying no explicit authorization: a pair
///    is "unlabeled at the top" only if both coordinates are roots.
///    With a single-node object DAG this reduces to "unlabeled root
///    subjects", the paper's rule.
///  * Rights do not form a hierarchy (the paper never proposes one).

/// An explicit authorization on a (subject, object) pair for `right`.
/// `MixedResolveAccess` takes these instead of an `ExplicitAcm` view
/// because both coordinates now live in graphs.
struct MixedAuthorization {
  graph::NodeId subject = 0;  ///< Node in the subject hierarchy.
  graph::NodeId object = 0;   ///< Node in the object hierarchy.
  acm::Mode mode = acm::Mode::kPositive;
};

/// Work counters for mixed propagation.
struct MixedPropagateStats {
  uint64_t profile_entries = 0;  ///< Distance-profile cells computed.
  uint64_t pair_tuples = 0;      ///< (dis, mode) groups emitted.
};

/// \brief Propagates mixed authorizations to the pair
/// ⟨`subject`, `object`⟩ and returns the combined allRights bag.
///
/// Cost: one distance-profile DP over the subject ancestor sub-graph
/// per distinct labeled subject (and likewise on the object side),
/// plus a profile convolution per explicit authorization — polynomial
/// throughout, using the same multiplicity aggregation as
/// `PropagateAggregated`.
StatusOr<RightsBag> MixedPropagate(
    const graph::Dag& subject_dag, const graph::Dag& object_dag,
    const std::vector<MixedAuthorization>& authorizations,
    graph::NodeId subject, graph::NodeId object,
    MixedPropagateStats* stats = nullptr);

/// \brief End-to-end mixed-hierarchy conflict resolution: propagate
/// through both hierarchies, then apply the unchanged Resolve().
StatusOr<acm::Mode> MixedResolveAccess(
    const graph::Dag& subject_dag, const graph::Dag& object_dag,
    const std::vector<MixedAuthorization>& authorizations,
    graph::NodeId subject, graph::NodeId object, const Strategy& strategy,
    ResolveTrace* trace = nullptr);

/// \brief Distance profile of one source toward one sink: for each
/// path length L, the number of directed paths of exactly length L.
/// Exposed for tests and for callers that want to cache profiles.
///
/// `profile[L]` = number of paths of length L from `source` to `sink`
/// (saturating). Empty when `source` does not reach `sink`;
/// `{(0 -> 1)}` when source == sink.
std::vector<uint64_t> DistanceProfile(const graph::Dag& dag,
                                      graph::NodeId source,
                                      graph::NodeId sink);

}  // namespace ucr::core

#endif  // UCR_PAPER_MIXED_H_
