#include "paper/weak_strong.h"

#include <optional>
#include <vector>

#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"

namespace ucr::core {

namespace {

using acm::Mode;
using acm::PropagatedMode;

}  // namespace

StatusOr<acm::Mode> WeakStrongDecide(
    const graph::Dag& dag,
    const std::vector<WeakStrongAuthorization>& authorizations,
    graph::NodeId subject) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  std::vector<std::optional<Mode>> strong_labels(dag.node_count());
  std::vector<std::optional<Mode>> weak_labels(dag.node_count());
  for (const WeakStrongAuthorization& auth : authorizations) {
    if (auth.subject >= dag.node_count()) {
      return Status::OutOfRange("authorization references unknown subject");
    }
    auto& layer = auth.strong ? strong_labels : weak_labels;
    if (layer[auth.subject].has_value()) {
      if (*layer[auth.subject] == auth.mode) continue;
      return Status::InvalidArgument(
          "contradicting authorizations on one subject within a layer");
    }
    layer[auth.subject] = auth.mode;
  }

  const graph::AncestorSubgraph sub(dag, subject);

  // Strong layer: unconditional, distance-blind, must be consistent.
  // Note the seed-only view: 'd' markers from unlabeled roots are
  // dropped — defaults belong to the weak layer.
  {
    const RightsBag strong_bag = PropagateAggregated(sub, strong_labels);
    bool positive = false;
    bool negative = false;
    for (const RightsEntry& e : strong_bag.entries()) {
      if (e.mode == PropagatedMode::kPositive) positive = true;
      if (e.mode == PropagatedMode::kNegative) negative = true;
    }
    if (positive && negative) {
      return Status::FailedPrecondition(
          "conflicting strong authorizations reach subject '" +
          dag.name(subject) + "'");
    }
    if (positive) return Mode::kPositive;
    if (negative) return Mode::kNegative;
  }

  // Weak layer: the paper's §5 mapping — open default, most-specific
  // wins, residual conflicts deny: exactly D+LP-.
  const RightsBag weak_bag = PropagateAggregated(sub, weak_labels);
  UCR_ASSIGN_OR_RETURN(const Strategy d_plus_lp_minus,
                       ParseStrategy("D+LP-"));
  return Resolve(weak_bag, d_plus_lp_minus);
}

}  // namespace ucr::core
