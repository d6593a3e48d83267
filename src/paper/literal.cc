#include "paper/literal.h"

#include <optional>
#include <string>
#include <vector>

#include "graph/ancestor_subgraph.h"

namespace ucr::core {

StatusOr<acm::Mode> ResolveLiteral(const graph::Dag& dag,
                                   const acm::ExplicitAcm& eacm,
                                   graph::NodeId subject, acm::ObjectId object,
                                   acm::RightId right, const Strategy& strategy,
                                   PropagationMode mode, uint64_t max_tuples,
                                   ResolveTrace* trace) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id " + std::to_string(subject) +
                              " out of range");
  }
  if (object >= eacm.object_count() || right >= eacm.right_count()) {
    return Status::OutOfRange("object/right id out of range");
  }
  const graph::AncestorSubgraph sub(dag, subject);
  const std::vector<std::optional<acm::Mode>> labels =
      eacm.ExtractLabels(dag.node_count(), object, right);
  PropagateOptions options;
  options.propagation_mode = mode;
  UCR_ASSIGN_OR_RETURN(
      const RightsBag all_rights,
      PropagateLiteral(sub, labels, options, nullptr, max_tuples));
  return Resolve(all_rights, strategy, trace);
}

}  // namespace ucr::core
