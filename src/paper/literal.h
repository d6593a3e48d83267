#ifndef UCR_PAPER_LITERAL_H_
#define UCR_PAPER_LITERAL_H_

#include <cstdint>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \brief The paper-literal oracle end to end: extracts `subject`'s
/// ancestor sub-graph (Step 1), propagates with the Fig. 5 tuple queue
/// (`PropagateLiteral`, Steps 2–3) and resolves with Fig. 4 `Resolve`
/// (Step 4).
///
/// Exponential on diamond stacks by construction, so it is a
/// differential-testing and cost-model oracle, never a serving path.
/// Fails on invalid ids, and with FailedPrecondition when propagation
/// would create more than `max_tuples` tuples.
StatusOr<acm::Mode> ResolveLiteral(
    const graph::Dag& dag, const acm::ExplicitAcm& eacm,
    graph::NodeId subject, acm::ObjectId object, acm::RightId right,
    const Strategy& strategy, PropagationMode mode = PropagationMode::kBoth,
    uint64_t max_tuples = UINT64_MAX, ResolveTrace* trace = nullptr);

}  // namespace ucr::core

#endif  // UCR_PAPER_LITERAL_H_
