#ifndef UCR_PAPER_WEAK_STRONG_H_
#define UCR_PAPER_WEAK_STRONG_H_

#include <vector>

#include "acm/mode.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Emulation of Bertino et al.'s weak/strong authorization model [1],
/// the related-work system the paper's §5 singles out: "They also
/// introduce the concept of weak and strong authorizations, which is
/// equivalent to using our combined strategy instance D+LP-."
///
/// Model, as adapted to subject hierarchies:
///  * A *strong* authorization cannot be overridden: it applies to the
///    subject and all its members unconditionally. Two strong
///    authorizations of opposite mode must never both reach a subject
///    (the model requires strong consistency; we surface a violation
///    as FailedPrecondition at decision time).
///  * A *weak* authorization can be overridden by a more specific weak
///    authorization; ties among equally specific weak authorizations
///    resolve to denial; with no reachable authorization at all the
///    system is open (default positive).
///
/// The adapter resolves the strong layer first and falls back to the
/// weak layer evaluated with this library's unified algorithm — and
/// the test suite *verifies the paper's §5 equivalence claim*: with no
/// strong authorizations, `WeakStrongDecide` agrees with
/// `Resolve(D+LP-)` on randomized hierarchies.

/// One weak or strong authorization on a subject (for an implicit
/// object/right pair — the model is evaluated per column).
struct WeakStrongAuthorization {
  graph::NodeId subject = 0;
  acm::Mode mode = acm::Mode::kPositive;
  bool strong = false;
};

/// \brief Derives the effective decision for `subject` under the
/// weak/strong model.
///
/// Fails with FailedPrecondition if conflicting strong authorizations
/// reach the subject, with InvalidArgument on duplicate-subject
/// authorizations in one layer, and with OutOfRange on unknown ids.
StatusOr<acm::Mode> WeakStrongDecide(
    const graph::Dag& dag,
    const std::vector<WeakStrongAuthorization>& authorizations,
    graph::NodeId subject);

}  // namespace ucr::core

#endif  // UCR_PAPER_WEAK_STRONG_H_
