#ifndef UCR_PAPER_PAPER_EXAMPLE_H_
#define UCR_PAPER_PAPER_EXAMPLE_H_

#include "acm/acm.h"
#include "graph/dag.h"

namespace ucr::core {

/// \brief The paper's motivating example (Fig. 1), reconstructed.
///
/// Nine subjects: S1..S8 and User. Group-membership edges:
///
///     S1 -> S3          S2 -> S3    S2 -> User
///     S3 -> S4          S3 -> S5
///     S5 -> User        S6 -> S5    S6 -> User
///     S4 -> S7          S4 -> S8
///
/// Explicit authorizations on object "obj" for right "read":
/// S2 = '+', S4 = '+', S5 = '-'.
///
/// The sub-hierarchy of User (Fig. 3), its propagated relation P
/// (Table 4), User's allRights (Table 1), the 48 strategy outcomes
/// (Table 2), and the Resolve() traces (Table 3) are all derivable
/// from this fixture; the test suite checks each of them. S4's subtree
/// (S7, S8) lies outside User's ancestry — the paper does not pin that
/// part of Fig. 1 down, and no published table depends on it.
struct PaperExample {
  graph::Dag dag;
  acm::ExplicitAcm eacm;
  acm::ObjectId obj;
  acm::RightId read;
  graph::NodeId user;  ///< The subject queried throughout the paper.
};

/// Builds the fixture. Construction cannot fail; failures inside
/// (impossible by construction) abort.
PaperExample MakePaperExample();

/// The same fixture with the paper's §1.1 hypothetical extension: an
/// edge S1 -> S2 and an explicit '+' on S1 (the university/referee
/// scenario motivating the globality policy).
PaperExample MakeRefereeExample();

}  // namespace ucr::core

#endif  // UCR_PAPER_PAPER_EXAMPLE_H_
