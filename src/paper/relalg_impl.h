#ifndef UCR_PAPER_RELALG_IMPL_H_
#define UCR_PAPER_RELALG_IMPL_H_

#include <string>
#include <string_view>

#include "acm/acm.h"
#include "core/resolve.h"
#include "core/rights_bag.h"
#include "core/strategy.h"
#include "graph/dag.h"
#include "relalg/relation.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Paper-literal implementations of Function Propagate() (Fig. 5) and
/// Algorithm Resolve() (Fig. 4), transcribed operator-for-operator
/// onto the `ucr::relalg` engine. These are the *reference* versions:
/// slow by construction, but in one-to-one correspondence with the
/// published pseudocode, and differentially tested against the native
/// engine on every strategy.
///
/// One documented deviation from Fig. 5: the paper joins the explicit
/// matrix with SDAG' (an *edge* relation) to seed P (line 3) and
/// derives roots from SDAG' columns (line 4). Both steps drop the
/// query subject itself — it never appears in SDAG's subject column
/// because it is the sole sink — and break entirely when the subject
/// has no ancestors (SDAG' has no tuples). We seed from the *node set*
/// of the sub-hierarchy instead (ancestors(s), which includes s by the
/// paper's own definition), matching the worked examples: Fig. 5's
/// line-6 filter σ subject≠s only makes sense if P can contain
/// distance-0 tuples of s.

/// Builds the SDAG relation ⟨subject:str, child:str⟩ from `dag`.
relalg::Relation BuildSdagRelation(const graph::Dag& dag);

/// Builds the EACM relation ⟨subject:str, object:str, right:str,
/// mode:str⟩ from `eacm` with subject names from `dag`.
relalg::Relation BuildEacmRelation(const acm::ExplicitAcm& eacm,
                                   const graph::Dag& dag);

/// The ancestors of `subject` (including itself), as a ⟨subject:str⟩
/// set relation, computed by a relational fixpoint over `sdag`.
StatusOr<relalg::Relation> AncestorsRelalg(const relalg::Relation& sdag,
                                           std::string_view subject);

/// Function Propagate() (Fig. 5): the `allRights` relation
/// ⟨subject, object, right, dis:int, mode⟩ of `subject` for
/// (object, right) — σ subject=s of the full propagation relation P.
StatusOr<relalg::Relation> PropagateRelalg(const relalg::Relation& sdag,
                                           const relalg::Relation& eacm,
                                           std::string_view subject,
                                           std::string_view object,
                                           std::string_view right);

/// Fig. 5 without the final selection: the entire relation P
/// (the paper's Table 4).
StatusOr<relalg::Relation> PropagateRelalgFullP(const relalg::Relation& sdag,
                                                const relalg::Relation& eacm,
                                                std::string_view subject,
                                                std::string_view object,
                                                std::string_view right);

/// Algorithm Resolve() (Fig. 4) lines 2–9 on an `allRights` relation.
StatusOr<acm::Mode> ResolveRelalg(const relalg::Relation& all_rights,
                                  const Strategy& strategy,
                                  ResolveTrace* trace = nullptr);

/// End-to-end: build relations, propagate, resolve — the whole paper
/// pipeline on the relational engine.
StatusOr<acm::Mode> ResolveAccessRelalg(const graph::Dag& dag,
                                        const acm::ExplicitAcm& eacm,
                                        graph::NodeId subject,
                                        acm::ObjectId object,
                                        acm::RightId right,
                                        const Strategy& strategy,
                                        ResolveTrace* trace = nullptr);

/// Converts an `allRights` relation into the native bag representation
/// (for differential tests against the native engines).
StatusOr<RightsBag> RelationToRightsBag(const relalg::Relation& all_rights);

}  // namespace ucr::core

#endif  // UCR_PAPER_RELALG_IMPL_H_
