#ifndef UCR_PAPER_CONSTRAINTS_H_
#define UCR_PAPER_CONSTRAINTS_H_

#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Separation-of-duty and conflict-of-interest constraints over the
/// *effective* access control matrix — the paper's future-work item
/// #4 (§6), following the constraint style of GTRBAC [8] and the role
/// graph model [13].
///
/// Constraints are judged against derived authorizations, so whether a
/// configuration is compliant depends on the active conflict
/// resolution strategy: switching the strategy at run time (the
/// paper's headline feature) can silently create violations, which is
/// exactly what `AuditConstraints` is for.

/// An (object, right) pair — one column of the access control matrix.
struct Permission {
  acm::ObjectId object = 0;
  acm::RightId right = 0;
  bool operator==(const Permission&) const = default;
};

/// Static separation of duty: no subject may hold both permissions
/// effectively (e.g. "submit invoice" and "approve invoice").
struct SodConstraint {
  std::string name;
  Permission first;
  Permission second;
};

/// Conflict-of-interest class: of the listed permissions (e.g. access
/// to each competitor's files), a subject may effectively hold at most
/// `max_granted`.
struct CoiConstraint {
  std::string name;
  std::vector<Permission> permissions;
  size_t max_granted = 1;
};

/// A detected violation: `subject` effectively holds `granted`, which
/// breaks `constraint_name`.
struct ConstraintViolation {
  std::string constraint_name;
  graph::NodeId subject = 0;
  std::vector<Permission> granted;
};

/// \brief A validated collection of constraints.
class ConstraintSet {
 public:
  ConstraintSet() = default;

  /// Adds a separation-of-duty pair. Fails if the two permissions are
  /// equal or the name duplicates an existing constraint.
  Status AddSod(SodConstraint constraint);

  /// Adds a conflict-of-interest class. Fails unless it holds at least
  /// two distinct permissions and 1 <= max_granted < permissions.
  Status AddCoi(CoiConstraint constraint);

  const std::vector<SodConstraint>& sod() const { return sod_; }
  const std::vector<CoiConstraint>& coi() const { return coi_; }
  size_t size() const { return sod_.size() + coi_.size(); }

 private:
  bool NameTaken(const std::string& name) const;

  std::vector<SodConstraint> sod_;
  std::vector<CoiConstraint> coi_;
};

/// Options for `AuditConstraints`.
struct AuditOptions {
  /// Audit only sink subjects (individuals). Groups holding conflicting
  /// permissions are often intentional (they exist to be subdivided),
  /// while an individual holding them is the actual hazard.
  bool sinks_only = true;
};

/// \brief Audits every constraint against the effective matrix of
/// `system` under `strategy`.
///
/// Materializes each referenced (object, right) column once via the
/// whole-hierarchy propagation engine, so the cost is
/// O(distinct permissions x hierarchy) + O(subjects x constraints).
/// Violations are reported in deterministic (constraint, subject)
/// order.
StatusOr<std::vector<ConstraintViolation>> AuditConstraints(
    AccessControlSystem& system, const ConstraintSet& constraints,
    const Strategy& strategy, const AuditOptions& options = {});

}  // namespace ucr::core

#endif  // UCR_PAPER_CONSTRAINTS_H_
