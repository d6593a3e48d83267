#include "paper/constraints.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "paper/effective_matrix.h"

namespace ucr::core {

namespace {

uint32_t PermissionKey(const Permission& p) {
  return (static_cast<uint32_t>(p.object) << 16) |
         static_cast<uint32_t>(p.right);
}

}  // namespace

bool ConstraintSet::NameTaken(const std::string& name) const {
  for (const auto& c : sod_) {
    if (c.name == name) return true;
  }
  for (const auto& c : coi_) {
    if (c.name == name) return true;
  }
  return false;
}

Status ConstraintSet::AddSod(SodConstraint constraint) {
  if (constraint.name.empty()) {
    return Status::InvalidArgument("constraint needs a name");
  }
  if (NameTaken(constraint.name)) {
    return Status::AlreadyExists("constraint '" + constraint.name +
                                 "' already defined");
  }
  if (constraint.first == constraint.second) {
    return Status::InvalidArgument(
        "separation of duty needs two distinct permissions");
  }
  sod_.push_back(std::move(constraint));
  return Status::OK();
}

Status ConstraintSet::AddCoi(CoiConstraint constraint) {
  if (constraint.name.empty()) {
    return Status::InvalidArgument("constraint needs a name");
  }
  if (NameTaken(constraint.name)) {
    return Status::AlreadyExists("constraint '" + constraint.name +
                                 "' already defined");
  }
  std::vector<uint32_t> keys;
  for (const Permission& p : constraint.permissions) {
    keys.push_back(PermissionKey(p));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return Status::InvalidArgument(
        "conflict-of-interest class has duplicate permissions");
  }
  if (constraint.permissions.size() < 2) {
    return Status::InvalidArgument(
        "conflict-of-interest class needs at least two permissions");
  }
  if (constraint.max_granted == 0 ||
      constraint.max_granted >= constraint.permissions.size()) {
    return Status::InvalidArgument(
        "max_granted must be in [1, permissions-1]");
  }
  coi_.push_back(std::move(constraint));
  return Status::OK();
}

StatusOr<std::vector<ConstraintViolation>> AuditConstraints(
    AccessControlSystem& system, const ConstraintSet& constraints,
    const Strategy& strategy, const AuditOptions& options) {
  // Materialize each referenced column exactly once.
  std::unordered_map<uint32_t, std::vector<acm::Mode>> columns;
  auto column_of =
      [&](const Permission& p) -> StatusOr<const std::vector<acm::Mode>*> {
    auto it = columns.find(PermissionKey(p));
    if (it == columns.end()) {
      UCR_ASSIGN_OR_RETURN(
          std::vector<acm::Mode> column,
          MaterializeEffectiveColumn(system, p.object, p.right, strategy));
      it = columns.emplace(PermissionKey(p), std::move(column)).first;
    }
    return &it->second;
  };

  const graph::Dag& dag = system.dag();
  auto audited = [&](graph::NodeId v) {
    return !options.sinks_only || dag.is_sink(v);
  };

  std::vector<ConstraintViolation> violations;

  for (const SodConstraint& c : constraints.sod()) {
    UCR_ASSIGN_OR_RETURN(const std::vector<acm::Mode>* first,
                         column_of(c.first));
    UCR_ASSIGN_OR_RETURN(const std::vector<acm::Mode>* second,
                         column_of(c.second));
    for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
      if (!audited(v)) continue;
      if ((*first)[v] == acm::Mode::kPositive &&
          (*second)[v] == acm::Mode::kPositive) {
        violations.push_back(
            ConstraintViolation{c.name, v, {c.first, c.second}});
      }
    }
  }

  for (const CoiConstraint& c : constraints.coi()) {
    std::vector<const std::vector<acm::Mode>*> cols;
    for (const Permission& p : c.permissions) {
      UCR_ASSIGN_OR_RETURN(const std::vector<acm::Mode>* col, column_of(p));
      cols.push_back(col);
    }
    for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
      if (!audited(v)) continue;
      std::vector<Permission> granted;
      for (size_t i = 0; i < cols.size(); ++i) {
        if ((*cols[i])[v] == acm::Mode::kPositive) {
          granted.push_back(c.permissions[i]);
        }
      }
      if (granted.size() > c.max_granted) {
        violations.push_back(
            ConstraintViolation{c.name, v, std::move(granted)});
      }
    }
  }
  return violations;
}

}  // namespace ucr::core
