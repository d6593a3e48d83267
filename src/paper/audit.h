#ifndef UCR_PAPER_AUDIT_H_
#define UCR_PAPER_AUDIT_H_

#include <string>
#include <vector>

#include "acm/acm.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "util/status.h"

namespace ucr::core {

/// \file
/// Strategy-migration analysis. The paper's pitch is that an
/// enterprise can switch conflict-resolution strategies without
/// reinstalling its access control system; the responsible way to do
/// that is to diff the *effective* matrix first. This module computes
/// that diff.

/// One subject whose effective decision changes in a migration.
struct MigrationDelta {
  graph::NodeId subject = 0;
  acm::Mode before = acm::Mode::kNegative;
  acm::Mode after = acm::Mode::kNegative;
};

/// Effective-matrix diff of one (object, right) column between two
/// strategies.
struct MigrationReport {
  Strategy from;
  Strategy to;
  acm::ObjectId object = 0;
  acm::RightId right = 0;
  size_t subjects_audited = 0;
  size_t granted_before = 0;
  size_t granted_after = 0;
  /// Subjects that gain access in the migration (denied -> granted).
  std::vector<MigrationDelta> gained;
  /// Subjects that lose access (granted -> denied).
  std::vector<MigrationDelta> lost;

  size_t changed() const { return gained.size() + lost.size(); }

  /// Renders a short human-readable summary; subject names resolved
  /// against `dag`, listing at most `sample` names per direction.
  std::string Summarize(const graph::Dag& dag, size_t sample = 5) const;
};

/// Options for `CompareStrategies`.
struct CompareOptions {
  /// Restrict the audit to sink subjects (individuals).
  bool sinks_only = true;
};

/// \brief Diffs the effective column of (object, right) between
/// `from` and `to`. Two whole-hierarchy propagations — no per-subject
/// extraction.
StatusOr<MigrationReport> CompareStrategies(AccessControlSystem& system,
                                            acm::ObjectId object,
                                            acm::RightId right,
                                            const Strategy& from,
                                            const Strategy& to,
                                            const CompareOptions& options = {});

/// \brief Ranks all 48 strategies by how many subjects the column
/// grants, relative to `baseline` — a quick map of the policy space
/// ("how permissive is each strategy for this object?").
struct StrategyPermissiveness {
  Strategy strategy;
  size_t granted = 0;
};
StatusOr<std::vector<StrategyPermissiveness>> RankStrategies(
    AccessControlSystem& system, acm::ObjectId object, acm::RightId right,
    const CompareOptions& options = {});

}  // namespace ucr::core

#endif  // UCR_PAPER_AUDIT_H_
