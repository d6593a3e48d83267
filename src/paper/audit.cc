#include "paper/audit.h"

#include <algorithm>

#include "paper/effective_matrix.h"

namespace ucr::core {

std::string MigrationReport::Summarize(const graph::Dag& dag,
                                       size_t sample) const {
  std::string out;
  out += "migration " + from.ToMnemonic() + " -> " + to.ToMnemonic() + ": ";
  out += std::to_string(granted_before) + "/" +
         std::to_string(subjects_audited) + " granted before, " +
         std::to_string(granted_after) + " after; " +
         std::to_string(gained.size()) + " gain, " +
         std::to_string(lost.size()) + " lose";
  auto list = [&](const char* label,
                  const std::vector<MigrationDelta>& deltas) {
    if (deltas.empty()) return;
    out += std::string("; ") + label + ":";
    for (size_t i = 0; i < deltas.size() && i < sample; ++i) {
      out += " " + dag.name(deltas[i].subject);
    }
    if (deltas.size() > sample) out += " ...";
  };
  list("gained", gained);
  list("lost", lost);
  return out;
}

StatusOr<MigrationReport> CompareStrategies(AccessControlSystem& system,
                                            acm::ObjectId object,
                                            acm::RightId right,
                                            const Strategy& from,
                                            const Strategy& to,
                                            const CompareOptions& options) {
  UCR_ASSIGN_OR_RETURN(
      const std::vector<acm::Mode> before,
      MaterializeEffectiveColumn(system, object, right, from));
  UCR_ASSIGN_OR_RETURN(const std::vector<acm::Mode> after,
                       MaterializeEffectiveColumn(system, object, right, to));

  MigrationReport report;
  report.from = from.Canonical();
  report.to = to.Canonical();
  report.object = object;
  report.right = right;
  const graph::Dag& dag = system.dag();
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    if (options.sinks_only && !dag.is_sink(v)) continue;
    ++report.subjects_audited;
    const bool b = before[v] == acm::Mode::kPositive;
    const bool a = after[v] == acm::Mode::kPositive;
    report.granted_before += b ? 1 : 0;
    report.granted_after += a ? 1 : 0;
    if (!b && a) {
      report.gained.push_back(MigrationDelta{v, before[v], after[v]});
    } else if (b && !a) {
      report.lost.push_back(MigrationDelta{v, before[v], after[v]});
    }
  }
  return report;
}

StatusOr<std::vector<StrategyPermissiveness>> RankStrategies(
    AccessControlSystem& system, acm::ObjectId object, acm::RightId right,
    const CompareOptions& options) {
  const graph::Dag& dag = system.dag();
  std::vector<StrategyPermissiveness> ranking;
  for (const Strategy& s : AllStrategies()) {
    UCR_ASSIGN_OR_RETURN(
        const std::vector<acm::Mode> column,
        MaterializeEffectiveColumn(system, object, right, s));
    StrategyPermissiveness entry;
    entry.strategy = s;
    for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
      if (options.sinks_only && !dag.is_sink(v)) continue;
      if (column[v] == acm::Mode::kPositive) ++entry.granted;
    }
    ranking.push_back(entry);
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const StrategyPermissiveness& a,
                      const StrategyPermissiveness& b) {
                     return a.granted > b.granted;
                   });
  return ranking;
}

}  // namespace ucr::core
