#include "paper/dominance.h"

#include <cassert>
#include <optional>
#include <vector>

namespace ucr::core {

namespace {

using acm::Mode;

/// The label Dominance() sees on `node`: its explicit mode, or the
/// default mode if it is an unlabeled root and a default policy is on.
std::optional<Mode> NodeLabel(const graph::Dag& dag, LabelView labels,
                              graph::NodeId node, DefaultRule default_rule) {
  if (labels[node].has_value()) return labels[node];
  if (dag.is_root(node)) {
    if (default_rule == DefaultRule::kPositive) return Mode::kPositive;
    if (default_rule == DefaultRule::kNegative) return Mode::kNegative;
  }
  return std::nullopt;
}

}  // namespace

acm::Mode Dominance(const graph::Dag& dag, LabelView labels,
                    graph::NodeId subject, DefaultRule default_rule,
                    PreferenceRule preference, DominanceStats* stats) {
  assert(subject < dag.node_count());
  assert(labels.size() >= dag.node_count());

  const Mode preferred = preference == PreferenceRule::kPositive
                             ? Mode::kPositive
                             : Mode::kNegative;
  DominanceStats local_stats;
  DominanceStats& st = stats != nullptr ? *stats : local_stats;
  st = DominanceStats{};

  std::vector<char> visited(dag.node_count(), 0);
  std::vector<graph::NodeId> frontier{subject};
  visited[subject] = 1;

  std::vector<graph::NodeId> next;
  while (!frontier.empty()) {
    bool saw_non_preferred = false;
    for (graph::NodeId v : frontier) {
      ++st.nodes_visited;
      const std::optional<Mode> label =
          NodeLabel(dag, labels, v, default_rule);
      if (!label.has_value()) continue;
      if (*label == preferred) {
        // Shortcut: at the nearest labeled level, a preferred-mode
        // label wins whether the level is uniform or mixed.
        st.early_exit = true;
        return preferred;
      }
      saw_non_preferred = true;
    }
    if (saw_non_preferred) {
      // The nearest labeled level contains only the non-preferred
      // mode: it survives the most-specific filter uncontested.
      return preferred == Mode::kPositive ? Mode::kNegative
                                          : Mode::kPositive;
    }
    next.clear();
    for (graph::NodeId v : frontier) {
      for (graph::NodeId p : dag.parents(v)) {
        if (!visited[p]) {
          visited[p] = 1;
          next.push_back(p);
        }
      }
    }
    frontier.swap(next);
    if (!frontier.empty()) ++st.levels;
  }

  // No authorization anywhere in the ancestor closure (possible only
  // with default_rule = kNone): the preference rule decides.
  return preferred;
}

namespace {

/// Tri-state result of a per-path exploration.
enum class PathwiseOutcome : uint8_t {
  kNone = 0,       // No authorization on any explored path.
  kPreferred,      // Some path's most specific label is the preferred mode.
  kNonPreferred,   // Labels found, all of the non-preferred mode.
};

struct PathwiseContext {
  const graph::Dag* dag;
  LabelView labels;
  DefaultRule default_rule;
  acm::Mode preferred;
  DominanceStats* stats;
  uint64_t steps_left;
  bool budget_exhausted = false;
};

/// Per-path most-specific evaluation: a path stops at its first
/// labeled node; sibling paths merge under the preference rule, with
/// short-circuit once the preferred mode is established.
PathwiseOutcome Explore(PathwiseContext& ctx, graph::NodeId node) {
  if (ctx.steps_left == 0) {
    ctx.budget_exhausted = true;
    return PathwiseOutcome::kNone;
  }
  --ctx.steps_left;
  if (ctx.stats != nullptr) ++ctx.stats->nodes_visited;

  const std::optional<Mode> label =
      NodeLabel(*ctx.dag, ctx.labels, node, ctx.default_rule);
  if (label.has_value()) {
    return *label == ctx.preferred ? PathwiseOutcome::kPreferred
                                   : PathwiseOutcome::kNonPreferred;
  }
  PathwiseOutcome merged = PathwiseOutcome::kNone;
  for (graph::NodeId p : ctx.dag->parents(node)) {
    const PathwiseOutcome up = Explore(ctx, p);
    if (up == PathwiseOutcome::kPreferred) {
      if (ctx.stats != nullptr) ctx.stats->early_exit = true;
      return PathwiseOutcome::kPreferred;  // Prune remaining parents.
    }
    if (up == PathwiseOutcome::kNonPreferred) merged = up;
    if (ctx.budget_exhausted) break;
  }
  return merged;
}

}  // namespace

StatusOr<acm::Mode> DominancePathwise(const graph::Dag& dag, LabelView labels,
                                      graph::NodeId subject,
                                      DefaultRule default_rule,
                                      PreferenceRule preference,
                                      DominanceStats* stats,
                                      uint64_t max_steps) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  if (stats != nullptr) *stats = DominanceStats{};
  PathwiseContext ctx{&dag,
                      labels,
                      default_rule,
                      preference == PreferenceRule::kPositive
                          ? Mode::kPositive
                          : Mode::kNegative,
                      stats,
                      max_steps};
  const PathwiseOutcome outcome = Explore(ctx, subject);
  if (ctx.budget_exhausted) {
    return Status::FailedPrecondition(
        "DominancePathwise exceeded max_steps (path explosion)");
  }
  switch (outcome) {
    case PathwiseOutcome::kPreferred:
      return ctx.preferred;
    case PathwiseOutcome::kNonPreferred:
      return acm::Negate(ctx.preferred);
    case PathwiseOutcome::kNone:
      return ctx.preferred;  // Nothing derivable: the preference rule.
  }
  return Status::Internal("unreachable");
}

StatusOr<acm::Mode> DominanceAccess(const graph::Dag& dag,
                                    const acm::ExplicitAcm& eacm,
                                    graph::NodeId subject,
                                    acm::ObjectId object, acm::RightId right,
                                    DefaultRule default_rule,
                                    PreferenceRule preference,
                                    DominanceStats* stats) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  const std::vector<std::optional<acm::Mode>> labels =
      eacm.ExtractLabels(dag.node_count(), object, right);
  return Dominance(dag, labels, subject, default_rule, preference, stats);
}

}  // namespace ucr::core
