#include "core/explain.h"

#include <algorithm>
#include <sstream>

#include "core/propagate.h"
#include "graph/ancestor_subgraph.h"

namespace ucr::core {

namespace {

using acm::Mode;
using acm::PropagatedMode;
using graph::AncestorSubgraph;
using graph::LocalId;

/// The explicit mode after the strategy's default rule, or nullopt if
/// the contribution is dropped (a 'd' under dRule = none).
std::optional<Mode> EffectiveMode(PropagatedMode mode, DefaultRule rule) {
  switch (mode) {
    case PropagatedMode::kPositive:
      return Mode::kPositive;
    case PropagatedMode::kNegative:
      return Mode::kNegative;
    case PropagatedMode::kDefault:
      if (rule == DefaultRule::kPositive) return Mode::kPositive;
      if (rule == DefaultRule::kNegative) return Mode::kNegative;
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::string Explanation::ToString(const graph::Dag& dag) const {
  std::ostringstream out;
  out << (decision == Mode::kPositive ? "GRANTED" : "DENIED") << " by the "
      << deciding_policy << " policy";
  if (trace.c1.has_value()) {
    out << " (c1=" << *trace.c1 << ", c2=" << *trace.c2 << ")";
  }
  out << "\n";
  for (const Contribution& c : contributions) {
    out << "  " << (c.survived_filters ? "* " : "  ") << dag.name(c.source)
        << " '" << acm::PropagatedModeToChar(c.mode) << "' at distance ";
    if (c.min_distance == c.max_distance) {
      out << c.min_distance;
    } else {
      out << c.min_distance << ".." << c.max_distance;
    }
    out << " (" << c.tuple_count
        << (c.tuple_count == 1 ? " path" : " paths") << ")";
    if (!c.survived_filters) out << " [filtered out]";
    out << "\n";
  }
  return out.str();
}

StatusOr<Explanation> ExplainAccess(const graph::Dag& dag,
                                    const acm::ExplicitAcm& eacm,
                                    graph::NodeId subject,
                                    acm::ObjectId object, acm::RightId right,
                                    const Strategy& strategy) {
  if (subject >= dag.node_count()) {
    return Status::OutOfRange("subject id out of range");
  }
  if (object >= eacm.object_count() || right >= eacm.right_count()) {
    return Status::OutOfRange("object/right id out of range");
  }
  const Strategy s = strategy.Canonical();
  const AncestorSubgraph sub(dag, subject);
  const std::vector<std::optional<Mode>> labels =
      eacm.ExtractLabels(dag.node_count(), object, right);
  const std::vector<std::vector<uint64_t>> profiles =
      graph::AllDistanceProfiles(sub);

  // Collect contributing sources and assemble the total bag from
  // their profiles (identical to PropagateAggregated by construction;
  // the test suite pins this).
  Explanation explanation;
  RightsBag bag;
  for (LocalId v = 0; v < sub.member_count(); ++v) {
    const graph::NodeId global = sub.global_id(v);
    std::optional<PropagatedMode> seed;
    if (labels[global].has_value()) {
      seed = acm::ToPropagated(*labels[global]);
    } else if (sub.parents(v).empty()) {
      seed = PropagatedMode::kDefault;
    }
    if (!seed.has_value()) continue;

    Contribution c;
    c.source = global;
    c.mode = *seed;
    c.min_distance = sub.shortest_distance_to_sink(v);
    c.max_distance = sub.longest_distance_to_sink(v);
    c.tuple_count = 0;
    for (size_t len = 0; len < profiles[v].size(); ++len) {
      if (profiles[v][len] == 0) continue;
      c.tuple_count += profiles[v][len];
      bag.Add(static_cast<uint32_t>(len), *seed, profiles[v][len]);
    }
    explanation.contributions.push_back(c);
  }
  bag.Normalize();

  explanation.decision = Resolve(bag, s, &explanation.trace);

  // Reconstruct which sources were visible at the deciding step.
  // First the default rule, then (unless the majority counted the
  // whole bag) the locality filter's target distance.
  uint32_t target_min = UINT32_MAX;
  uint32_t target_max = 0;
  bool any = false;
  for (const RightsEntry& e : bag.entries()) {
    if (!EffectiveMode(e.mode, s.default_rule).has_value()) continue;
    any = true;
    target_min = std::min(target_min, e.dis);
    target_max = std::max(target_max, e.dis);
  }
  const bool counted_whole_bag =
      explanation.trace.returned_line == 6 &&
      s.majority_rule == MajorityRule::kBefore;
  for (Contribution& c : explanation.contributions) {
    if (!EffectiveMode(c.mode, s.default_rule).has_value()) {
      c.survived_filters = false;
      continue;
    }
    if (s.locality_rule == LocalityRule::kIdentity || counted_whole_bag ||
        !any) {
      c.survived_filters = true;
      continue;
    }
    const uint32_t target = s.locality_rule == LocalityRule::kMostSpecific
                                ? target_min
                                : target_max;
    // The source survives if any of its paths hits the target
    // distance.
    const LocalId local = sub.ToLocal(c.source);
    c.survived_filters = target < profiles[local].size() &&
                         profiles[local][target] > 0;
  }

  // Name the deciding policy.
  if (explanation.trace.returned_line == 6) {
    explanation.deciding_policy = "majority";
  } else if (explanation.trace.returned_line == 9) {
    explanation.deciding_policy = "preference";
  } else if (s.locality_rule != LocalityRule::kIdentity) {
    explanation.deciding_policy = "locality";
  } else {
    // Line 8 with no locality filter: a single mode survived on its
    // own. If every surviving contribution is a rewritten default,
    // the default policy decided; otherwise the labels were unanimous.
    bool all_defaults = true;
    for (const Contribution& c : explanation.contributions) {
      if (c.survived_filters && c.mode != PropagatedMode::kDefault) {
        all_defaults = false;
      }
    }
    explanation.deciding_policy = all_defaults ? "default" : "unanimity";
  }

  // Presentation order: explicit labels before defaults, then by
  // proximity, then by id for determinism.
  std::stable_sort(explanation.contributions.begin(),
                   explanation.contributions.end(),
                   [](const Contribution& a, const Contribution& b) {
                     const bool a_default =
                         a.mode == PropagatedMode::kDefault;
                     const bool b_default =
                         b.mode == PropagatedMode::kDefault;
                     if (a_default != b_default) return b_default;
                     if (a.min_distance != b.min_distance) {
                       return a.min_distance < b.min_distance;
                     }
                     return a.source < b.source;
                   });
  return explanation;
}

}  // namespace ucr::core
