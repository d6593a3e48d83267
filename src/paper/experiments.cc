#include "paper/experiments.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "acm/acm.h"
#include "acm/assignment.h"
#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/dominance.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace ucr::workload {

namespace {

using acm::ExplicitAcm;
using acm::Mode;
using graph::AncestorSubgraph;
using graph::Dag;

/// The propagation sources of `sub` given `labels`: explicitly labeled
/// members plus unlabeled roots (which carry the 'd' marker). Their
/// total path length to the sink is the paper's cost metric `d`.
uint64_t MeasureD(const AncestorSubgraph& sub,
                  std::span<const std::optional<Mode>> labels) {
  std::vector<graph::LocalId> sources;
  for (graph::LocalId v = 0; v < sub.member_count(); ++v) {
    if (labels[sub.global_id(v)].has_value() || sub.parents(v).empty()) {
      sources.push_back(v);
    }
  }
  return sub.TotalPathLength(sources);
}

}  // namespace

StatusOr<std::vector<KdagSweepRow>> RunKdagSweep(
    const KdagSweepOptions& options) {
  if (options.rate_step <= 0.0 || options.rate_min <= 0.0 ||
      options.rate_max < options.rate_min) {
    return Status::InvalidArgument("malformed rate sweep bounds");
  }
  if (options.repetitions == 0) {
    return Status::InvalidArgument("need at least one repetition");
  }

  std::vector<double> rates;
  for (double rate = options.rate_min; rate <= options.rate_max + 1e-12;
       rate += options.rate_step) {
    rates.push_back(rate);
  }

  std::vector<KdagSweepRow> rows;
  Random rng(options.seed);
  for (size_t n : options.sizes) {
    // The paper draws a fresh random KDAG per configuration; for a
    // complete DAG the structure is unique up to node identity, so one
    // graph per size serves every rate point.
    UCR_ASSIGN_OR_RETURN(const Dag dag, graph::GenerateKDag(n, rng));
    const size_t edge_count = dag.edge_count();
    std::vector<graph::NodeId> edge_sources;
    edge_sources.reserve(edge_count);
    for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
      for (size_t i = 0; i < dag.children(v).size(); ++i) {
        edge_sources.push_back(v);
      }
    }
    // The KDAG sink is its last node by construction ("K<n-1>").
    const graph::NodeId sink = static_cast<graph::NodeId>(n - 1);
    const AncestorSubgraph sub(dag, sink);

    std::vector<RunningStats> time_us(rates.size());
    std::vector<RunningStats> tuples(rates.size());
    std::vector<RunningStats> labeled(rates.size());

    for (size_t rep = 0; rep < options.repetitions; ++rep) {
      // Common random numbers across the rate sweep: one edge
      // permutation per repetition, each rate labels a prefix of it —
      // the marginal per-point distribution matches independent
      // sampling while the rate curve within a repetition is monotone,
      // which is what makes the published linear trend visible at
      // modest repetition counts (KDAG source costs are heavy-tailed).
      const std::vector<size_t> perm =
          rng.SampleWithoutReplacement(edge_count, edge_count);
      for (size_t ri = 0; ri < rates.size(); ++ri) {
        size_t to_draw = static_cast<size_t>(std::llround(
            rates[ri] * static_cast<double>(edge_count)));
        to_draw = std::max<size_t>(1, std::min(to_draw, edge_count));

        ExplicitAcm eacm;
        UCR_ASSIGN_OR_RETURN(const acm::ObjectId obj,
                             eacm.InternObject("obj"));
        UCR_ASSIGN_OR_RETURN(const acm::RightId read,
                             eacm.InternRight("read"));
        size_t count = 0;
        for (size_t e = 0; e < to_draw; ++e) {
          const graph::NodeId source = edge_sources[perm[e]];
          if (eacm.Get(source, obj, read).has_value()) continue;
          UCR_RETURN_IF_ERROR(eacm.Set(source, obj, read,
                                       (count % 2 == 0) ? Mode::kPositive
                                                        : Mode::kNegative));
          ++count;
        }
        labeled[ri].Add(static_cast<double>(count));

        const std::vector<std::optional<Mode>> labels =
            eacm.ExtractLabels(dag.node_count(), obj, read);
        core::PropagateStats stats;
        Stopwatch watch;
        auto bag = core::PropagateLiteral(sub, labels, {}, &stats,
                                          options.max_tuples);
        const double elapsed = watch.ElapsedMicros();
        UCR_RETURN_IF_ERROR(bag.status());
        time_us[ri].Add(elapsed);
        tuples[ri].Add(static_cast<double>(stats.tuples_processed));
      }
    }

    for (size_t ri = 0; ri < rates.size(); ++ri) {
      KdagSweepRow row;
      row.n = n;
      row.rate = rates[ri];
      row.repetitions = options.repetitions;
      row.mean_us = time_us[ri].Mean();
      row.stddev_us = time_us[ri].StdDev();
      row.mean_tuples = tuples[ri].Mean();
      row.mean_labeled = labeled[ri].Mean();
      rows.push_back(row);
    }
  }
  return rows;
}

StatusOr<EnterpriseExperimentResult> RunEnterpriseExperiment(
    const EnterpriseExperimentOptions& options) {
  core::Strategy strategy;
  if (options.strategy.has_value()) {
    strategy = options.strategy->Canonical();
  } else {
    UCR_ASSIGN_OR_RETURN(strategy, core::ParseStrategy("D+LP-"));
  }
  if (strategy.locality_rule != core::LocalityRule::kMostSpecific ||
      strategy.majority_rule != core::MajorityRule::kSkip) {
    return Status::InvalidArgument(
        "Dominance() evaluates the D*LP*/LP* family only; strategy must use "
        "most-specific locality and no majority policy");
  }
  if (options.negative_fractions.empty()) {
    return Status::InvalidArgument("need at least one negative fraction");
  }

  Random rng(options.seed);
  UCR_ASSIGN_OR_RETURN(const Dag dag,
                       GenerateEnterpriseHierarchy(options.enterprise, rng));

  // One EACM per negative-placement trial, labeling the *same*
  // subjects (identical RNG stream) so placement is the only variable.
  std::vector<ExplicitAcm> eacms;
  std::vector<std::vector<std::optional<Mode>>> label_views;
  acm::ObjectId obj = 0;
  acm::RightId read = 0;
  const uint64_t assign_seed = rng.NextU64();
  for (double neg : options.negative_fractions) {
    ExplicitAcm eacm;
    UCR_ASSIGN_OR_RETURN(obj, eacm.InternObject("obj"));
    UCR_ASSIGN_OR_RETURN(read, eacm.InternRight("read"));
    acm::RandomAssignmentOptions assign;
    assign.authorization_rate = options.authorization_rate;
    assign.negative_fraction = neg;
    Random assign_rng(assign_seed);
    UCR_RETURN_IF_ERROR(acm::AssignRandomAuthorizations(
                            dag, obj, read, assign, assign_rng, &eacm)
                            .status());
    label_views.push_back(eacm.ExtractLabels(dag.node_count(), obj, read));
    eacms.push_back(std::move(eacm));
  }

  // Measure individual users, as the paper did ("1582 sinks
  // (individual users), each of which represents a real-world
  // sample"). Childless groups are technically sinks too but are not
  // users; fall back to all sinks for hierarchies without user nodes.
  std::vector<graph::NodeId> sinks;
  for (graph::NodeId v : dag.Sinks()) {
    if (dag.name(v).rfind("user", 0) == 0) sinks.push_back(v);
  }
  if (sinks.empty()) sinks = dag.Sinks();
  if (options.max_sinks > 0 && sinks.size() > options.max_sinks) {
    sinks.resize(options.max_sinks);
  }

  const size_t reps = std::max<size_t>(1, options.timing_reps);
  EnterpriseExperimentResult result;
  RunningStats resolve_stats;
  RunningStats dominance_stats;

  for (graph::NodeId sink : sinks) {
    const AncestorSubgraph sub(dag, sink);
    SinkMeasurement m;
    m.sink = sink;
    m.subgraph_nodes = sub.member_count();
    m.subgraph_depth = sub.depth();
    // Resolve()'s propagation work is placement-independent (the tuple
    // flow ignores label signs), so measure it on the first trial.
    m.d = MeasureD(sub, label_views[0]);

    double best_resolve = 0.0;
    for (size_t rep = 0; rep < reps; ++rep) {
      core::PropagateStats pstats;
      Stopwatch watch;
      auto bag = core::PropagateLiteral(sub, label_views[0], {}, &pstats);
      UCR_RETURN_IF_ERROR(bag.status());
      m.resolve_mode = core::Resolve(*bag, strategy);
      const double us = watch.ElapsedMicros();
      best_resolve = rep == 0 ? us : std::min(best_resolve, us);
      m.resolve_tuples = pstats.tuples_processed;
    }
    m.resolve_us = best_resolve;

    // Dominance(): mean over the placement trials (paper: three
    // trials averaged per data point). The baseline is the per-path
    // reconstruction, whose cost is placement-dependent exactly as the
    // paper describes; see core::DominancePathwise.
    const core::PreferenceRule pref = strategy.preference_rule;
    const core::DefaultRule def = strategy.default_rule;
    RunningStats per_sink;
    RunningStats per_sink_steps;
    for (size_t trial = 0; trial < eacms.size(); ++trial) {
      double best = 0.0;
      for (size_t rep = 0; rep < reps; ++rep) {
        core::DominanceStats dstats;
        Stopwatch watch;
        auto baseline = core::DominancePathwise(
            dag, label_views[trial], sink, def, pref, &dstats,
            /*max_steps=*/500'000'000);
        const double us = watch.ElapsedMicros();
        UCR_RETURN_IF_ERROR(baseline.status());
        best = rep == 0 ? us : std::min(best, us);
        if (rep == 0) {
          per_sink_steps.Add(static_cast<double>(dstats.nodes_visited));
        }
      }
      per_sink.Add(best);
    }
    m.dominance_us = per_sink.Mean();
    m.dominance_steps = per_sink_steps.Mean();

    resolve_stats.Add(m.resolve_us);
    dominance_stats.Add(m.dominance_us);
    result.rows.push_back(m);
  }

  result.resolve_mean_us = resolve_stats.Mean();
  result.dominance_mean_us = dominance_stats.Mean();
  result.resolve_overhead_pct =
      result.dominance_mean_us > 0.0
          ? (result.resolve_mean_us / result.dominance_mean_us - 1.0) * 100.0
          : 0.0;
  RunningStats work_resolve;
  RunningStats work_dominance;
  for (const SinkMeasurement& m : result.rows) {
    work_resolve.Add(static_cast<double>(m.resolve_tuples));
    work_dominance.Add(m.dominance_steps);
  }
  result.resolve_work_overhead_pct =
      work_dominance.Mean() > 0.0
          ? (work_resolve.Mean() / work_dominance.Mean() - 1.0) * 100.0
          : 0.0;
  result.hierarchy_stats = ComputeEnterpriseStats(dag);
  return result;
}

}  // namespace ucr::workload
