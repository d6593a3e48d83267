#include "paper/mixed.h"

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/propagate.h"
#include "core/resolve.h"
#include "graph/ancestor_subgraph.h"
#include "graph/generators.h"
#include "paper/paper_example.h"
#include "util/random.h"

namespace ucr::core {
namespace {

using acm::Mode;
using acm::PropagatedMode;
using graph::Dag;

Dag Build(std::initializer_list<std::pair<const char*, const char*>> edges,
          std::initializer_list<const char*> extra_nodes = {}) {
  graph::DagBuilder b;
  for (const char* n : extra_nodes) b.AddNode(n);
  for (const auto& [p, c] : edges) EXPECT_TRUE(b.AddEdge(p, c).ok());
  auto dag = std::move(b).Build();
  EXPECT_TRUE(dag.ok());
  return std::move(dag).value();
}

Dag SingleNode(const char* name) { return Build({}, {name}); }

TEST(DistanceProfileTest, DiamondWithShortcut) {
  const Dag dag = Build({{"t", "a"}, {"t", "b"}, {"a", "s"}, {"b", "s"},
                         {"t", "s"}});
  const auto profile =
      DistanceProfile(dag, dag.FindNode("t"), dag.FindNode("s"));
  // One path of length 1 (direct), two of length 2 (via a, via b).
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0], 0u);
  EXPECT_EQ(profile[1], 1u);
  EXPECT_EQ(profile[2], 2u);
}

TEST(DistanceProfileTest, SelfAndUnreachable) {
  const Dag dag = Build({{"a", "b"}}, {"c"});
  const auto self = DistanceProfile(dag, dag.FindNode("b"), dag.FindNode("b"));
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 1u);  // The empty path.
  EXPECT_TRUE(
      DistanceProfile(dag, dag.FindNode("c"), dag.FindNode("b")).empty());
  EXPECT_TRUE(
      DistanceProfile(dag, dag.FindNode("b"), dag.FindNode("a")).empty());
}

TEST(MixedTest, FolderChainHandExample) {
  const Dag subjects = Build({{"g", "u"}});
  const Dag objects = Build({{"folder", "doc"}});
  std::vector<MixedAuthorization> auths{
      {subjects.FindNode("g"), objects.FindNode("folder"), Mode::kPositive}};
  auto bag = MixedPropagate(subjects, objects, auths, subjects.FindNode("u"),
                            objects.FindNode("doc"));
  ASSERT_TRUE(bag.ok());
  // The grant travels one subject edge + one object edge: distance 2.
  // The sole (subject-root, object-root) pair is labeled, so no 'd'.
  RightsBag expected;
  expected.Add(2, PropagatedMode::kPositive);
  expected.Normalize();
  EXPECT_EQ(*bag, expected) << bag->ToString();
}

TEST(MixedTest, UnlabeledRootPairGetsDefault) {
  const Dag subjects = Build({{"g", "u"}});
  const Dag objects = Build({{"folder", "doc"}});
  auto bag = MixedPropagate(subjects, objects, {}, subjects.FindNode("u"),
                            objects.FindNode("doc"));
  ASSERT_TRUE(bag.ok());
  RightsBag expected;
  expected.Add(2, PropagatedMode::kDefault);
  expected.Normalize();
  EXPECT_EQ(*bag, expected) << bag->ToString();
}

// With a single-node object hierarchy the mixed model must reduce to
// the paper's subject-only model, tuple for tuple and decision for
// decision — the key backward-compatibility property.
TEST(MixedTest, DegeneratesToSubjectOnlyModel) {
  const PaperExample ex = MakePaperExample();
  const Dag object_dag = SingleNode("obj");

  std::vector<MixedAuthorization> auths;
  for (const auto& e : ex.eacm.SortedEntries()) {
    auths.push_back(MixedAuthorization{e.subject, 0, e.mode});
  }

  auto mixed_bag =
      MixedPropagate(ex.dag, object_dag, auths, ex.user, 0);
  ASSERT_TRUE(mixed_bag.ok());

  const graph::AncestorSubgraph sub(ex.dag, ex.user);
  const auto labels =
      ex.eacm.ExtractLabels(ex.dag.node_count(), ex.obj, ex.read);
  const RightsBag subject_only = PropagateAggregated(sub, labels);
  EXPECT_EQ(*mixed_bag, subject_only)
      << "mixed: " << mixed_bag->ToString()
      << " subject-only: " << subject_only.ToString();

  for (const Strategy& s : AllStrategies()) {
    auto mixed_mode =
        MixedResolveAccess(ex.dag, object_dag, auths, ex.user, 0, s);
    ASSERT_TRUE(mixed_mode.ok());
    EXPECT_EQ(*mixed_mode, Resolve(subject_only, s)) << s.ToMnemonic();
  }
}

// The construction is symmetric in the two hierarchies.
TEST(MixedTest, SubjectObjectSymmetry) {
  Random rng(42);
  auto subjects = graph::GenerateLayeredDag({.layers = 3, .nodes_per_layer = 3},
                                            rng);
  auto objects = graph::GenerateLayeredDag({.layers = 2, .nodes_per_layer = 4},
                                           rng);
  ASSERT_TRUE(subjects.ok());
  ASSERT_TRUE(objects.ok());

  std::vector<MixedAuthorization> auths;
  for (graph::NodeId s = 0; s < subjects->node_count(); ++s) {
    for (graph::NodeId o = 0; o < objects->node_count(); ++o) {
      if (rng.Bernoulli(0.1)) {
        auths.push_back(MixedAuthorization{
            s, o, rng.Bernoulli(0.5) ? Mode::kPositive : Mode::kNegative});
      }
    }
  }
  std::vector<MixedAuthorization> swapped;
  for (const auto& a : auths) {
    swapped.push_back(MixedAuthorization{a.object, a.subject, a.mode});
  }

  const graph::NodeId qs = subjects->Sinks().front();
  const graph::NodeId qo = objects->Sinks().front();
  auto forward = MixedPropagate(*subjects, *objects, auths, qs, qo);
  auto backward = MixedPropagate(*objects, *subjects, swapped, qo, qs);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(*forward, *backward);
}

TEST(MixedTest, JointSpecificityTiesFallToPreference) {
  // Auth A at subject-distance 1 + object-distance 1; auth B at
  // subject-distance 0 + object-distance 2: equal joint distance.
  const Dag subjects = Build({{"team", "u"}});
  const Dag objects = Build({{"drive", "folder"}, {"folder", "doc"}});
  std::vector<MixedAuthorization> auths{
      {subjects.FindNode("team"), objects.FindNode("folder"),
       Mode::kPositive},
      {subjects.FindNode("u"), objects.FindNode("drive"), Mode::kNegative}};
  const graph::NodeId u = subjects.FindNode("u");
  const graph::NodeId doc = objects.FindNode("doc");

  ResolveTrace trace;
  auto lp_minus = MixedResolveAccess(subjects, objects, auths, u, doc,
                                     ParseStrategy("LP-").value(), &trace);
  ASSERT_TRUE(lp_minus.ok());
  EXPECT_EQ(*lp_minus, Mode::kNegative);
  EXPECT_EQ(trace.returned_line, 9) << "equal joint distance is a conflict";
  auto lp_plus = MixedResolveAccess(subjects, objects, auths, u, doc,
                                    ParseStrategy("LP+").value());
  ASSERT_TRUE(lp_plus.ok());
  EXPECT_EQ(*lp_plus, Mode::kPositive);
}

TEST(MixedTest, IrrelevantAuthorizationsAreIgnored) {
  const Dag subjects = Build({{"g", "u"}, {"g", "other"}});
  const Dag objects = Build({{"folder", "doc"}, {"folder", "other_doc"}});
  std::vector<MixedAuthorization> auths{
      {subjects.FindNode("other"), objects.FindNode("folder"),
       Mode::kNegative},  // Other subject: no path to u.
      {subjects.FindNode("g"), objects.FindNode("other_doc"),
       Mode::kNegative}};  // Other object: no path to doc.
  auto bag = MixedPropagate(subjects, objects, auths, subjects.FindNode("u"),
                            objects.FindNode("doc"));
  ASSERT_TRUE(bag.ok());
  // Only the default marker on the (g, folder) root pair remains.
  ASSERT_EQ(bag->GroupCount(), 1u);
  EXPECT_EQ(bag->entries()[0].mode, PropagatedMode::kDefault);
}

TEST(MixedTest, ContradictionAndDuplicateHandling) {
  const Dag subjects = Build({{"g", "u"}});
  const Dag objects = Build({{"folder", "doc"}});
  std::vector<MixedAuthorization> dup{
      {subjects.FindNode("g"), objects.FindNode("folder"), Mode::kPositive},
      {subjects.FindNode("g"), objects.FindNode("folder"), Mode::kPositive}};
  EXPECT_TRUE(MixedPropagate(subjects, objects, dup, subjects.FindNode("u"),
                             objects.FindNode("doc"))
                  .ok());
  std::vector<MixedAuthorization> contradiction{
      {subjects.FindNode("g"), objects.FindNode("folder"), Mode::kPositive},
      {subjects.FindNode("g"), objects.FindNode("folder"), Mode::kNegative}};
  EXPECT_EQ(MixedPropagate(subjects, objects, contradiction,
                           subjects.FindNode("u"), objects.FindNode("doc"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(MixedTest, ValidatesIds) {
  const Dag subjects = Build({{"g", "u"}});
  const Dag objects = Build({{"folder", "doc"}});
  EXPECT_FALSE(
      MixedPropagate(subjects, objects, {}, 99, objects.FindNode("doc"))
          .ok());
  EXPECT_FALSE(
      MixedPropagate(subjects, objects, {}, subjects.FindNode("u"), 99).ok());
  std::vector<MixedAuthorization> bad{{99, 0, Mode::kPositive}};
  EXPECT_FALSE(MixedPropagate(subjects, objects, bad, subjects.FindNode("u"),
                              objects.FindNode("doc"))
                   .ok());
}

/// Brute-force oracle: enumerate (subject path, object path) pairs.
RightsBag MixedOracle(const Dag& subjects, const Dag& objects,
                      const std::vector<MixedAuthorization>& auths,
                      graph::NodeId qs, graph::NodeId qo) {
  auto paths_by_length = [](const Dag& dag, graph::NodeId from,
                            graph::NodeId to) {
    std::map<uint32_t, uint64_t> out;
    std::function<void(graph::NodeId, uint32_t)> dfs = [&](graph::NodeId v,
                                                           uint32_t len) {
      if (v == to) {
        ++out[len];
        return;
      }
      for (graph::NodeId c : dag.children(v)) dfs(c, len + 1);
    };
    dfs(from, 0);
    return out;
  };

  RightsBag bag;
  auto add_pair = [&](graph::NodeId s, graph::NodeId o, PropagatedMode mode) {
    const auto sp = paths_by_length(subjects, s, qs);
    const auto op = paths_by_length(objects, o, qo);
    for (const auto& [ls, cs] : sp) {
      for (const auto& [lo, co] : op) {
        bag.Add(ls + lo, mode, cs * co);
      }
    }
  };
  std::set<std::pair<graph::NodeId, graph::NodeId>> labeled;
  for (const auto& a : auths) {
    // Only pairs that reach the query matter for the labeled-set too,
    // matching MixedPropagate's per-query semantics.
    if (paths_by_length(subjects, a.subject, qs).empty()) continue;
    if (paths_by_length(objects, a.object, qo).empty()) continue;
    labeled.insert({a.subject, a.object});
    add_pair(a.subject, a.object, acm::ToPropagated(a.mode));
  }
  for (graph::NodeId rs : subjects.Roots()) {
    if (paths_by_length(subjects, rs, qs).empty()) continue;
    for (graph::NodeId ro : objects.Roots()) {
      if (paths_by_length(objects, ro, qo).empty()) continue;
      if (labeled.contains({rs, ro})) continue;
      add_pair(rs, ro, PropagatedMode::kDefault);
    }
  }
  bag.Normalize();
  return bag;
}

TEST(MixedTest, AgreesWithPairPathOracleOnRandomGraphs) {
  Random rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    auto subjects = graph::GenerateLayeredDag(
        {.layers = 2 + rng.Uniform(2), .nodes_per_layer = 2 + rng.Uniform(3),
         .skip_edge_probability = 0.2},
        rng);
    auto objects = graph::GenerateLayeredDag(
        {.layers = 2 + rng.Uniform(2), .nodes_per_layer = 2 + rng.Uniform(3),
         .skip_edge_probability = 0.2},
        rng);
    ASSERT_TRUE(subjects.ok());
    ASSERT_TRUE(objects.ok());

    std::vector<MixedAuthorization> auths;
    std::set<std::pair<graph::NodeId, graph::NodeId>> used;
    for (int i = 0; i < 6; ++i) {
      const graph::NodeId s =
          static_cast<graph::NodeId>(rng.Uniform(subjects->node_count()));
      const graph::NodeId o =
          static_cast<graph::NodeId>(rng.Uniform(objects->node_count()));
      if (!used.insert({s, o}).second) continue;
      auths.push_back(MixedAuthorization{
          s, o, rng.Bernoulli(0.5) ? Mode::kPositive : Mode::kNegative});
    }

    const graph::NodeId qs = subjects->Sinks().front();
    const graph::NodeId qo = objects->Sinks().back();
    auto got = MixedPropagate(*subjects, *objects, auths, qs, qo);
    ASSERT_TRUE(got.ok());
    const RightsBag oracle = MixedOracle(*subjects, *objects, auths, qs, qo);
    EXPECT_EQ(*got, oracle)
        << "trial " << trial << "\ngot:    " << got->ToString()
        << "\noracle: " << oracle.ToString();
  }
}

}  // namespace
}  // namespace ucr::core
